import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finlap as fl
from conftest import builtin_metrics, count_calls, random_point
from finlap import hilbert
from finlap.differences import GEODESIC, second
from finlap.measures import DEFAULT_FIBER_N
from finlap.randers import symbol_closed_form


def apply_coeffs(metric, f, x, fiber_n=256):
    c = fl.operator_coefficients(metric, x, fiber_n)
    return c.apply(fl.field_gradient(f, x), fl.field_hessian(f, x))


class TestOperatorCoefficients:
    def test_kz_torus_closed_form(self):
        c = fl.operator_coefficients(fl.kz_torus(0.6), fl.torus_point(0.2, 0.9))
        a, b = fl.torus_operator(0.6)
        assert c.sigma[0, 0] == pytest.approx(a, abs=1e-8)
        assert c.sigma[1, 1] == pytest.approx(b, abs=1e-8)
        assert abs(c.sigma[0, 1]) < 1e-10
        assert np.abs(c.drift).max() < 1e-8
        assert c.vol_density == pytest.approx(1.953125, abs=1e-9)

    def test_flat_identity(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        c = fl.operator_coefficients(m, fl.torus_point(0.5, 0.1))
        assert np.allclose(c.sigma, np.eye(2), atol=1e-10)
        assert np.abs(c.drift).max() < 1e-9

    def test_kz_sphere_closed_form(self):
        eps = 0.3
        m = fl.kz_sphere(eps)
        op = fl.SphereOperator(eps)
        for phi in (0.5, 1.0, 1.5):
            c = fl.operator_coefficients(m, fl.sphere_point(phi, 0.3))
            assert c.sigma[1, 1] == pytest.approx(float(op.c_theta2(phi)), abs=1e-5)
            assert c.sigma[0, 0] == pytest.approx(float(op.c_phi2(phi)), abs=1e-5)
            assert c.drift[0] == pytest.approx(float(op.c_phi(phi)), abs=1e-5)
            assert abs(c.sigma[0, 1]) < 1e-6
            assert abs(c.drift[1]) < 1e-5

    def test_ellipticity(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(6):
                c = fl.operator_coefficients(m, random_point(m, rng))
                assert np.linalg.eigvalsh(c.sigma).min() > 0.0, name

    def test_trace_identity(self, rng):
        # trace(sigma) = (1/pi) * Int |V|^2 dAngle by construction
        m = fl.kz_torus(0.5)
        x = fl.torus_point(0.3, 0.3)
        q = fl.fiber_quadrature(m, x, 256)
        V, _, _ = fl.reeb_profile(m, x, q.nodes)
        tr = float(q.weights @ np.sum(V**2, axis=1)) / math.pi
        c = fl.operator_coefficients(m, x)
        assert tr == pytest.approx(np.trace(c.sigma), abs=1e-10)

    def test_riemannian_reduction(self, rng):
        # sigma = inverse metric, drift = Laplace-Beltrami first-order part
        def gf(p):
            return np.array([
                [1.0 + 0.3 * math.sin(2 * math.pi * p.v), 0.1],
                [0.1, 1.2],
            ])

        m = fl.riemannian(gf, chart=fl.TORUS)
        for _ in range(4):
            x = random_point(m, rng)
            c = fl.operator_coefficients(m, x)
            g = gf(x)
            assert np.abs(c.sigma - np.linalg.inv(g)).max() < 1e-6
            # Laplace-Beltrami drift: (1/sqrt|g|) d_i (sqrt|g| g^{ij})
            h = 1e-5

            def flux(p):
                gi = np.linalg.inv(gf(p))
                return math.sqrt(np.linalg.det(gf(p))) * gi

            d_u = (flux(x.shifted(h, 0)) - flux(x.shifted(-h, 0))) / (2 * h)
            d_v = (flux(x.shifted(0, h)) - flux(x.shifted(0, -h))) / (2 * h)
            lb = (d_u[0, :] + d_v[1, :]) / math.sqrt(np.linalg.det(g))
            assert np.abs(c.drift - lb).max() < 1e-6


class TestLaplacianApply:
    def test_flat_plane_quadratic(self):
        m = fl.riemannian(np.eye(2), chart=fl.PLANE)
        f = fl.CallableField(lambda p: p.u**2 + p.v**2,
                             gradient=lambda p: np.array([2 * p.u, 2 * p.v]),
                             hessian=lambda p: 2 * np.eye(2))
        got = fl.laplacian_apply(m, f, fl.plane_point(0.3, -0.7))
        assert got == pytest.approx(4.0, abs=1e-9)

    def test_kz_torus_eigenfunction(self):
        a, _ = fl.torus_operator(0.6)
        f = fl.SeparableTrigField(1.0, "cos", 1, "one", 0)
        x = fl.torus_point(0.0, 0.37)
        got = fl.laplacian_apply(fl.kz_torus(0.6), f, x)
        assert got == pytest.approx(-4 * math.pi**2 * a, abs=1e-6)
        assert got == pytest.approx(-22.459, abs=1e-3)

    def test_kz_sphere_first_harmonic(self, rng):
        # sin(phi) cos(theta) is an exact eigenfunction with eigenvalue -(2 - 2 eps^2)
        eps = 0.3
        m = fl.kz_sphere(eps)
        f = fl.SphereHarmonicField(1, 1, "cos")
        for _ in range(6):
            x = random_point(m, rng)
            got = fl.laplacian_apply(m, f, x)
            assert got == pytest.approx(-(2 - 2 * eps**2) * f(x), abs=1e-6)

    def test_constants_annihilated(self, rng):
        for name, m in builtin_metrics().items():
            x = random_point(m, rng)
            got = fl.laplacian_apply(m, fl.ConstantField(3.7), x)
            assert abs(got) < 1e-8, name

    def test_paths_agree(self, rng):
        m = fl.kz_torus(0.6)
        f = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                         fl.SeparableTrigField(0.5, "sin", 1, "sin", 1)])
        for _ in range(3):
            x = random_point(m, rng)
            c = fl.laplacian_apply(m, f, x, path="coefficient")
            g = fl.laplacian_apply(m, f, x, path="geodesic")
            assert abs(c - g) <= 1e-4 * max(1.0, abs(c))

    def test_geodesic_path_variable_metric(self, rng):
        m = fl.RandersMetric(np.eye(2),
                             lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0]))
        f = fl.SeparableTrigField(1.0, "cos", 1, "sin", 1)
        x = fl.torus_point(0.21, 0.83)
        c = fl.laplacian_apply(m, f, x, path="coefficient")
        g = fl.laplacian_apply(m, f, x, path="geodesic")
        assert abs(c - g) <= 1e-4 * max(1.0, abs(c))

    @pytest.mark.parametrize("name, reeb_calls", [("kz-torus-06", 1), ("randers-06", 1),
                                                  ("randers-var", 7), ("kz-sphere-03", 7)])
    def test_geodesic_branches_share_the_first_stage(self, name, reeb_calls, monkeypatch, rng):
        # the +h and -h branches start from the same states, so the spray
        # there is one block call; the value is the one of two branches
        # that each compute it, and of the general path
        m = builtin_metrics()[name]
        f = fl.SeparableTrigField(1.0, "cos", 1, "sin", 1)
        x = random_point(m, rng)

        def separate_branches(metric):
            quad = fl.fiber_quadrature(metric, x, DEFAULT_FIBER_N)
            states = np.column_stack([np.full(DEFAULT_FIBER_N, x.u),
                                      np.full(DEFAULT_FIBER_N, x.v), quad.nodes])

            def f_after(dt):
                ends = hilbert._rk4_step(metric, metric.chart, states, dt)
                return fl.field_values(f, [fl.ChartPoint(metric.chart, u, v)
                                           for u, v in ends[:, :2]])

            return float(quad.weights @ second(f_after, float(f(x)), GEODESIC)) / math.pi

        general = copy.copy(m)
        general.invariant_coords = frozenset()
        want = separate_branches(general)
        calls = []
        original = hilbert.reeb_profile
        monkeypatch.setattr(hilbert, "reeb_profile",
                            lambda *args: calls.append(1) or original(*args))
        got = fl.laplacian_apply(m, f, x, path="geodesic", fiber_n=DEFAULT_FIBER_N)
        assert len(calls) == reeb_calls
        assert got == want

    def test_conformal_invariance(self, rng):
        m = fl.kz_torus(0.3)
        f = fl.SeparableTrigField(0.2, "sin", 1, "cos", 1)
        scaled = fl.scale_conformal(m, f)
        u = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                         fl.SeparableTrigField(1.0, "one", 0, "sin", 2)])
        for _ in range(10):
            x = random_point(m, rng)
            lhs = fl.laplacian_apply(scaled, u, x)
            rhs = math.exp(-2 * f(x)) * fl.laplacian_apply(m, u, x)
            assert abs(lhs - rhs) <= 1e-5

    def test_conformal_coefficient_scaling(self, rng):
        # sigma and drift scale by e^{-2f}, the volume by e^{2f}
        m = fl.kz_torus(0.3)
        f = fl.SeparableTrigField(0.15, "cos", 1, "sin", 1)
        scaled = fl.scale_conformal(m, f)
        x = random_point(m, rng)
        c0 = fl.operator_coefficients(m, x)
        c1 = fl.operator_coefficients(scaled, x)
        s = math.exp(-2 * f(x))
        assert np.abs(c1.sigma - s * c0.sigma).max() < 1e-6
        assert np.abs(c1.drift - s * c0.drift).max() < 1e-5
        assert abs(c1.vol_density - c0.vol_density / s) < 1e-6


class TestSymmetryAndDivergenceForm:
    def test_constant_coefficients_symmetric(self):
        rep = fl.weighted_symmetry_residual(fl.kz_torus(0.6), 32)
        assert rep.symmetry_defect <= 1e-10

    def test_flat_symmetric(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        rep = fl.weighted_symmetry_residual(m, 32)
        assert rep.symmetry_defect <= 1e-10

    def test_variable_randers_divergence_refinement(self):
        m = fl.RandersMetric(np.eye(2),
                             lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0]))
        d16 = fl.weighted_symmetry_residual(m, 16, fiber_n=128).divergence_defect
        d32 = fl.weighted_symmetry_residual(m, 32, fiber_n=128).divergence_defect
        assert d32 <= 4e-3
        rate = math.log2(d16 / d32)
        assert 1.6 < rate < 2.4

    def test_variable_randers_divergence_defect_pinned(self):
        # the value from an independent flux-form stencil, which for this
        # separable test field equals the pencil's up to rounding
        m = fl.RandersMetric(np.eye(2),
                             lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0]))
        d16 = fl.weighted_symmetry_residual(m, 16, fiber_n=128).divergence_defect
        assert d16 == pytest.approx(0.01363114917865216, rel=1e-9)

    def test_grid_of_no_points_is_config_error(self):
        from finlap.laplace import grid_symbol_density

        with pytest.raises(fl.ConfigError):
            grid_symbol_density(builtin_metrics()["randers-var"], 0)

    @pytest.mark.parametrize("metric, fiber_n", [
        (fl.kz_torus(0.6), 256),
        (fl.RandersMetric(np.eye(2),
                          lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0])), 64),
    ], ids=["kz-torus", "randers-var"])
    def test_symmetry_defect_equals_dense_formula(self, metric, fiber_n):
        import scipy.sparse as sp
        from finlap.laplace import assemble_torus_operator

        n = 16
        L, vol = assemble_torus_operator(metric, n, fiber_n)
        S = (sp.diags(vol.ravel() / n**2) @ L).toarray()
        dense = float(np.abs(S - S.T).max() / np.abs(S).max())
        rep = fl.weighted_symmetry_residual(metric, n, fiber_n=fiber_n)
        assert rep.symmetry_defect == dense

    def test_drift_uniqueness_cross_check(self, rng):
        # quadrature drift equals the divergence-form drift implied by
        # (sigma, volume) through symmetry
        m = fl.RandersMetric(np.eye(2),
                             lambda p: np.array([0.25 * math.sin(2 * math.pi * p.v),
                                                 0.1 * math.cos(2 * math.pi * p.u)]))
        for _ in range(3):
            x = random_point(m, rng)
            c = fl.operator_coefficients(m, x)
            z = fl.divergence_form_drift(m, x)
            assert np.abs(c.drift - z).max() < 1e-4


    def test_kz_torus_report_pinned(self):
        rep = fl.weighted_symmetry_residual(fl.kz_torus(0.6), 32)
        assert (rep.symmetry_defect, rep.divergence_defect, rep.grid_n) == (
            0.0, 0.0032086359550493005, 32)


def _laplace_beltrami_drift(x):
    """(1/sqrt det g) d_i (sqrt det g g^ij) of the riemannian-var metric of
    conftest, from its hand-written derivatives: with g = [[a, b], [b, c]],
    D = det g and M = D g^-1, Z_j = (d_i M_ij) / D - (1/2) M_ij d_i D / D^2."""
    w = 2.0 * math.pi
    cu, su, cv, sv = math.cos(w * x.u), math.sin(w * x.u), math.cos(w * x.v), math.sin(w * x.v)
    a, b, c = 1.0 + 0.3 * sv, 0.1 * cu, 1.2 + 0.2 * cu
    a_v, b_u, c_u = 0.3 * w * cv, -0.1 * w * su, -0.2 * w * su
    D = a * c - b * b
    grad_D = np.array([a * c_u - 2.0 * b * b_u, a_v * c])
    M = np.array([[c, -b], [-b, a]])
    return np.array([c_u, a_v - b_u]) / D - 0.5 * (grad_D @ M) / D**2


class TestDriftClosedForms:
    """Both drift routes against closed forms: the Reeb-route oracle reads
    2.7e-7 relative on riemannian-var and up to 2.9e-7 on kz-sphere(0.3),
    the divergence form 1.25e-7 and 3.1e-9 (20 points, seed 3)."""

    @pytest.mark.parametrize("route", ["divergence-form", "reeb"])
    def test_riemannian_var_is_laplace_beltrami(self, route):
        m = builtin_metrics()["riemannian-var"]
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = fl.torus_point(rng.uniform(0, 1), rng.uniform(0, 1))
            z = (fl.divergence_form_drift(m, x) if route == "divergence-form"
                 else fl.operator_coefficients(m, x).drift)
            exact = _laplace_beltrami_drift(x)
            assert np.abs(z - exact).max() <= 1e-6 * np.abs(exact).max()

    @pytest.mark.parametrize("phi", [0.3, 1.1, 2.5])
    def test_kz_sphere(self, phi):
        from finlap.laplace import symbol_density

        m, op, x = fl.kz_sphere(0.3), fl.SphereOperator(0.3), fl.sphere_point(phi, 0.4)
        c_phi = float(op.c_phi(phi))
        z = fl.divergence_form_drift(m, x)
        assert np.abs(z - [c_phi, 0.0]).max() <= 1e-8 * abs(c_phi)
        sigma, _ = symbol_density(m, x)
        exact = np.diag([float(op.c_phi2(phi)), float(op.c_theta2(phi))])
        assert np.abs(sigma - exact).max() <= 1e-13

    @pytest.mark.parametrize("metric, rays", [(fl.kz_sphere(0.3), [3 * DEFAULT_FIBER_N]),
                                              (fl.kz_torus(0.6), [DEFAULT_FIBER_N])],
                             ids=["kz-sphere", "kz-torus"])
    def test_one_f_call_and_no_fiber_derivative(self, monkeypatch, metric, rays):
        # what finlap symbol computes: one fiber rule over the point and its
        # four neighbours, over its three lines of phi for the theta-invariant
        # kz-sphere (the theta-neighbours share the point's), or over the
        # point alone for a position-independent metric
        from finlap.laplace import _divergence_form

        calls = count_calls(monkeypatch, metric)
        x = fl.ChartPoint(metric.chart, 1.1, 0.4)
        _divergence_form(metric, x, DEFAULT_FIBER_N)
        assert (calls["f"], calls["d_vf"]) == (rays, [])


def _reference_matrix(stencil):
    """A periodic stencil's CSR built from a rolled index grid, one column
    per offset, sorted afterwards by scipy."""
    import scipy.sparse as sp

    n = stencil[0][1].shape[0]
    idx = np.arange(n * n).reshape(n, n)
    cols = np.stack([np.roll(idx, (-du, -dv), axis=(0, 1)).ravel()
                     for (du, dv), _ in stencil], axis=1)
    vals = np.stack([v.ravel() for _, v in stencil], axis=1)
    indptr = np.arange(0, vals.size + 1, len(stencil))
    A = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n * n, n * n))
    A.sort_indices()
    return A


def _random_coefficients(n, seed):
    """SPD sigma (n, n, 2, 2), positive rho (n, n) and a drift (n, n, 2)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n, 2, 2))
    sigma = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(2)
    return sigma, rng.uniform(0.5, 2.0, size=(n, n)), rng.normal(size=(n, n, 2))


def _stencils(n, seed=7):
    from finlap.laplace import _coefficient_stencil, _conservative_stencil

    sigma, rho, drift = _random_coefficients(n, seed)
    return {"conservative": _conservative_stencil(sigma, rho),
            "coefficient": _coefficient_stencil(sigma, drift)}


class TestStencilPattern:
    @pytest.mark.parametrize("n", [16, 17, 31, 128])
    @pytest.mark.parametrize("kind", ["conservative", "coefficient"])
    def test_matrix_equals_reference(self, n, kind):
        from finlap.laplace import _stencil_matrix

        stencil = _stencils(n)[kind]
        A, ref = _stencil_matrix(stencil), _reference_matrix(stencil)
        assert (A.format, A.shape) == (ref.format, ref.shape)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(A, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_pattern_cached_read_only_and_not_shared(self):
        from finlap.laplace import _stencil_matrix, _stencil_pattern

        stencil = _stencils(24)["conservative"]
        _stencil_matrix(stencil)
        before = _stencil_pattern.cache_info()
        A = _stencil_matrix(stencil)
        after = _stencil_pattern.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        pattern = [arr for arr in _stencil_pattern(24, tuple(d for d, _ in stencil))
                   if isinstance(arr, np.ndarray)]
        assert not any(arr.flags.writeable for arr in pattern)
        assert not any(np.shares_memory(getattr(A, name), arr)
                       for name in ("data", "indices", "indptr") for arr in pattern)

    def test_eliminate_zeros_leaves_the_pattern_intact(self):
        from finlap.laplace import _stencil_matrix

        stencil = _stencils(20)["coefficient"]
        holed = [(d, np.zeros_like(v)) if d == (1, 1) else (d, v) for d, v in stencil]
        _stencil_matrix(holed).eliminate_zeros()
        A, ref = _stencil_matrix(stencil), _reference_matrix(stencil)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.indptr, ref.indptr)


class TestStencilDefect:
    """The defect read off a stencil's values equals the dense defect of
    its assembled matrix."""

    @pytest.mark.parametrize("n", [16, 17, 32])
    def test_conservative_stencil_is_exactly_symmetric(self, n):
        from finlap.laplace import _stencil_defect, _stencil_matrix, _sym_defect

        stencil = _stencils(n)["conservative"]
        assert _stencil_defect(stencil) == 0.0
        assert _sym_defect(_stencil_matrix(stencil).toarray()) == 0.0

    @pytest.mark.parametrize("n", [16, 17, 32])
    def test_weighted_coefficient_stencil_variable_randers(self, n):
        import scipy.sparse as sp
        from finlap.laplace import (_coefficient_stencil, _stencil_defect, _stencil_matrix,
                                    _sym_defect, grid_coefficients)

        m = builtin_metrics()["randers-var"]
        sigma, drift, vol = grid_coefficients(m, n, 64)
        stencil = _coefficient_stencil(sigma, drift)
        mass = vol * (1.0 / n) ** 2
        S = sp.diags(mass.ravel()) @ _stencil_matrix(stencil)
        defect = _stencil_defect([(d, mass * v) for d, v in stencil])
        assert defect > 0.0
        assert defect == _sym_defect(S.toarray())
        assert defect == fl.weighted_symmetry_residual(m, n, fiber_n=64).symmetry_defect

    def test_zero_stencil(self):
        from finlap.laplace import _stencil_defect

        zero = [(d, np.zeros((16, 16))) for d, _ in _stencils(16)["coefficient"]]
        assert _stencil_defect(zero) == 0.0


class TestRoundSphereHarmonics:
    @pytest.mark.parametrize("l,m_", [(1, 0), (2, 1), (3, 3), (4, 2), (5, 0)])
    def test_round_sphere_eigenfunctions(self, l, m_, rng):
        metric = fl.kz_sphere(0.0)
        f = fl.SphereHarmonicField(l, m_, "cos")
        for _ in range(5):
            x = random_point(metric, rng)
            got = apply_coeffs(metric, f, x)
            assert abs(got + l * (l + 1) * f(x)) < 1e-6


def _grid_point(n, k):
    return fl.torus_point(k // n / n, k % n / n)


def _bad_at_one_point(n, k, good, bad):
    """A field equal to ``good(p)`` except at grid point k, where it is ``bad``."""
    target = _grid_point(n, k)

    def field(p):
        return np.asarray(bad if (p.u, p.v) == (target.u, target.v) else good(p))
    return field, target


def _quartic_symbol_density():
    """(sigma, rho) of the custom quartic norm from the analytic f'' of
    f(phi) = (1 + cos^4 phi / 2)^(1/4), on 1024 trapezoid nodes."""
    phis = 2.0 * np.pi * np.arange(1024) / 1024
    c, s = np.cos(phis), np.sin(phis)
    g, dg, ddg = 1.0 + 0.5 * c**4, -2.0 * c**3 * s, 6.0 * c**2 * s**2 - 2.0 * c**4
    f = g**0.25
    lam = f * (f + ddg / (4.0 * g**0.75) - 3.0 * dg**2 / (16.0 * g**1.75))
    V = np.stack([c, s], axis=-1) / f[:, None]
    return 2.0 * (V * lam[:, None]).T @ V / lam.sum(), lam.mean()


def _symbol_closed_form(name, m, x):
    """(sigma, rho) at x in closed form: g^-1 and sqrt(det g) for a
    Riemannian metric, the Randers closed form with the Riemannian volume,
    and the analytic quadrature of the quartic."""
    if name == "custom-quartic":
        return _quartic_symbol_density()
    g = m.g(x)
    sigma = np.linalg.inv(g) if name == "riemannian-var" else symbol_closed_form(m, x)
    return sigma, math.sqrt(np.linalg.det(g))


class TestBlockedGrid:
    """grid_symbol_density evaluates blocks of base points at once; it must
    agree with the one-point kernel, and it and the Reeb-route oracle with
    the closed forms, and fail as the one-point path fails."""

    # (n, fiber_n): n^2 is more than the BLOCK_RAYS // fiber_n points of a
    # block and not a multiple of it, so the grid is walked in at least two
    # blocks, the last one short
    @pytest.mark.parametrize("n, fiber_n", [(16, 96), (18, 256)])
    @pytest.mark.parametrize("name", ["riemannian-var", "randers-var", "custom-quartic"])
    def test_matches_points_and_oracle(self, name, n, fiber_n):
        from finlap.laplace import BLOCK_RAYS, grid_symbol_density, symbol_density

        size = BLOCK_RAYS // fiber_n
        assert size < n * n and (n * n) % size != 0
        m = builtin_metrics()[name]
        sigma, rho = grid_symbol_density(m, n, fiber_n)
        for k in range(n * n):
            x = _grid_point(n, k)
            s1, r1 = symbol_density(m, x, fiber_n)
            i, j = divmod(k, n)
            assert np.abs(sigma[i, j] - s1).max() <= 1e-15 * np.abs(s1).max()
            assert rho[i, j] == r1
            if k % 23 == 0:
                exact_sigma, exact_rho = _symbol_closed_form(name, m, x)
                assert np.abs(sigma[i, j] - exact_sigma).max() <= 1e-14
                assert abs(rho[i, j] / exact_rho - 1.0) <= 1e-14
                # the Reeb route differences d_vF, and a finite-difference
                # d_vF magnifies its error
                analytic = m.analytic_fiber_derivative
                c = fl.operator_coefficients(m, x, fiber_n)
                assert np.abs(c.sigma - exact_sigma).max() < (1e-10 if analytic else 1e-8)
                assert abs(c.vol_density / exact_rho - 1.0) <= (1e-9 if analytic else 1e-6)

    def test_non_spd_g_at_one_point_names_it(self):
        from finlap.laplace import grid_symbol_density

        g, bad = _bad_at_one_point(16, 37, builtin_metrics()["riemannian-var"].g_field,
                                   [[1.0, 0.0], [0.0, -1.0]])
        m = fl.riemannian(g, chart=fl.TORUS)
        with pytest.raises(fl.InvalidMetricError) as one_point:
            fl.eval_f(m, bad, [1.0, 0.0])
        with pytest.raises(fl.InvalidMetricError) as grid:
            grid_symbol_density(m, 16)
        assert str(grid.value) == str(one_point.value)
        assert str(grid.value) == f"metric tensor not positive definite at ({bad.u}, {bad.v})"

    def test_randers_form_too_long_at_one_point_names_it(self):
        from finlap.laplace import grid_symbol_density

        theta, bad = _bad_at_one_point(
            16, 200, lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0]),
            [0.0, 1.25])
        m = fl.RandersMetric(np.eye(2), theta)
        with pytest.raises(fl.InvalidMetricError) as grid:
            grid_symbol_density(m, 16)
        assert str(grid.value) == f"Randers 1-form has g-norm 1.250000 >= 1 at ({bad.u}, {bad.v})"

    def test_degenerate_contact_at_one_point_names_it(self):
        from finlap.laplace import grid_symbol_density

        g, bad = _bad_at_one_point(16, 90, lambda p: np.eye(2), 1e-14 * np.eye(2))
        with pytest.raises(fl.DegenerateContactError, match=fr"at \({bad.u}, {bad.v}\)$"):
            grid_symbol_density(fl.riemannian(g, chart=fl.TORUS), 16)

    def test_fiber_derivative_calls_per_block(self, monkeypatch):
        # no fiber derivative and no indicatrix call: one F call per block
        # of points, where one point at a time made n^2 = 1024
        import finlap.laplace as laplace
        from finlap.measures import DEFAULT_FIBER_N

        m = builtin_metrics()["randers-var"]
        calls = count_calls(monkeypatch, m)
        n = 32
        laplace.grid_symbol_density(m, n)
        size = laplace.BLOCK_RAYS // DEFAULT_FIBER_N
        assert calls["f"] == [size * DEFAULT_FIBER_N] * (n * n // size)
        assert calls["d_vf"] == calls["indicatrix_point"] == []

    @pytest.mark.parametrize("sigma", [
        [[-1.0, 0.0], [0.0, 2.0]],      # s11 < 0
        [[1.0, 2.0], [2.0, 1.0]],       # s11 > 0, det < 0
        [[1.0, 1.0], [1.0, 1.0]],       # singular
    ], ids=["negative", "indefinite", "singular"])
    def test_non_spd_symbol_raises(self, monkeypatch, sigma):
        from finlap import laplace

        n = 4
        bad = np.array(sigma)
        expected = np.linalg.eigvalsh(bad)[0]

        def symbols(metric, points, fiber_n):
            s = np.tile(np.eye(2), (len(points), 1, 1))
            s[5] = bad
            return s, np.ones(len(points))

        monkeypatch.setattr(laplace, "symbol_densities", symbols)
        with pytest.raises(fl.NumericError, match="smallest eigenvalue") as err:
            laplace.grid_symbol_density(fl.kz_torus(0.3), n)
        assert f"{expected}" in str(err.value)

    def test_broadcast_symbol_passes_unchanged(self):
        from finlap import laplace

        m = fl.kz_torus(0.55)
        sigma, rho = laplace.grid_symbol_density(m, 8)
        s1, r1 = laplace.symbol_density(m, fl.torus_point(0.0, 0.0))
        assert np.array_equal(sigma, np.broadcast_to(s1, sigma.shape))
        assert np.array_equal(rho, np.full(rho.shape, r1))


class TestReebRouteBlocks:
    """coefficients_at walks the Reeb-route kernel over blocks of base
    points; operator_coefficients is its one-point case."""

    def test_operator_coefficients_keeps_no_state(self):
        for m in (fl.kz_torus(0.6), builtin_metrics()["randers-06"],
                  builtin_metrics()["randers-var"]):
            x = fl.torus_point(0.3, 0.7)
            fl.eval_f(m, x, [1.0, 0.0])     # constant tensors are checked once, here
            before = dict(vars(m))
            fl.operator_coefficients(m, x, 64)
            after = vars(m)
            assert after.keys() == before.keys(), m.kind
            assert all(after[k] is v for k, v in before.items()), m.kind

    # n = 9 with fiber_n = 128 walks a block of 64 points and a short one of 17
    @pytest.mark.parametrize("name", ["riemannian-var", "randers-var", "custom-quartic"])
    def test_block_equals_points(self, name):
        from finlap.laplace import BLOCK_RAYS, coefficients_at, grid_coefficients

        n, fiber_n = 9, 128
        size = BLOCK_RAYS // fiber_n
        assert size < n * n and (n * n) % size != 0
        m = builtin_metrics()[name]
        sigma, drift, rho = coefficients_at(m, fl.torus_base(n).points, fiber_n)
        gs, gd, gr = grid_coefficients(m, n, fiber_n)
        for k in range(n * n):
            c = fl.operator_coefficients(m, _grid_point(n, k), fiber_n)
            i, j = divmod(k, n)
            assert np.array_equal(sigma[k], c.sigma) and np.array_equal(gs[i, j], c.sigma)
            assert np.array_equal(drift[k], c.drift) and np.array_equal(gd[i, j], c.drift)
            assert rho[k] == c.vol_density and gr[i, j] == c.vol_density

    def test_block_equals_points_on_the_sphere(self, rng):
        from finlap.laplace import coefficients_at

        m = builtin_metrics()["kz-sphere-03"]
        xs = [random_point(m, rng) for _ in range(5)]
        sigma, drift, rho = coefficients_at(m, xs, 64)
        for k, x in enumerate(xs):
            c = fl.operator_coefficients(m, x, 64)
            assert np.array_equal(sigma[k], c.sigma)
            assert np.array_equal(drift[k], c.drift)
            assert rho[k] == c.vol_density

    @pytest.mark.parametrize("bad_sigma, bad_rho", [
        ([[1.0, 2.0], [2.0, 1.0]], 1.0),
        (np.eye(2), -1.0),
    ], ids=["indefinite-symbol", "negative-density"])
    def test_bad_point_raises_the_grid_message(self, monkeypatch, bad_sigma, bad_rho):
        from finlap import laplace

        n, target = 8, _grid_point(8, 45)

        def kernel(metric, xs, fiber_n):
            sigma = np.tile(np.eye(2), (len(xs), 1, 1))
            rho = np.ones(len(xs))
            for i, p in enumerate(xs):
                if (p.u, p.v) == (target.u, target.v):
                    sigma[i], rho[i] = bad_sigma, bad_rho
            return sigma, np.zeros((len(xs), 2)), rho

        def symbols(metric, points, fiber_n):
            sigma, _, rho = kernel(metric, points, fiber_n)
            return sigma, rho

        m = builtin_metrics()["randers-var"]
        monkeypatch.setattr(laplace, "_coefficients", kernel)
        monkeypatch.setattr(laplace, "symbol_densities", symbols)
        with pytest.raises(fl.NumericError) as grid:
            laplace.grid_symbol_density(m, n)
        with pytest.raises(fl.NumericError) as blocks:
            laplace.grid_coefficients(m, n)
        assert str(blocks.value) == str(grid.value)


@pytest.fixture
def reeb_route_calls(monkeypatch):
    """The arguments of every reeb_profile, density_profile and
    vertical_derivative call, rebound in every finlap module as the
    perfbench tracer rebinds them."""
    import sys

    from finlap import hilbert, metrics

    calls = {}
    for fn in (hilbert.reeb_profile, hilbert.density_profile, metrics.vertical_derivative):
        def wrapped(*args, _fn=fn, **kwargs):
            calls.setdefault(_fn.__name__, []).append(args)
            return _fn(*args, **kwargs)
        for key, mod in list(sys.modules.items()):
            if key.startswith("finlap") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapped)
    return calls


@pytest.mark.parametrize("points", [1, 8], ids=["one-point", "block"])
def test_reeb_route_call_structure(reeb_route_calls, points):
    # perfbench's structure check asserts 7 / 1 / 52 calls of fiber_n rays
    # each for one operator_coefficients call; a block makes the same calls
    from finlap.laplace import coefficients_at

    m, fiber_n = builtin_metrics()["randers-var"], 256
    if points == 1:
        fl.operator_coefficients(m, fl.torus_point(0.3, 0.7), fiber_n)
        lead = ()
    else:
        coefficients_at(m, fl.torus_base(4).points[:points], fiber_n)
        lead = (points,)
    counts = {name: len(args) for name, args in reeb_route_calls.items()}
    assert counts == {"reeb_profile": 7, "density_profile": 1, "vertical_derivative": 52}
    rays = {np.shape(args[2]) for args in reeb_route_calls["vertical_derivative"]}
    assert rays == {lead + (fiber_n, 2)}


class TestConformalScalingProperty:
    """Lap_{e^f F} u = e^{-2f} Lap_F u for random conformal factors at random
    points, to criterion 06's 1e-5."""

    U = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                     fl.SeparableTrigField(1.0, "one", 0, "sin", 2)])

    @pytest.mark.parametrize("kind", ["kz-torus", "flat-torus"])
    @settings(max_examples=10, deadline=None, database=None)
    @given(amplitudes=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
           uv=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                 st.floats(0.0, 1.0, exclude_max=True)),
                       min_size=1, max_size=6))
    def test_scale_conformal(self, kind, amplitudes, uv):
        from finlap.catalog import build_metric
        from finlap.fields import field_values
        from finlap.laplace import coefficient_form, coefficients_at

        metric = build_metric(kind, 0.3)
        a, b = amplitudes
        f = fl.SumField([fl.SeparableTrigField(a, "sin", 1, "cos", 1),
                         fl.SeparableTrigField(b, "one", 0, "cos", 2)])
        xs = [fl.torus_point(u, v) for u, v in uv]
        lhs = coefficient_form(*coefficients_at(fl.scale_conformal(metric, f), xs)[:2],
                               self.U, xs)
        rhs = (np.exp(-2.0 * field_values(f, xs))
               * coefficient_form(*coefficients_at(metric, xs)[:2], self.U, xs))
        assert np.abs(lhs - rhs).max() <= 1e-5

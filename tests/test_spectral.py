import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import finlap as fl
from conftest import builtin_metrics, count_calls
from finlap import katok_ziller, laplace, measures, spectral
from finlap.laplace import assemble_torus_operator, symbol_density


class TestEnergy:
    def test_constant_is_zero(self):
        m = fl.kz_torus(0.4)
        e = fl.energy(m, fl.ConstantField(2.0), fl.torus_base(16))
        assert abs(e) < 1e-12

    def test_flat_torus_mode(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        u = fl.SeparableTrigField(1.0, "cos", 1, "one", 0)
        e = fl.energy(m, u, fl.torus_base(32))
        assert e == pytest.approx(2 * math.pi**2, rel=1e-10)
        assert e == pytest.approx(19.739, abs=1e-3)

    def test_kz_torus_energy_green(self):
        # E(u) = -<u, Lap u> = (1/2) * 4 pi^2 * a * vol for u = cos(2 pi x)
        eps = 0.6
        m = fl.kz_torus(eps)
        u = fl.SeparableTrigField(1.0, "cos", 1, "one", 0)
        a, _ = fl.torus_operator(eps)
        vol = (1 - eps**2) ** -1.5
        e = fl.energy(m, u, fl.torus_base(32))
        assert e == pytest.approx(2 * math.pi**2 * a * vol, rel=1e-8)

    def test_green_identity_generic(self):
        m = fl.kz_torus(0.6)
        u = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                         fl.SeparableTrigField(0.5, "one", 0, "sin", 2)])
        base = fl.torus_base(64)
        e = fl.energy(m, u, base)
        c = fl.operator_coefficients(m, base.points[0])
        acc = 0.0
        for x, w in zip(base.points, base.weights):
            acc += w * c.vol_density * u(x) * c.apply(fl.field_gradient(u, x),
                                                      fl.field_hessian(u, x))
        assert abs(e + acc) <= 1e-3 * e


def tilted_randers():
    return fl.RandersMetric(
        np.array([[1.5, -0.2], [-0.2, 0.8]]),
        lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v),
                            0.2 * math.cos(2 * math.pi * p.u)]),
        chart=fl.TORUS)


class TestEnergyFromIndicatrix:
    # (energy, rayleigh) on torus_base(8) with V from the Reeb field, as
    # computed before energy took V from the indicatrix
    REEB_VALUES = {
        "randers-var": (40.4174024075195, 64.66784385382027),
        "randers-tilted": (43.37296284415542, 64.43325602672941),
    }

    @staticmethod
    def metric(name):
        return builtin_metrics()[name] if name == "randers-var" else tilted_randers()

    @pytest.mark.parametrize("name", sorted(REEB_VALUES))
    def test_matches_reeb_route(self, name):
        u = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                         fl.SeparableTrigField(0.5, "one", 0, "sin", 2)])
        base = fl.torus_base(8)
        e, r = self.REEB_VALUES[name]
        assert fl.energy(self.metric(name), u, base) == pytest.approx(e, rel=1e-8)
        assert fl.rayleigh(self.metric(name), u, base) == pytest.approx(r, rel=1e-8)

    @pytest.mark.parametrize("name", sorted(REEB_VALUES))
    def test_one_norm_call_per_block(self, name, monkeypatch):
        # one F call and no fiber derivative per block of
        # BLOCK_RAYS // fiber_n base points
        from finlap.measures import BLOCK_RAYS

        metric = self.metric(name)
        calls = count_calls(monkeypatch, metric)
        base = fl.torus_base(8)
        fl.energy(metric, fl.SeparableTrigField(1.0, "cos", 1, "one", 0), base, fiber_n=256)
        assert len(calls["f"]) == math.ceil(len(base.points) / (BLOCK_RAYS // 256))
        assert len(calls["f"]) == 4
        assert calls["d_vf"] == calls["indicatrix_point"] == []


def _per_point_energy(metric, u, base):
    """energy one base point at a time, from the fiber nodes:
    (1/pi) Sum_x w_x rho_x Sum_k w_k (V_k . grad u)^2."""
    total = 0.0
    for x, wx in zip(base.points, base.weights):
        quad = fl.fiber_quadrature(metric, x)
        V = fl.indicatrix_point(metric, x, quad.nodes)
        rates = V @ fl.field_gradient(u, x)
        total += wx * quad.volume * float(quad.weights @ rates**2)
    return total / math.pi


def _per_point_volume_sums(metric, u, base):
    """(Sum w rho u^2, Sum w rho u, Sum w rho), one base point at a time."""
    sq = num = den = 0.0
    for x, wx in zip(base.points, base.weights):
        vol = fl.fiber_quadrature(metric, x).volume
        sq += wx * vol * float(u(x)) ** 2
        num += wx * vol * float(u(x))
        den += wx * vol
    return sq, num, den


class TestBlockedBaseIntegrals:
    """energy, omega_norm_sq and omega_mean walk the base in blocks of points;
    they must equal the per-point fiber-node formulas."""

    CASES = {
        # 35 points: blocks of 16, 16 and 3
        "kz-sphere-03": (lambda: fl.kz_sphere(0.3), lambda: fl.sphere_base(5, 7),
                         lambda: fl.SumField([fl.SphereHarmonicField(1, 1, "cos"),
                                              fl.SphereHarmonicField(2, 0, "cos")])),
        "randers-var": (lambda: builtin_metrics()["randers-var"], lambda: fl.torus_base(8),
                        lambda: fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                                             fl.SeparableTrigField(0.5, "one", 0, "sin", 2),
                                             fl.ConstantField(0.3)])),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_match_per_point_formulas(self, name):
        metric, base, u = (make() for make in self.CASES[name])
        sq, num, den = _per_point_volume_sums(metric, u, base)
        assert fl.energy(metric, u, base) == pytest.approx(
            _per_point_energy(metric, u, base), rel=1e-13)
        assert fl.omega_norm_sq(metric, u, base) == pytest.approx(sq, rel=1e-13)
        assert fl.omega_mean(metric, u, base) == pytest.approx(num / den, rel=1e-13)

    def test_position_independent_metric_evaluated_once(self, monkeypatch):
        m = fl.kz_torus(0.6)
        calls = count_calls(monkeypatch, m)
        u = fl.SeparableTrigField(1.0, "cos", 1, "one", 0)
        base = fl.torus_base(16)
        fl.energy(m, u, base)
        assert len(calls["f"]) == 1
        fl.omega_norm_sq(m, u, base)
        assert len(calls["f"]) == 2

    def test_energy_rejects_degenerate_contact(self):
        bad = fl.ChartPoint(fl.TORUS, 0.25, 0.5)
        m = fl.riemannian(lambda p: 1e-14 * np.eye(2) if p == bad else np.eye(2),
                          chart=fl.TORUS)
        with pytest.raises(fl.DegenerateContactError, match=r"at \(0.25, 0.5\)$"):
            fl.energy(m, fl.SeparableTrigField(1.0, "cos", 1, "one", 0), fl.torus_base(8))


class TestRayleigh:
    def test_constant_zero(self):
        m = fl.kz_torus(0.3)
        assert fl.rayleigh(m, fl.ConstantField(1.0), fl.torus_base(16)) == pytest.approx(0.0, abs=1e-12)

    def test_flat_torus_eigenfunction(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        u = fl.SeparableTrigField(1.0, "cos", 1, "one", 0)
        r = fl.rayleigh(m, u, fl.torus_base(32))
        assert r == pytest.approx(4 * math.pi**2, rel=1e-6)

    def test_sphere_first_harmonic(self):
        m = fl.kz_sphere(0.3)
        u = fl.SphereHarmonicField(1, 1, "cos")
        r = fl.rayleigh(m, u, fl.sphere_base(48, 8))
        assert r == pytest.approx(1.82, abs=1e-4)

    def test_zero_norm_rejected(self):
        m = fl.kz_torus(0.3)
        with pytest.raises(fl.DomainError):
            fl.rayleigh(m, fl.ConstantField(0.0), fl.torus_base(16))

    @pytest.mark.parametrize("name", ["randers-var", "riemannian-var"])
    def test_one_fiber_walk_per_quotient(self, name, monkeypatch):
        # 144 points: one F call for each of the blocks of 64, 64 and 16
        from finlap.measures import BLOCK_RAYS, DEFAULT_FIBER_N

        metric = builtin_metrics()[name]
        u = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                         fl.SeparableTrigField(0.5, "one", 0, "sin", 2),
                         fl.ConstantField(0.3)])
        base = fl.torus_base(12)
        quotient = fl.energy(metric, u, base) / fl.omega_norm_sq(metric, u, base)
        calls = count_calls(monkeypatch, metric)
        assert fl.rayleigh(metric, u, base) == quotient
        size = BLOCK_RAYS // DEFAULT_FIBER_N
        assert calls["f"] == [min(size, 144 - k) * DEFAULT_FIBER_N for k in range(0, 144, size)]
        assert len(calls["f"]) == 3
        assert calls["d_vf"] == calls["indicatrix_point"] == []

    def test_minmax_lower_bound_100_random_mean_zero(self, rng):
        # any volume-mean-zero u has Rayleigh quotient >= first nonzero
        # eigenvalue; geometry data is precomputed once per base point
        eps = 0.3
        m = fl.kz_sphere(eps)
        base = fl.sphere_base(32, 8)
        lam1 = 2 - 2 * eps**2
        geom = []
        for x in base.points:
            quad = fl.fiber_quadrature(m, x, 128)
            V, _, _ = fl.reeb_profile(m, x, quad.nodes)
            geom.append((x, quad, V))
        fields = [fl.SphereHarmonicField(l, mm, kind)
                  for (l, mm) in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 0), (3, 2)]
                  for kind in (("cos",) if mm == 0 else ("cos", "sin"))]
        vals = np.array([[f(x) for f in fields] for x, _, _ in geom])
        grads = np.array([[fl.field_gradient(f, x) for f in fields]
                          for x, _, _ in geom])
        vols = np.array([q.volume for _, q, _ in geom])
        for _ in range(100):
            coef = rng.normal(size=len(fields))
            u_vals = vals @ coef
            mean = float((base.weights * vols) @ u_vals) / float(base.weights @ vols)
            u_vals = u_vals - mean
            nsq = float((base.weights * vols) @ u_vals**2)
            e = 0.0
            for i, (x, quad, V) in enumerate(geom):
                du = np.tensordot(coef, grads[i], axes=(0, 0))
                rates = V @ du
                e += base.weights[i] * vols[i] * float(quad.weights @ rates**2)
            e /= math.pi
            assert e / nsq >= lam1 - 1e-6


class TestAssembly:
    def test_flat_torus_five_point(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        prob = fl.assemble_eigenproblem(m, fl.TorusGridBasis(n=16))
        assert prob.sym_defect < 1e-12
        n2 = 16 * 16
        assert prob.stiffness.shape == (n2, n2)
        h2 = 1.0 / n2
        row = prob.stiffness.getrow(0).toarray().ravel()
        # volume-weighted five-point stencil: diagonal -4/h^2 * h^2 * vol;
        # cross entries vanish to fiber-quadrature accuracy
        assert row[0] == pytest.approx(-4.0 * 16 * 16 * h2, rel=1e-9)
        assert np.count_nonzero(np.abs(row) > 1e-9) == 5

    def test_kz_torus_constant_stencil(self):
        prob = fl.assemble_eigenproblem(fl.kz_torus(0.6), fl.TorusGridBasis(n=16))
        assert prob.sym_defect < 1e-10

    def test_grid_too_coarse(self):
        with pytest.raises(fl.ConfigError):
            fl.assemble_eigenproblem(fl.kz_torus(0.1), fl.TorusGridBasis(n=8))

    def test_sphere_basis_requires_kz(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        with pytest.raises(fl.ConfigError):
            fl.assemble_eigenproblem(m, fl.SphereHarmonicBasis(lmax=8, m=0))

    def test_mass_spd_enforced(self):
        with pytest.raises(fl.NumericError):
            fl.SpectralProblem(basis=None, stiffness=np.eye(2),
                               mass=np.array([[1.0, 2.0], [2.0, 1.0]]),
                               metric_tag="bad", sym_defect=0.0)


def wave(amp, ku, kv, phase):
    """p -> amp * sin(2 pi (ku u + kv v) + phase)."""
    return lambda p: amp * math.sin(2 * math.pi * (ku * p.u + kv * p.v) + phase)


@st.composite
def torus_metrics(draw):
    """Position-dependent Riemannian or Randers torus metric.

    g = [[a + wa, c + wc], [c + wc, b + wb]] with |wa| <= 0.4a, |wb| <= 0.4b
    and |c| + |wc| <= 0.2 min(a, b), so its smallest eigenvalue is at
    least 0.4 min(a, b); the Randers 1-form stays below 0.8 in g-norm.
    """
    amp = st.floats(0.0, 1.0)
    mode = st.integers(0, 2)
    phase = st.floats(0.0, 2 * math.pi)
    a, b = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    off = 0.1 * min(a, b)
    c = draw(st.floats(-off, off))
    wa = wave(0.4 * a * draw(amp), draw(mode), 1, draw(phase))
    wb = wave(0.4 * b * draw(amp), 1, draw(mode), draw(phase))
    wc = wave(off * draw(amp), draw(mode), draw(mode), draw(phase))

    def g(p):
        g12 = c + wc(p)
        return np.array([[a + wa(p), g12], [g12, b + wb(p)]])

    if not draw(st.booleans()):
        return fl.riemannian(g, chart=fl.TORUS)
    t = 0.8 * math.sqrt(0.4 * min(a, b)) * draw(st.floats(0.0, 1.0)) / math.sqrt(2.0)
    t1 = wave(t, draw(mode), 1, draw(phase))
    t2 = wave(t, 1, draw(mode), draw(phase))
    return fl.RandersMetric(g, lambda p: np.array([t1(p), t2(p)]), chart=fl.TORUS)


class TestConservativePencil:
    def test_constant_coefficients_match_coefficient_stencil(self):
        # for a position-independent metric the drift vanishes and both
        # discretizations are the same 9-point stencil
        m = fl.kz_torus(0.5)
        prob = fl.assemble_eigenproblem(m, fl.TorusGridBasis(n=16))
        L, _ = assemble_torus_operator(m, 16)
        ML = prob.mass @ L
        assert abs(prob.stiffness - ML).max() <= 1e-11 * abs(ML).max()

    def test_symbol_density_matches_oracle(self):
        # two routes: F alone, and the Reeb field weighted by the Hilbert jet
        from finlap.randers import symbol_closed_form

        m = builtin_metrics()["randers-var"]
        x = fl.torus_point(0.3, 0.7)
        sigma, rho = symbol_density(m, x)
        c = fl.operator_coefficients(m, x)
        assert np.abs(sigma - c.sigma).max() < 1e-11
        assert abs(rho / c.vol_density - 1.0) <= 1e-9
        assert np.abs(sigma - symbol_closed_form(m, x)).max() <= 1e-14
        assert abs(rho - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", [16, 32])
    def test_variable_randers_spectrum_nonnegative(self, n):
        prob = fl.assemble_eigenproblem(builtin_metrics()["randers-var"], fl.TorusGridBasis(n=n))
        S = prob.stiffness
        assert abs(S - S.T).max() == 0.0
        assert np.abs(S @ np.ones(prob.dim)).max() <= 1e-12 * abs(S).max()
        res = fl.solve_eigen(prob, k=8)
        vals = res.expand()
        assert abs(vals[0]) <= 1e-9 * np.abs(vals).max()
        assert vals[1] > 1.0
        assert res.meta["sym_defect"] == 0.0
        assert res.meta["zero_mode_residual"] <= 1e-12

    def test_degenerate_contact_density_rejected(self):
        tiny = fl.riemannian(1e-14 * np.eye(2), chart=fl.TORUS)
        with pytest.raises(fl.DegenerateContactError):
            fl.assemble_eigenproblem(tiny, fl.TorusGridBasis(n=16))

    @settings(max_examples=6, deadline=None, database=None)
    @given(torus_metrics())
    def test_pencil_properties_random_metrics(self, metric):
        prob = fl.assemble_eigenproblem(metric, fl.TorusGridBasis(n=16, fiber_n=64))
        S = prob.stiffness.toarray()
        scale = np.abs(S).max()
        assert np.abs(S - S.T).max() <= 1e-14 * scale
        assert np.abs(S.sum(axis=1)).max() <= 1e-12 * scale
        w = np.linalg.eigvalsh(-S)
        assert w[0] >= -1e-12 * scale
        # the kernel is the constants alone
        assert w[1] > 1e-6 * scale


    def test_torus_assembly_sorts_transposes_and_converts_nothing(self, monkeypatch):
        # the pattern comes sorted from its cache and the symmetry defect
        # from the stencil's values, so no CSR matrix is sorted, transposed
        # or converted to CSC while a torus pencil is assembled
        import scipy.sparse as sp

        calls = []
        for name in ("sort_indices", "transpose", "tocsc"):
            def counting(self, *args, _name=name, _fn=getattr(sp.csr_matrix, name), **kwargs):
                calls.append(_name)
                return _fn(self, *args, **kwargs)
            monkeypatch.setattr(sp.csr_matrix, name, counting)
        fl.assemble_eigenproblem(fl.kz_torus(0.5), fl.TorusGridBasis(128))
        assert calls == []


class TestSolver:
    def test_jacobi_against_lapack(self, rng):
        n = 40
        A = rng.normal(size=(n, n))
        S = A + A.T
        w_j, V = fl.jacobi_eigh(S)
        w_ref = np.sort(sla.eigh(S, eigvals_only=True))
        assert np.abs(w_j - w_ref).max() < 1e-10
        assert np.abs(V @ np.diag(w_j) @ V.T - S).max() < 1e-9

    def test_dense_vs_lanczos_pencil(self):
        # a position-dependent torus pencil solves by Lanczos; the dense
        # reference is LAPACK on the same pencil
        prob = fl.assemble_eigenproblem(builtin_metrics()["randers-var"],
                                        fl.TorusGridBasis(n=16))
        res_l = fl.solve_eigen(prob, k=6)
        assert res_l.meta["solver"] == "lanczos"
        ref = sla.eigh(-prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True)
        assert np.abs(ref[:6] - res_l.expand()[:6]).max() < 1e-8

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("name", ["randers-var", "riemannian-var"])
    def test_scaled_lanczos_matches_generalized_eigh(self, name, n):
        # Lanczos runs on D(-S)D, D = M^(-1/2); the reference is the pencil
        prob = fl.assemble_eigenproblem(builtin_metrics()[name], fl.TorusGridBasis(n=n))
        res = fl.solve_eigen(prob, k=8)
        assert res.meta["solver"] == "lanczos"
        ref = sla.eigh(-prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True)[:8]
        got = res.expand()
        assert np.abs(got[1:] / ref[1:] - 1.0).max() <= 1e-10
        assert abs(got[0]) <= 1e-10

    def test_dense_mass_solves_dense(self, rng):
        # a dense mass above JACOBI_MAX_DENSE (a large sphere sector) is
        # never handed to the diagonal-mass Lanczos route
        dim = 210
        assert dim > fl.spectral.JACOBI_MAX_DENSE
        A = rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim))
        S = -(A @ A.T)
        M = B @ B.T + dim * np.eye(dim)
        prob = fl.SpectralProblem(basis=fl.SphereHarmonicBasis(lmax=dim, m=0), stiffness=S,
                                  mass=M, metric_tag="hand-built", sym_defect=0.0)
        res = fl.solve_eigen(prob, k=6)
        assert res.meta["solver"] == "dense"
        ref = sla.eigh(-S, M, eigvals_only=True)[:6]
        assert np.abs(res.expand() / ref - 1.0).max() <= 1e-10

    def test_sphere_spectrum_matches_jacobi_oracle(self):
        # each sector pencil reduced with the mass Cholesky factor and
        # diagonalized by cyclic Jacobi, independently of LAPACK's eigh
        eps, lmax, k = 0.3, 12, 20
        values = []
        for m_ in range(lmax + 1):
            prob = fl.assemble_eigenproblem(fl.kz_sphere(eps),
                                            fl.SphereHarmonicBasis(lmax=lmax, m=m_))
            L = np.linalg.cholesky(prob.mass)
            B = np.linalg.solve(L, np.linalg.solve(L, -prob.stiffness).T).T
            w, _ = fl.jacobi_eigh(0.5 * (B + B.T))
            values.extend(w.tolist() * (1 if m_ == 0 else 2))
        oracle = np.sort(values)[:k]
        got = fl.sphere_spectrum(eps, lmax, k).expand()
        assert got.size == k
        assert np.all(np.abs(got - oracle) <= 1e-12 * np.maximum(np.abs(oracle), 1.0))

    def test_flat_torus_spectrum(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        prob = fl.assemble_eigenproblem(m, fl.TorusGridBasis(n=32))
        res = fl.solve_eigen(prob, k=5)
        vals = res.expand()
        assert abs(vals[0]) < 1e-9
        four_pi2 = 4 * math.pi**2
        assert np.abs(vals[1:5] - four_pi2).max() < 0.01 * four_pi2

    def test_kz_torus_converges_to_closed_form(self):
        lam_exact = fl.torus_eigenvalue(0.6, 1, 0)
        errs = []
        for n in (16, 32, 64):
            prob = fl.assemble_eigenproblem(fl.kz_torus(0.6), fl.TorusGridBasis(n=n))
            res = fl.solve_eigen(prob, k=3)
            errs.append(abs(res.expand()[1] - lam_exact))
        assert errs[2] < 0.01 * lam_exact
        rate = math.log2(errs[0] / errs[1])
        assert 1.7 < rate < 2.3

    def test_sphere_lambda1(self):
        prob = fl.assemble_eigenproblem(fl.kz_sphere(0.3),
                                        fl.SphereHarmonicBasis(lmax=10, m=1))
        res = fl.solve_eigen(prob, k=1)
        assert res.eigenvalues[0] == pytest.approx(1.82, abs=1e-8)

    def test_zero_mode_is_constant(self):
        prob = fl.assemble_eigenproblem(fl.kz_torus(0.4), fl.TorusGridBasis(n=16))
        w, V = sla.eigh(-prob.stiffness.toarray(), prob.mass.toarray())
        vec = V[:, 0] / np.linalg.norm(V[:, 0])
        assert abs(w[0]) < 1e-9
        assert np.abs(np.abs(vec) - 1.0 / math.sqrt(len(vec))).max() < 1e-8

    def test_spectrum_nonnegative(self):
        res = fl.sphere_spectrum(0.2, 8, 20)
        assert res.eigenvalues.min() >= -1e-9

    @pytest.mark.parametrize("lmax, k", [(-1, 1), (3, 1), (4, 0), (4, -2), (4, 26)])
    def test_sphere_spectrum_bad_resolution(self, lmax, k):
        with pytest.raises(fl.ConfigError):
            fl.sphere_spectrum(0.3, lmax, k)

    def test_sphere_spectrum_k_up_to_the_union(self):
        # the union over |m| <= lmax has (lmax + 1)^2 values
        assert fl.sphere_spectrum(0.3, 4, 25).expand().size == 25

    def test_galerkin_monotone_in_lmax(self):
        # Rayleigh-Ritz over nested subspaces: eigenvalues non-increasing in lmax
        eps, m_ = 0.4, 0
        prev = None
        for lmax in (6, 8, 10, 12):
            prob = fl.assemble_eigenproblem(fl.kz_sphere(eps),
                                            fl.SphereHarmonicBasis(lmax=lmax, m=m_))
            vals = fl.solve_eigen(prob, k=4).expand()[:4]
            if prev is not None:
                assert np.all(vals <= prev + 1e-10)
            prev = vals

    def test_sphere_plus_minus_m_coincide_and_distinct_m_separate(self):
        eps, lmax = 0.3, 10
        res_p = fl.solve_eigen(fl.assemble_eigenproblem(
            fl.kz_sphere(eps), fl.SphereHarmonicBasis(lmax=lmax, m=2)), k=3)
        res_m = fl.solve_eigen(fl.assemble_eigenproblem(
            fl.kz_sphere(eps), fl.SphereHarmonicBasis(lmax=lmax, m=-2)), k=3)
        assert np.abs(res_p.expand()[:3] - res_m.expand()[:3]).max() < 1e-9
        # at l = 2 the |m| = 0, 1, 2 eigenvalues separate for eps > 0
        lams = []
        for m_ in (0, 1, 2):
            prob = fl.assemble_eigenproblem(fl.kz_sphere(eps),
                                            fl.SphereHarmonicBasis(lmax=lmax, m=m_))
            vals = fl.solve_eigen(prob, k=prob.dim).expand()
            lams.append(vals[2 - m_])
        assert min(abs(lams[0] - lams[1]), abs(lams[1] - lams[2])) > 1e-3

    def test_k_bounds(self):
        prob = fl.assemble_eigenproblem(fl.kz_sphere(0.1),
                                        fl.SphereHarmonicBasis(lmax=8, m=0))
        with pytest.raises(fl.ConfigError):
            fl.solve_eigen(prob, k=100)


def _exhaustive_union(eps, lmax):
    """Every value of every sector |m| <= lmax (|m| > 0 twice), sorted."""
    values = []
    for m_ in range(lmax + 1):
        prob = fl.assemble_eigenproblem(fl.kz_sphere(eps), fl.SphereHarmonicBasis(lmax=lmax, m=m_))
        values.extend(fl.solve_eigen(prob, k=prob.dim).expand().tolist() * (1 if m_ == 0 else 2))
    return np.sort(values)


class TestSphereStoppingRule:
    """sphere_spectrum stops before sector m once m^2 c_min exceeds the
    k-th value found, c_min the least c_theta2 at the quadrature nodes."""

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.6, 0.9, 0.99])
    def test_equals_exhaustive_union_to_the_bit(self, eps):
        unions = {}
        for lmax, k in [(40, 6), (10, 6), (12, 20), (4, 25), (40, 200), (8, 81)]:
            if lmax not in unions:
                unions[lmax] = _exhaustive_union(eps, lmax)
            ref = fl.SpectrumResult.from_values(unions[lmax][:k])
            got = fl.sphere_spectrum(eps, lmax, k)
            assert np.array_equal(got.eigenvalues, ref.eigenvalues), (lmax, k)
            assert np.array_equal(got.multiplicities, ref.multiplicities), (lmax, k)

    @pytest.mark.parametrize("lmax", [10, 20, 40])
    @pytest.mark.parametrize("eps", [0.0, 0.6, 0.9])
    def test_every_sector_lies_above_its_floor(self, lmax, eps):
        floor = katok_ziller._sector_floor(eps, lmax)
        assert floor > 0.0
        for m_ in range(lmax + 1):
            prob = fl.assemble_eigenproblem(fl.kz_sphere(eps), fl.SphereHarmonicBasis(lmax, m_))
            lowest = fl.solve_eigen(prob, k=1).eigenvalues[0]
            assert lowest >= m_ * m_ * floor * (1.0 - 1e-12), m_

    @pytest.mark.parametrize("eps, lmax, k, sectors", [
        (0.3, 40, 6, 3), (0.3, 10, 121, 11), (0.9, 40, 1681, 41)])
    def test_sectors_assembled(self, monkeypatch, eps, lmax, k, sectors):
        calls = []

        def counting(*args):
            calls.append(args[1])
            return build(*args)

        build = spectral.galerkin_matrices
        monkeypatch.setattr(spectral, "galerkin_matrices", counting)
        res = fl.sphere_spectrum(eps, lmax, k)
        assert calls == list(range(sectors))
        assert res.meta["sectors"] == sectors


def translation_invariant_metrics():
    """Torus metrics equal at every point, as the CLI builds them."""
    flat = fl.riemannian(np.array([[1.0, 0.3], [0.3, 0.8]]), chart=fl.TORUS)
    return {
        "kz-torus-0": fl.kz_torus(0.0),
        "kz-torus-03": fl.kz_torus(0.3),
        "kz-torus-06": fl.kz_torus(0.6),
        "flat-conformal": fl.scale_conformal(flat, fl.ConstantField(0.7)),
        "randers-const": fl.RandersMetric(np.eye(2), np.array([0.2, -0.3]), chart=fl.TORUS),
    }


def assert_same_spectrum(res, ref, tol=1e-10):
    assert np.array_equal(res.multiplicities, ref.multiplicities)
    scale = np.maximum(1.0, np.abs(ref.eigenvalues))
    assert np.all(np.abs(res.eigenvalues - ref.eigenvalues) <= tol * scale)


class TestFourierRoute:
    """Translation-invariant torus pencils solve by the 2-D DFT of their stencil."""

    @pytest.mark.parametrize("name", sorted(translation_invariant_metrics()))
    def test_matches_dense_for_every_value(self, name):
        prob = fl.assemble_eigenproblem(translation_invariant_metrics()[name],
                                        fl.TorusGridBasis(n=16))
        assert prob.translation_invariant
        res = fl.solve_eigen(prob, k=prob.dim)
        assert res.meta["solver"] == "fourier"
        assert res.expand().size == prob.dim
        ref = sla.eigh(-prob.stiffness.toarray(), prob.mass.toarray(), eigvals_only=True)
        assert_same_spectrum(res, fl.SpectrumResult.from_values(ref))

    @pytest.mark.parametrize("name", sorted(translation_invariant_metrics()))
    def test_matches_lanczos(self, name):
        prob = fl.assemble_eigenproblem(translation_invariant_metrics()[name],
                                        fl.TorusGridBasis(n=64))
        res = fl.solve_eigen(prob, k=12)
        assert res.meta["solver"] == "fourier"
        # shift-invert Lanczos on the same pencil, as solve_eigen runs it
        v0 = np.full(prob.dim, 1.0 / math.sqrt(prob.dim))
        ref = spla.eigsh(-prob.stiffness, k=12, M=prob.mass, sigma=-1.0, which="LM", v0=v0,
                         return_eigenvectors=False)
        assert_same_spectrum(res, fl.SpectrumResult.from_values(ref))
        for key in ("sym_defect", "zero_mode_residual"):
            assert res.meta[key] == getattr(prob, key)

    def test_variable_metric_keeps_lanczos(self):
        prob = fl.assemble_eigenproblem(builtin_metrics()["randers-var"],
                                        fl.TorusGridBasis(n=16))
        assert not prob.translation_invariant
        res = fl.solve_eigen(prob, k=4)
        assert res.meta["solver"] == "lanczos"
        assert "zero_mode_residual" in res.meta and "sym_defect" in res.meta

    def test_sphere_sector_keeps_dense(self):
        prob = fl.assemble_eigenproblem(fl.kz_sphere(0.3), fl.SphereHarmonicBasis(lmax=8, m=1))
        assert not prob.translation_invariant
        res = fl.solve_eigen(prob, k=3)
        assert res.meta["solver"] == "dense"
        assert "sym_defect" in res.meta and "zero_mode_residual" not in res.meta


def uniform_metrics():
    """:func:`translation_invariant_metrics` and a constant metric given as
    a callable, equal at every node without being position-independent."""
    G = np.array([[1.2, -0.25], [-0.25, 0.7]])
    return {**translation_invariant_metrics(),
            "riemannian-callable": fl.riemannian(lambda p: G, chart=fl.TORUS)}


class TestOneNodeStencil:
    """A uniform grid's pencil comes from the stencil of one node, with the
    floats of the full-grid stencil."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a, dtype=float).view(np.int64)

    @pytest.mark.parametrize("n", [16, 128])
    @pytest.mark.parametrize("name", sorted(uniform_metrics()))
    def test_same_floats_as_full_grid(self, name, n):
        metric = uniform_metrics()[name]
        prob = fl.assemble_eigenproblem(metric, fl.TorusGridBasis(n=n))
        assert prob.translation_invariant
        sigma, rho, fiber_defect = measures._fiber_densities(
            metric, fl.torus_base(n).points, measures.DEFAULT_FIBER_N)
        sigma, rho = laplace._on_grid(n, sigma, rho)
        S, M = laplace.conservative_pencil(sigma, rho)
        for got, ref in ((prob.stiffness, S), (prob.mass, M)):
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(self._bits(got.data), self._bits(ref.data))
        defect = laplace._stencil_defect(laplace._conservative_stencil(sigma, rho))
        assert self._bits(prob.sym_defect) == self._bits(defect)
        zero_mode = np.abs(S @ np.ones(S.shape[0])).max() / np.abs(S.data).max()
        assert self._bits(prob.zero_mode_residual) == self._bits(zero_mode)
        assert prob.fiber_defect == fiber_defect

    @pytest.mark.parametrize("name, shape", [("kz-torus-03", (1, 1)), ("randers-var", (32, 32))])
    def test_stencil_grid_shape(self, monkeypatch, name, shape):
        metric = {**builtin_metrics(), **uniform_metrics()}[name]
        shapes = []

        def counting(sigma, rho):
            shapes.append((sigma.shape, rho.shape))
            return original(sigma, rho)

        original = spectral._conservative_stencil
        monkeypatch.setattr(spectral, "_conservative_stencil", counting)
        fl.assemble_eigenproblem(metric, fl.TorusGridBasis(n=32))
        assert shapes == [(shape + (2, 2), shape)]

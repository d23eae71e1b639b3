import collections
import copy
import logging
import math
import re

import numpy as np
import pytest

import finlap as fl
import finlap.measures as measures
import finlap.metrics as metrics
from finlap.laplace import symbol_density
from conftest import builtin_metrics, count_calls, random_point


class TestFiberQuadrature:
    def test_flat_weights_uniform(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        q = fl.fiber_quadrature(m, fl.torus_point(0.2, 0.2), 64)
        assert np.allclose(q.weights, 2 * math.pi / 64, atol=1e-12)

    def test_normalization_exact(self, rng):
        for name, m in builtin_metrics().items():
            q = fl.fiber_quadrature(m, random_point(m, rng), 128)
            assert abs(q.weights.sum() - 2 * math.pi) < 1e-12, name
            assert q.integrate(np.ones(128)) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_minimum_node_count(self):
        with pytest.raises(fl.ConfigError):
            fl.fiber_quadrature(fl.kz_torus(0.1), fl.torus_point(0, 0), 8)

    def test_kz_torus_angle_form_integrals(self):
        # the angle form in deformation coordinates is (1 - eps cos t) dt;
        # integrals of pulled-back test functions must agree.
        eps = 0.6
        m = fl.kz_torus(eps)
        q = fl.fiber_quadrature(m, fl.torus_point(0.5, 0.5), 512)
        vs = fl.indicatrix_point(m, q.base, q.nodes)
        # recover t from the indicatrix: cos t = dvF_x (1-e^2) + e
        dv = fl.vertical_derivative(m, q.base, vs)
        cos_t = dv[:, 0] * (1 - eps**2) + eps
        got = q.integrate(cos_t)
        exact = -math.pi * eps  # int cos t (1 - eps cos t) dt
        assert got == pytest.approx(exact, abs=1e-9)

    def test_invariants_validated(self):
        with pytest.raises(fl.DomainError):
            fl.FiberQuadrature(base=fl.torus_point(0, 0),
                               nodes=np.array([0.0, 1.0]),
                               weights=np.array([1.0, 1.0]), volume=1.0)


class TestVolumeDensity:
    def test_flat(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        assert fl.volume_density(m, fl.torus_point(0, 0)) == pytest.approx(1.0, abs=1e-10)

    def test_kz_torus_value(self):
        got = fl.volume_density(fl.kz_torus(0.6), fl.torus_point(0.4, 0.4))
        assert got == pytest.approx((1 - 0.36) ** -1.5, abs=1e-9)
        assert got == pytest.approx(1.953125, abs=1e-9)

    def test_kz_sphere_total_volume(self):
        eps = 0.3
        total = fl.sphere_total_volume(fl.kz_sphere(eps), n_phi=64, n_theta=2)
        assert total == pytest.approx(4 * math.pi / (1 - eps**2), rel=1e-8)
        assert total == pytest.approx(13.80919, abs=1e-4)

    def test_randers_volume_is_riemannian(self, rng):
        # independent of theta
        g = np.array([[1.5, -0.2], [-0.2, 0.8]])
        for nrm in (0.0, 0.3, 0.7):
            m = fl.RandersMetric(g, np.array([nrm, 0.1 * nrm]))
            x = random_point(m, rng)
            assert abs(fl.volume_density(m, x) - math.sqrt(np.linalg.det(g))) < 1e-6

    def test_conformal_scaling(self, rng):
        m = fl.kz_torus(0.4)
        f = fl.SeparableTrigField(0.2, "sin", 1, "cos", 1)
        scaled = fl.scale_conformal(m, f)
        for _ in range(5):
            x = random_point(m, rng)
            lhs = fl.volume_density(scaled, x)
            rhs = math.exp(2 * f(x)) * fl.volume_density(m, x)
            assert abs(lhs - rhs) < 1e-6 * rhs

    def test_quadrature_convergence(self, rng):
        for name, m in builtin_metrics().items():
            x = random_point(m, rng)
            v128 = fl.volume_density(m, x, n=128)
            v256 = fl.volume_density(m, x, n=256)
            assert abs(v256 - v128) < 1e-8, name


# outermost phi node of the 96-point Gauss-Legendre rule of sphere_total_volume
OUTER_PHI = 0.5 * math.pi * (np.polynomial.legendre.leggauss(96)[0][0] + 1.0)


class TestAdaptiveQuadrature:
    @pytest.mark.parametrize("phi", [OUTER_PHI, 0.01, math.pi / 2])
    def test_equals_fixed_rule_at_converged_n(self, phi):
        m = fl.kz_sphere(0.3)
        x = fl.sphere_point(phi, 0.0)
        q = fl.fiber_quadrature_adaptive(m, x)
        n = len(q.nodes)
        ref = fl.fiber_quadrature(m, x, n)
        assert np.all(q.nodes == ref.nodes)
        assert np.all(q.weights == ref.weights)
        assert q.volume == ref.volume
        assert fl.volume_density_adaptive(m, x) == fl.volume_density(m, x, n) == ref.volume

    @pytest.mark.parametrize("phi", [OUTER_PHI, 0.01, math.pi / 2])
    def test_one_fiber_rule_per_doubling(self, phi, monkeypatch):
        m = fl.kz_sphere(0.3)
        x = fl.sphere_point(phi, 0.0)
        sizes = []
        original = measures._fiber_rule

        def counting(metric, x, n):
            sizes.append(n)
            return original(metric, x, n)

        monkeypatch.setattr(measures, "_fiber_rule", counting)
        n = len(fl.fiber_quadrature_adaptive(m, x).nodes)
        expected = [measures.DEFAULT_FIBER_N << k
                    for k in range(int(math.log2(n // measures.DEFAULT_FIBER_N)) + 1)]
        assert sizes == expected and len(sizes) >= 2
        sizes.clear()
        fl.volume_density_adaptive(m, x)
        assert sizes == expected

    def test_cap_is_logged(self, caplog, monkeypatch):
        # a tolerance of 0 never converges, so the doubling stops at the cap
        cap = 2 * measures.DEFAULT_FIBER_N
        monkeypatch.setattr(measures, "ADAPTIVE_RTOL", 0.0)
        monkeypatch.setattr(measures, "ADAPTIVE_MAX_N", cap)
        m = fl.kz_sphere(0.3)
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            fl.volume_density_adaptive(m, fl.sphere_point(OUTER_PHI, 0.0))
        (record,) = [r for r in caplog.records if r.name == "finlap.measures"]
        msg = record.getMessage()
        assert f"{OUTER_PHI:.6g}" in msg and f"{cap} nodes" in msg

    def test_converged_fiber_not_logged(self, caplog):
        # the frame-angle rule converges at the outermost Gauss node too
        m = fl.kz_sphere(0.3)
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            for phi in (OUTER_PHI, math.pi / 2):
                fl.volume_density_adaptive(m, fl.sphere_point(phi, 0.0))
        assert not [r for r in caplog.records if r.name == "finlap.measures"]


def _kz_sphere_density(eps, phi):
    """Closed-form volume density (1 - E)^(-3/2) sin(phi), E = eps^2 sin^2 phi."""
    return (1.0 - (eps * math.sin(phi)) ** 2) ** -1.5 * math.sin(phi)


def _identity_frame_trapezoid(metric, x, n):
    """Reference: nodes, weights and volume of the n-node trapezoid in the
    chart angle, with the contact density f (f + f'') of f = F(x, e(phi))."""
    nodes = 2.0 * np.pi * np.arange(n) / n
    f = metric.f(x, np.stack([np.cos(nodes), np.sin(nodes)], -1))
    k = np.arange(n // 2 + 1)
    lam = np.abs(f * (f + np.fft.irfft(-k * k * np.fft.rfft(f), n)))
    return nodes, 2.0 * np.pi * lam / lam.sum(), float(lam.mean())


class TestFrameRule:
    @pytest.mark.parametrize("phi", [OUTER_PHI, 0.01, 0.3, math.pi / 2])
    def test_sixteen_nodes_match_closed_form(self, phi):
        eps = 0.3
        q = fl.fiber_quadrature(fl.kz_sphere(eps), fl.sphere_point(phi, 0.7), 16)
        assert abs(q.volume / _kz_sphere_density(eps, phi) - 1.0) <= 1e-9

    def test_nodes_are_chart_angles(self):
        # the node of frame angle psi is the chart angle of (cos psi, sin psi / sin phi)
        m = fl.kz_sphere(0.3)
        x = fl.sphere_point(0.01, 0.0)
        q = fl.fiber_quadrature(m, x, 16)
        psis = 2.0 * np.pi * np.arange(16) / 16
        rays = np.stack([np.cos(psis), np.sin(psis) / math.sin(x.u)], -1)
        expected = rays / m.f(x, rays)[:, None]
        got = fl.indicatrix_point(m, x, q.nodes)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
    def test_sphere_total_volume_closed_form(self, eps, caplog):
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            total = fl.sphere_total_volume(fl.kz_sphere(eps), 96, 2)
        assert abs(total / (8.0 * math.pi / (2.0 - 2.0 * eps**2)) - 1.0) <= 1e-13
        # no warning and no other record: only the walk's, over one meridian
        assert [r.getMessage() for r in caplog.records if r.name == "finlap.measures"] == [
            "base walk evaluates 96 of 192 points, dropping v"]

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
    def test_sphere_total_volume_closed_form_at_32_nodes(self, eps):
        base = fl.sphere_base(96, 2)
        total = base.weights @ measures.volume_densities(fl.kz_sphere(eps), base.points, 32)
        assert abs(total / (8.0 * math.pi / (2.0 - 2.0 * eps**2)) - 1.0) <= 1e-13

    def test_sphere_total_volume_angle_count(self, monkeypatch):
        m = fl.kz_sphere(0.3)
        calls = count_calls(monkeypatch, m)
        fl.sphere_total_volume(m, 96, 2)
        assert sum(calls["f"]) <= 96 * 2 * measures.DEFAULT_FIBER_N
        assert calls["d_vf"] == calls["indicatrix_point"] == []

    def test_sphere_block_equals_points(self):
        from finlap.laplace import symbol_densities

        m = fl.kz_sphere(0.3)
        xs = [fl.sphere_point(p, t) for p in (OUTER_PHI, 0.3, 2.9) for t in (0.0, 2.0)]
        vols = measures.volume_densities(m, xs, 64)
        sigmas, rhos = symbol_densities(m, xs, 64)
        for i, x in enumerate(xs):
            q = fl.fiber_quadrature(m, x, 64)
            assert vols[i] == q.volume == fl.volume_density(m, x, 64) == rhos[i]
            sigma, rho = symbol_density(m, x, 64)
            assert np.array_equal(sigma, sigmas[i]) and rho == q.volume

    def test_identity_frame_unchanged(self):
        metrics = {name: m for name, m in builtin_metrics().items() if m.chart != fl.SPHERE}
        metrics["plane"] = fl.riemannian(np.array([[1.2, 0.3], [0.3, 0.8]]), chart=fl.PLANE)
        for name, m in metrics.items():
            xs = [fl.ChartPoint(m.chart, 0.1, 0.7), fl.ChartPoint(m.chart, 0.6, 0.2)]
            vols = measures.volume_densities(m, xs, 32)
            for i, x in enumerate(xs):
                ref_nodes, ref_weights, ref_vol = _identity_frame_trapezoid(m, x, 32)
                q = fl.fiber_quadrature(m, x, 32)
                assert np.array_equal(q.nodes, ref_nodes), name
                assert np.array_equal(q.weights, ref_weights), name
                assert q.volume == ref_vol == fl.volume_density(m, x, 32), name
                assert vols[i] == ref_vol, name


class TestBaseQuadrature:
    """Base quadratures reject sizes that hold no point, with ConfigError."""

    def test_sphere_base_built_once_read_only(self):
        base = fl.sphere_base(6, 3)
        assert fl.sphere_base(6, 3) is base
        assert not base.weights.flags.writeable
        with pytest.raises(ValueError):
            base.weights[0] = 1.0
        fl.sphere_base(4, 2)
        with pytest.raises(fl.ConfigError):
            fl.sphere_base(4, 2.0)

    @pytest.mark.parametrize("call", [
        lambda: fl.torus_base(0),
        lambda: fl.sphere_base(0, 4),
        lambda: fl.sphere_base(4, 0),
        lambda: fl.sphere_total_volume(fl.kz_sphere(0.3), 0, 2),
        lambda: fl.sphere_total_volume(fl.kz_sphere(0.3), 4, 0),
    ], ids=["torus-0", "sphere-0-4", "sphere-4-0", "volume-0-2", "volume-4-0"])
    def test_empty_base_is_config_error(self, call):
        with pytest.raises(fl.ConfigError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: fl.volume_density(fl.kz_torus(0.5), fl.torus_point(0.2, 0.4), n=64.5),
        lambda: measures.volume_densities(builtin_metrics()["randers-var"],
                                          fl.torus_base(4).points, 64.5),
        lambda: fl.assemble_eigenproblem(builtin_metrics()["randers-var"],
                                         fl.TorusGridBasis(n=16, fiber_n=64.5)),
        lambda: fl.assemble_eigenproblem(fl.kz_torus(0.5), fl.TorusGridBasis(n=32.5)),
        lambda: fl.torus_base(True),
        lambda: fl.sphere_total_volume(fl.kz_sphere(0.3), n_phi=8.5),
        lambda: fl.sphere_base(4, 2.0),
        lambda: fl.solve_eigen(fl.assemble_eigenproblem(
            fl.kz_torus(0.5), fl.TorusGridBasis(n=16)), k=2.5),
        lambda: fl.solve_eigen(fl.assemble_eigenproblem(
            fl.kz_torus(0.5), fl.TorusGridBasis(n=16)), k=True),
        lambda: fl.torus_spectrum(0.3, 2.5, 2),
        lambda: fl.torus_spectrum(0.3, True, 2),
        lambda: fl.torus_spectrum(0.3, 2, -1),
    ], ids=["volume-density", "volume-densities", "grid-fiber-n", "grid-n", "torus-bool",
            "sphere-volume", "sphere-theta", "solve-k", "solve-k-bool",
            "closed-form-pmax", "closed-form-pmax-bool", "closed-form-qmax-negative"])
    def test_non_integer_count_is_config_error(self, call):
        # a fiber or grid count is never truncated or rounded
        with pytest.raises(fl.ConfigError, match="must be an integer of at least"):
            call()

    def test_points_and_weights_must_match(self):
        points = fl.torus_base(2).points
        with pytest.raises(fl.ConfigError):
            fl.BaseQuadrature(points=(), weights=np.array([]))
        with pytest.raises(fl.ConfigError):
            fl.BaseQuadrature(points=points, weights=np.ones(3))

    def test_torus_points_row_major(self):
        n = 5
        points = fl.torus_base(n).points
        expected = [fl.ChartPoint(fl.TORUS, i / n, j / n) for i in range(n) for j in range(n)]
        assert len(points) == n * n
        assert list(points) == expected
        assert points[-1] == expected[-1]
        assert points[3:17:2] == tuple(expected[3:17:2])
        with pytest.raises(IndexError):
            points[n * n]

    def test_sphere_weights_total_area(self):
        base = fl.sphere_base(12, 5)
        assert len(base.points) == 60
        assert base.weights.sum() == pytest.approx(2.0 * math.pi**2, rel=1e-14)

    def test_sphere_nodes_from_the_shared_gauss_rule(self):
        # the cached rule is read-only and equals leggauss bit for bit
        t, w = measures._gauss_legendre(96)
        assert not t.flags.writeable and not w.flags.writeable
        t_ref, w_ref = np.polynomial.legendre.leggauss(96)
        np.testing.assert_array_equal(t, t_ref)
        np.testing.assert_array_equal(w, w_ref)
        base = fl.sphere_base(96, 2)
        np.testing.assert_array_equal([p.u for p in base.points[::2]],
                                      0.5 * math.pi * (t_ref + 1.0))
        np.testing.assert_array_equal(base.weights[::2], 0.5 * math.pi * w_ref * math.pi)


    def test_sphere_points_carry_their_coordinates(self):
        base = fl.sphere_base(7, 3)
        assert not base.points.coords.flags.writeable
        assert np.array_equal(base.points.coords, [(p.u, p.v) for p in base.points])
        assert base.points[4:9] == tuple(list(base.points)[4:9])
        # the array form reads the coords array; a list of the same points
        # is read point by point, to the same floats
        u = fl.SphereHarmonicField(3, 2)
        for method in ("values", "gradients", "hessians"):
            assert np.array_equal(getattr(u, method)(base.points),
                                  getattr(u, method)(list(base.points)))


def _full_walk(metric):
    """The metric with its declaration withdrawn: the walk evaluates every
    base point."""
    full = copy.copy(metric)
    full.invariant_coords = frozenset()
    return full


def _walk_records(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "finlap.measures" and r.getMessage().startswith("base walk")]


def _walk_outputs(metric, n_phi, n_theta):
    """Every walk over a sphere base that the issue of a declaration can
    change: densities, coefficients, energy and the total volume."""
    base = fl.sphere_base(n_phi, n_theta)
    coarse = fl.sphere_base(6, n_theta)
    u = fl.SphereHarmonicField(2, 1)
    return {"volume_densities": measures.volume_densities(metric, base.points),
            "symbol_densities": fl.laplace.symbol_densities(metric, base.points),
            "coefficients_at": fl.laplace.coefficients_at(metric, coarse.points),
            "energy": fl.energy(metric, u, base),
            "sphere_total_volume": fl.sphere_total_volume(metric, n_phi, n_theta)}


def _assert_same_floats(got, want):
    assert got.keys() == want.keys()
    for key in got:
        pairs = zip(got[key], want[key]) if isinstance(got[key], tuple) else [(got[key], want[key])]
        for a, b in pairs:
            assert np.array_equal(a, b), key


class TestLineWalk:
    """A metric that declares a coordinate invariant is walked one point
    per line of the other, to the floats of the walk over every point."""

    @pytest.mark.parametrize("n_theta", [1, 2, 16])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.6, 0.9])
    def test_kz_sphere_equals_the_full_walk(self, eps, n_theta, caplog):
        m = fl.kz_sphere(eps)
        assert m.invariant_coords == {"v"} and not m.position_independent
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            got = _walk_outputs(m, 24, n_theta)
        assert set(_walk_records(caplog)) == {
            f"base walk evaluates 24 of {24 * n_theta} points, dropping v",
            f"base walk evaluates 6 of {6 * n_theta} points, dropping v"}
        _assert_same_floats(got, _walk_outputs(_full_walk(m), 24, n_theta))

    @pytest.mark.parametrize("make", [
        lambda: fl.RandersMetric(np.array([[1.2, 0.1], [0.1, 0.9]]), [0.3, -0.2],
                                 chart=fl.SPHERE),
        lambda: fl.scale_conformal(fl.kz_sphere(0.3), fl.ConstantField(0.2)),
    ], ids=["constant-randers", "kz-sphere-constant-factor"])
    def test_other_declared_sphere_metrics(self, make, caplog):
        # a constant tensor declares both coordinates, but the sphere frame
        # depends on phi: only theta is dropped
        m = make()
        assert "v" in m.invariant_coords and not m.position_independent
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            got = _walk_outputs(m, 12, 4)
        assert set(_walk_records(caplog)) == {"base walk evaluates 12 of 48 points, dropping v",
                                              "base walk evaluates 6 of 24 points, dropping v"}
        _assert_same_floats(got, _walk_outputs(_full_walk(m), 12, 4))

    def test_unsorted_points_with_repeated_lines(self, caplog):
        m = fl.kz_sphere(0.6)
        base = fl.sphere_base(10, 3)
        pick = np.random.default_rng(5).integers(0, len(base.points), 40)
        points = [base.points[k] for k in pick]
        lines = len({p.u for p in points})
        assert lines < len(points)
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            got = fl.laplace.symbol_densities(m, points)
        assert _walk_records(caplog) == [f"base walk evaluates {lines} of 40 points, dropping v"]
        for a, b in zip(got, fl.laplace.symbol_densities(_full_walk(m), points)):
            assert np.array_equal(a, b)

    def test_position_independent_walk_reads_one_point(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            measures.volume_densities(fl.kz_torus(0.3), fl.torus_base(8).points)
        assert _walk_records(caplog) == ["base walk evaluates 1 of 64 points, dropping u, v"]

    @pytest.mark.parametrize("make", [
        lambda: fl.custom(lambda x, vs: np.sqrt(vs[..., 0] ** 2
                                                + (math.sin(x.u) * vs[..., 1]) ** 2),
                          chart=fl.SPHERE),
        lambda: fl.RandersMetric(lambda x: np.diag([1.0, math.sin(x.u) ** 2]), [0.2, 0.0],
                                 chart=fl.SPHERE),
        lambda: fl.scale_conformal(fl.kz_sphere(0.3), fl.SphereHarmonicField(2, 0)),
    ], ids=["custom", "randers-callable-g", "kz-sphere-harmonic-factor"])
    def test_nothing_is_inferred(self, make, monkeypatch, caplog):
        # each F ignores theta, but none declares it: every point is walked
        m = make()
        assert m.invariant_coords == frozenset()
        calls = count_calls(monkeypatch, m)
        points = fl.sphere_base(8, 4).points
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            measures.volume_densities(m, points)
        assert sum(calls["f"]) == 32 * measures.DEFAULT_FIBER_N
        assert _walk_records(caplog) == ["base walk evaluates 32 of 32 points, "
                                         "dropping no coordinate"]

    def test_degenerate_contact_names_the_full_walks_point(self, caplog):
        # NaN from phi 2 on: the first refused point in the given order is
        # (2.5, 1.0), though the line of phi 2.2 sorts first
        m = fl.custom(lambda x, vs: np.hypot(vs[..., 0], math.sin(x.u) * vs[..., 1])
                      * (math.nan if x.u >= 2.0 else 1.0), chart=fl.SPHERE)
        m.invariant_coords = frozenset({"v"})      # declared by hand: F ignores theta
        points = [fl.sphere_point(*uv) for uv in [(1.0, 0.5), (2.5, 1.0), (2.2, 3.0),
                                                  (2.5, 0.2), (1.0, 4.0)]]
        messages = []
        for metric, walked in ((m, 3), (_full_walk(m), 5)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="finlap.measures"), \
                    pytest.raises(fl.DegenerateContactError, match=r"at \(2.5, 1.0\)$") as err:
                measures.volume_densities(metric, points)
            messages.append(str(err.value))
            assert _walk_records(caplog) == [f"base walk evaluates {walked} of 5 points, "
                                             f"dropping {'v' if walked == 3 else 'no coordinate'}"]
        assert messages[0] == messages[1]

    def test_half_rule_warning_names_the_full_walks_point(self, caplog):
        points = fl.sphere_base(24, 4).points
        warnings = []
        for m in (fl.kz_sphere(0.95), _full_walk(fl.kz_sphere(0.95))):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="finlap.measures"):
                measures.volume_densities(m, points, 16)
            warnings.append([r.getMessage() for r in caplog.records
                             if r.levelno == logging.WARNING])
        assert len(warnings[0]) == 1 and "half-rule defect" in warnings[0][0]
        assert warnings[0] == warnings[1]


_EMPTY_BLOCK_CALLS = {
    "dual_norm": lambda m: fl.dual_norm(m, [], np.zeros((0, 2))),
    "dual_norm_sampled": lambda m: fl.dual_norm_sampled(m, [], np.zeros((0, 2))),
    "holmes_thompson_density": lambda m: fl.holmes_thompson_density(m, []),
    "volume_densities": lambda m: measures.volume_densities(m, []),
    "vertical_derivative": lambda m: fl.vertical_derivative(m, [], np.zeros((0, 4, 2))),
    "density_profile": lambda m: fl.hilbert.density_profile(m, [], [0.0, 1.0]),
    "reeb_profile": lambda m: fl.reeb_profile(m, [], [0.0, 1.0]),
    "indicatrix_point": lambda m: fl.indicatrix_point(m, [], [0.0, 1.0]),
    "coefficients_at": lambda m: fl.laplace.coefficients_at(m, []),
    "symbol_densities": lambda m: fl.laplace.symbol_densities(m, []),
}


@pytest.mark.parametrize("name", ["kz-torus-06", "randers-var", "kz-sphere-03",
                                  "custom-quartic"])
@pytest.mark.parametrize("entry", sorted(_EMPTY_BLOCK_CALLS))
def test_empty_block_is_config_error(entry, name):
    """A block of no base points is refused where it is first read, as an
    empty base is, whether the metric is position-independent or not."""
    with pytest.raises(fl.ConfigError, match="at least one point"):
        _EMPTY_BLOCK_CALLS[entry](builtin_metrics()[name])


def _boxy_right_half(x, vs):
    """Euclidean on u < 0.5; a nearly flat unit ball, whose contact
    density vanishes at the chart angle 0, on u >= 0.5."""
    k = 2.0 if x.u < 0.5 else 16.0
    return (np.abs(vs[..., 0]) ** k + np.abs(vs[..., 1]) ** k) ** (1.0 / k)


class TestDensityFloorScale:
    """A constant conformal factor exp(f) scales every contact density by
    exp(2f), and the floor with it: it never changes which points are
    refused."""

    X = fl.torus_point(0.2, 0.3)
    PSIS = [0.0, 1.0, 2.5, 4.0]

    @pytest.mark.parametrize("f", [-14.0, -20.0, -300.0])
    def test_scaled_density_is_exp_2f_times(self, f):
        m = fl.kz_torus(0.3)
        scaled = fl.scale_conformal(m, fl.ConstantField(f))
        factor = math.exp(2.0 * f)
        assert fl.volume_density(scaled, self.X) == pytest.approx(
            factor * fl.volume_density(m, self.X), rel=1e-12, abs=0.0)
        # the jet routes difference d_vF in the angle, which magnifies the
        # rounding of exp(f) d_vF by about 1 / jet step
        for route in (fl.hilbert.density_profile, lambda *a: fl.reeb_profile(*a)[2]):
            np.testing.assert_allclose(route(scaled, self.X, self.PSIS),
                                       factor * route(m, self.X, self.PSIS), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("f", [-14.0, 0.0, 14.0])
    def test_factor_keeps_the_refused_points(self, f):
        m = fl.scale_conformal(fl.custom(_boxy_right_half, chart=fl.TORUS), fl.ConstantField(f))
        good, bad = fl.torus_point(0.2, 0.1), fl.torus_point(0.7, 0.3)
        fl.reeb_profile(m, good, [0.0])
        for call in (lambda m, x: fl.reeb_profile(m, x, [0.0]),
                     lambda m, x: fl.hilbert.density_profile(m, x, [0.0])):
            with pytest.raises(fl.DegenerateContactError, match=r"at \(0.7, 0.3\)$"):
                call(m, bad)

    def test_underflowed_density_is_refused(self):
        # exp(f) is a normal float, the density exp(2f) |...| underflows to 0
        m = fl.scale_conformal(fl.kz_torus(0.3), fl.ConstantField(-400.0))
        for call in (fl.volume_density, lambda m, x: fl.hilbert.density_profile(m, x, [0.0])):
            with pytest.raises(fl.DegenerateContactError, match=r"at \(0.2, 0.3\)$"):
                call(m, self.X)

    @pytest.mark.parametrize("make, density, floor", [
        (lambda: fl.scale_conformal(fl.kz_torus(0.3), fl.ConstantField(-400.0)),
         "0.000e+00", "2.225e-308"),                # underflowed, least normal floor
        (lambda: fl.riemannian(1e-14 * np.eye(2)), "1.000e-14", "1.000e-12"),
    ], ids=["f=-400", "riemannian-1e-14"])
    def test_message_names_density_and_floor(self, make, density, floor):
        m = make()
        message = re.escape(f"contact density |s| = {density} is not at least the floor "
                            f"{floor} at (0.2, 0.3)")
        for call in (fl.volume_density,
                     lambda m, x: fl.hilbert.density_profile(m, x, self.PSIS),
                     lambda m, x: fl.reeb_profile(m, [x, fl.torus_point(0.5, 0.5)], [0.0])):
            with pytest.raises(fl.DegenerateContactError, match=f"^{message}$"):
                call(m, self.X)

    def test_message_names_the_refused_entry_of_a_block(self):
        # the first refused point is the block's second; its first refused
        # angle is 0, where the flat side of the unit ball lies
        m = fl.scale_conformal(fl.custom(_boxy_right_half, chart=fl.TORUS),
                               fl.ConstantField(-14.0))
        with pytest.raises(fl.DegenerateContactError,
                           match=r"is not at least the floor 6\.914e-25 at \(0\.7, 0\.3\)$"):
            fl.hilbert.density_profile(m, [self.X, fl.torus_point(0.7, 0.3)], [1.0, 0.0])


def _nan_right_half(x, vs):
    """The Euclidean norm on u < 0.5 and NaN on u >= 0.5."""
    r = np.hypot(vs[..., 0], vs[..., 1])
    return np.full_like(r, np.nan) if x.u >= 0.5 else r


_GOOD, _NAN = fl.torus_point(0.2, 0.1), fl.torus_point(0.7, 0.2)
_NAN_DENSITY_CALLS = {
    "reeb_profile": lambda m: fl.reeb_profile(m, _NAN, [0.0, 1.0]),
    "reeb_profile-block": lambda m: fl.reeb_profile(m, [_GOOD, _NAN], [0.0, 1.0]),
    "contact_orientation": lambda m: fl.contact_orientation(m, fl.FiberPoint(_NAN, 0.3)),
    "hilbert_density": lambda m: fl.hilbert_density(m, fl.FiberPoint(_NAN, 0.3)),
    "volume_density": lambda m: fl.volume_density(m, _NAN),
    "volume_densities": lambda m: measures.volume_densities(m, [_GOOD, _NAN]),
    "symbol_density": lambda m: symbol_density(m, _NAN),
    "symbol_densities": lambda m: fl.laplace.symbol_densities(m, [_GOOD, _NAN]),
    "fiber_quadrature": lambda m: fl.fiber_quadrature(m, _NAN),
    "coefficients_at": lambda m: fl.laplace.coefficients_at(m, [_GOOD, _NAN]),
}


@pytest.mark.parametrize("entry", sorted(_NAN_DENSITY_CALLS))
def test_nan_contact_density_names_the_point(entry):
    """A contact density that is not a number is degenerate: it raises,
    naming its point, rather than reaching a result as NaN."""
    m = fl.custom(_nan_right_half, chart=fl.TORUS)
    with pytest.raises(fl.DegenerateContactError, match=r"at \(0.7, 0.2\)$"):
        _NAN_DENSITY_CALLS[entry](m)


def test_fiber_quadrature_rejects_nan_weights():
    nodes = 2.0 * np.pi * np.arange(16) / 16
    weights = np.full(16, 2.0 * np.pi / 16)
    weights[3] = np.nan
    with pytest.raises(fl.DomainError, match="sum to 2\\*pi"):
        fl.FiberQuadrature(base=_GOOD, nodes=nodes, weights=weights, volume=1.0)


class TestHolmesThompson:
    def test_flat(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        assert fl.holmes_thompson_density(m, fl.torus_point(0, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_randers_equals_riemannian_volume(self):
        m = fl.RandersMetric(np.eye(2), np.array([0.6, 0.0]))
        got = fl.holmes_thompson_density(m, fl.torus_point(0.1, 0.1))
        assert got == pytest.approx(1.0, abs=1e-7)

    def test_kz_torus_value(self):
        got = fl.holmes_thompson_density(fl.kz_torus(0.6), fl.torus_point(0, 0))
        assert got == pytest.approx(1.953125, abs=1e-5)

    def test_matches_volume_density_everywhere(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(12):
                x = random_point(m, rng)
                ht = fl.holmes_thompson_density(m, x)
                vd = fl.volume_density(m, x)
                assert abs(ht - vd) <= 1e-5 * max(1.0, vd), name


def _per_call_dual_radii(metric, x, betas, n_boundary, refine_steps=4):
    """Reference: the dual radii with a fresh boundary scan on every call
    and the support matrix built boundary-major."""
    phis = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    vs = fl.indicatrix_point(metric, x, phis)
    beams = np.stack([np.cos(betas), np.sin(betas)])
    support = vs @ beams
    idx = np.argmax(support, axis=0)

    def eval_support(ph):
        return np.einsum("ij,ji->i", fl.indicatrix_point(metric, x, ph), beams)

    center = phis[idx]
    half = np.full_like(center, 2.0 * np.pi / n_boundary)
    y2 = support[idx, np.arange(support.shape[1])]
    best = y2.copy()
    for _ in range(refine_steps):
        y1 = eval_support(center - half)
        y3 = eval_support(center + half)
        denom = y1 - 2.0 * y2 + y3
        shift = np.where(np.abs(denom) > 1e-300, 0.5 * half * (y1 - y3) / denom, 0.0)
        center = center + np.clip(shift, -half, half)
        y2 = eval_support(center)
        best = np.maximum.reduce([best, y1, y2, y3])
        half *= 0.25
    return 1.0 / np.maximum(best, y2)


def _per_call_dual_norm_sampled(metric, x, v, n_rays=512, n_boundary=1024):
    def support_of_v(bs):
        r = _per_call_dual_radii(metric, x, bs, n_boundary)
        return r * (np.cos(bs) * v[0] + np.sin(bs) * v[1])

    betas = 2.0 * np.pi * np.arange(n_rays) / n_rays
    vals = support_of_v(betas)
    i = int(np.argmax(vals))
    center, half = betas[i], 2.0 * np.pi / n_rays
    y2 = best = vals[i]
    for _ in range(5):
        y1, y3 = support_of_v(np.array([center - half, center + half]))
        denom = y1 - 2.0 * y2 + y3
        if abs(denom) > 1e-300:
            center += float(np.clip(0.5 * half * (y1 - y3) / denom, -half, half))
        y2 = float(support_of_v(np.array([center]))[0])
        best = max(best, y1, y2, y3)
        half *= 0.25
    return float(best)


def _per_call_holmes_thompson(metric, x, n_rays=512, n_boundary=2048):
    betas = 2.0 * np.pi * np.arange(n_rays) / n_rays
    r = _per_call_dual_radii(metric, x, betas, n_boundary)
    return 0.5 * float(np.sum(r**2)) * (2.0 * np.pi / n_rays) / np.pi


class TestDualBoundaryScan:
    def test_one_boundary_scan_per_dual_norm_call(self, monkeypatch):
        sizes = []
        original = metrics._indicatrix_scan

        def counting(metric, x, n):
            sizes.append(n)
            return original(metric, x, n)

        monkeypatch.setattr(metrics, "_indicatrix_scan", counting)
        m = fl.kz_torus(0.6)
        fl.dual_norm_sampled(m, fl.torus_point(0.2, 0.4), [0.3, -1.1])
        assert sizes == [1024]
        sizes.clear()
        fl.holmes_thompson_density(m, fl.torus_point(0.2, 0.4))
        assert sizes == [2048]

    def test_matches_per_call_scan(self):
        from finlap.verify import _metric_family, _random_point, _random_vector

        rng = np.random.default_rng(2024)
        for m in _metric_family({"eps": 0.6}):
            for _ in range(3):
                x = _random_point(m, rng)
                v = _random_vector(rng)
                ref = _per_call_dual_norm_sampled(m, x, v)
                assert abs(fl.dual_norm_sampled(m, x, v) - ref) <= 1e-13 * ref, m.kind
                ref = _per_call_holmes_thompson(m, x)
                assert abs(fl.holmes_thompson_density(m, x) - ref) <= 1e-13 * ref, m.kind

    @pytest.mark.parametrize("seed", [3, 41, 977])
    def test_coarse_pick_matches_exhaustive_search_on_verify_draws(self, seed):
        # the draws of the double-dual rows of `verify --suite all --seed S`:
        # picking the dual ray among the grid rays of the bracket that the
        # scan gives loses nothing against refining all DUAL_RAYS of them
        from finlap.verify import _metric_family, _random_point, _random_vector

        rng = np.random.default_rng(seed)
        for m in _metric_family({}):
            xs, vs = [], []
            for _ in range(40):
                xs.append(_random_point(m, rng))
                vs.append(_random_vector(rng))
            dds = fl.dual_norm_sampled(m, xs, np.array(vs))
            for x, v, dd in zip(xs, vs, dds):
                ref = _per_call_dual_norm_sampled(m, x, v)
                assert abs(dd - ref) <= 1e-13 * ref, m.kind
                f = fl.eval_f(m, x, v)
                assert abs(dd - f) <= 1e-12 * f, m.kind

    @pytest.mark.parametrize("aspect", [9.0, 100.0])
    def test_pick_on_sharply_turning_indicatrix(self, aspect):
        # Near the major axis of riemannian(diag(1, 100)) the indicatrix
        # normal turns by up to 0.6 rad between scan points, far more than
        # the parabolic rounds reach from one grid ray (about 0.016 rad);
        # the maximizer is picked among all grid rays of the crossed edge's
        # bracket.
        m = fl.riemannian(np.diag([1.0, aspect]))
        x = fl.torus_point(0.2, 0.4)
        angles = np.concatenate([[5e-4, -5e-4, 2e-3], np.linspace(-0.05, 0.05, 7)])
        vs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        vs = np.concatenate([vs, -vs])
        dds = fl.dual_norm_sampled(m, [x] * len(vs), vs)
        for v, dd in zip(vs, dds):
            ref = _per_call_dual_norm_sampled(m, x, v)
            assert abs(dd - ref) <= 1e-13 * ref
            f = fl.eval_f(m, x, v)
            assert abs(dd - f) <= 1e-12 * f
            assert abs(fl.dual_norm_sampled(m, x, v) - dd) <= 1e-13 * f


class TestSupportSearch:
    """The one support search behind dual_norm, the Holmes-Thompson radii
    and the double dual."""

    @pytest.mark.parametrize("phi", [0.15, math.pi - 0.15])
    def test_dual_norm_roundtrip_near_the_sphere_poles(self, phi):
        # the most eccentric indicatrices the verify suites draw
        m = fl.kz_sphere(0.5)
        xs = [fl.sphere_point(phi, th) for th in np.linspace(0.0, 2.0 * math.pi, 8)]
        angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        for x in xs:
            for a in angles:
                v = np.array([math.cos(a), math.sin(a)])
                f = fl.eval_f(m, x, v)
                assert abs(fl.dual_norm(m, x, fl.legendre_forward(m, x, v)) - f) <= 1e-10 * f

    # In the chart angle the support of a covector whose maximizer lies
    # near the tip of the indicatrix peaks on a scale of sin(phi), far
    # finer than the 256-point scan; vectors spread evenly in the frame
    # angle put many maximizers there.
    POLAR = [1e-2, 1e-3, math.pi - 1e-2, math.pi - 1e-3]

    @staticmethod
    def _polar_samples(phi):
        m = fl.kz_sphere(0.5)
        xs = [fl.sphere_point(phi, th) for th in np.linspace(0.0, 2.0 * math.pi, 5)]
        psis = np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False)
        vs = np.stack([np.cos(psis), np.sin(psis) / math.sin(phi)], axis=-1)
        return m, xs, vs

    @pytest.mark.parametrize("phi", POLAR)
    def test_dual_norm_roundtrip_at_the_sphere_poles(self, phi):
        m, xs, vs = self._polar_samples(phi)
        for x in xs:
            for v in vs:
                f = fl.eval_f(m, x, v)
                assert abs(fl.dual_norm(m, x, fl.legendre_forward(m, x, v)) - f) <= 1e-10 * f

    @pytest.mark.parametrize("phi", POLAR)
    def test_double_dual_and_holmes_thompson_at_the_sphere_poles(self, phi):
        m, xs, vs = self._polar_samples(phi)
        for v in vs[::4]:
            f = np.array([fl.eval_f(m, x, v) for x in xs])
            dd = fl.dual_norm_sampled(m, xs, np.tile(v, (len(xs), 1)))
            np.testing.assert_allclose(dd, f, rtol=1e-10)
        np.testing.assert_allclose(fl.holmes_thompson_density(m, xs),
                                   measures.volume_densities(m, xs), rtol=1e-10)

    def test_block_equals_one_point_calls(self, rng):
        m = fl.kz_torus(0.6)
        xs = [random_point(m, rng) for _ in range(7)]
        ps = rng.normal(size=(7, 2))
        np.testing.assert_array_equal(fl.dual_norm(m, xs, ps),
                                      [fl.dual_norm(m, x, p) for x, p in zip(xs, ps)])
        np.testing.assert_array_equal(fl.holmes_thompson_density(m, xs),
                                      [fl.holmes_thompson_density(m, x) for x in xs])

    @staticmethod
    def _holmes_thompson_peak(eps, rng):
        """tracemalloc peak of holmes_thompson_density on 20 kz-torus points."""
        import tracemalloc

        m = fl.kz_torus(eps)
        xs = [random_point(m, rng) for _ in range(20)]
        tracemalloc.start()
        try:
            fl.holmes_thompson_density(m, xs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_holmes_thompson_block_peak_memory(self, rng):
        assert self._holmes_thompson_peak(0.6, rng) < 12 * 2**20

    def test_holmes_thompson_block_peak_memory_without_support_matrix(self, rng):
        # the block's scans and edge normals, no (P, m, n) support matrix
        assert self._holmes_thompson_peak(0.5, rng) < 4 * 2**20


def _block_metrics():
    """The four metrics of the verify family and the variable Randers metric."""
    from finlap.verify import _metric_family

    names = ["riemannian", "randers", "kz-torus", "kz-sphere"]
    metrics = dict(zip(names, _metric_family({"eps": 0.6})))
    metrics["randers-var"] = builtin_metrics()["randers-var"]
    return metrics


class TestBlockDualForms:
    """Entry i of a block call equals the one-point call at point i."""

    @staticmethod
    def _samples(m, rng, count):
        from finlap.verify import _random_point, _random_vector

        xs = [_random_point(m, rng) for _ in range(count)]
        return xs, np.array([_random_vector(rng) for _ in range(count)])

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("name", list(_block_metrics()))
    def test_block_equals_one_point(self, name, count, rng):
        m = _block_metrics()[name]
        xs, vs = self._samples(m, rng, count)
        ps = np.array([fl.legendre_forward(m, x, v) for x, v in zip(xs, vs)])
        dn = fl.dual_norm(m, xs, ps)
        dds = fl.dual_norm_sampled(m, xs, vs)
        ht = fl.holmes_thompson_density(m, xs)
        assert dn.shape == dds.shape == ht.shape == (count,)
        for i, (x, v, p) in enumerate(zip(xs, vs, ps)):
            ref = fl.dual_norm(m, x, p)
            assert abs(dn[i] - ref) <= 1e-13 * ref
            ref = fl.dual_norm_sampled(m, x, v)
            assert abs(dds[i] - ref) <= 1e-13 * ref
            ref = fl.holmes_thompson_density(m, x)
            assert abs(ht[i] - ref) <= 1e-13 * ref

    def test_one_scan_per_block(self, monkeypatch, rng):
        sizes = []
        original = metrics._indicatrix_scale

        def counting(metric, x, rays):
            sizes.append(np.shape(rays)[:-1])
            return original(metric, x, rays)

        monkeypatch.setattr(metrics, "_indicatrix_scale", counting)
        spread = {}
        for name, m in [("euclidean", fl.riemannian(np.eye(2))), ("kz-torus", fl.kz_torus(0.6)),
                        ("riemannian-1-100", fl.riemannian(np.diag([1.0, 100.0])))]:
            sizes.clear()
            rays = []
            f = m.f
            monkeypatch.setattr(m, "f", lambda x, v, f=f: rays.append(np.shape(v)[:-1]) or f(x, v))
            xs, vs = self._samples(m, rng, 5)
            if name == "riemannian-1-100":
                # near the major axis the indicatrix turns sharply between
                # scan points, and the bracket holds many grid rays
                vs[:, 1] *= 1e-3
            fl.dual_norm_sampled(m, xs, vs)
            # one scan; the bracket of grid rays is read off it without an F call
            assert sizes[0] == (5, 1024) and sizes.count((5, 1024)) == 1, name
            # then the accurate radii of c grid rays a point, c the most that
            # a point's bracket needs, each radius 4 rounds of flanks (2 rays
            # a radius) and a centre (1 ray); then 5 rounds of a flank pair
            # and a centre in beta, refined alike
            c = spread[name] = sizes[1][1] // 2
            seed = collections.Counter({(5, 2 * c): 4, (5, c): 4})
            rounds = collections.Counter({(5, 4): 5 * 4, (5, 2): 5 * 4 + 5 * 4, (5, 1): 5 * 4})
            assert collections.Counter(sizes[1:]) == seed + rounds, name
            # the scan, c seed radii and 5 rounds of 3 radii, each radius 4
            # rounds of 3 rays: 1024 + 12 c + 5 * 3 * 12 rays per point
            assert sum(math.prod(r) for r in rays) == 5 * (1204 + 12 * c), name
        # a round indicatrix: the bracket is one grid step wide, and the grid
        # ray in it and one on either side are evaluated
        assert spread["euclidean"] == 3
        assert 3 <= spread["kz-torus"] <= 6 and spread["riemannian-1-100"] > 10

    def test_block_shape_and_zero_rejected(self):
        m = fl.kz_torus(0.6)
        xs = [fl.torus_point(0.1, 0.2), fl.torus_point(0.3, 0.4)]
        with pytest.raises(fl.DomainError):
            fl.dual_norm(m, xs, [1.0, 0.0])
        with pytest.raises(fl.DomainError):
            fl.dual_norm(m, xs, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(fl.DomainError):
            fl.dual_norm_sampled(m, xs, [[1.0, 0.0]])
        with pytest.raises(fl.DomainError):
            fl.dual_norm_sampled(m, xs, [[1.0, 0.0], [0.0, 0.0]])


def _brute_scan_max(ps, ws):
    """Index and value of the largest p(w) over every scan point, from the
    full support matrix ps @ ws^T of each point."""
    support = ps @ np.swapaxes(ws, -1, -2)
    idx = np.argmax(support, axis=-1)
    return idx, np.take_along_axis(support, idx[..., None], axis=-1)[..., 0]


def _lookup_cases():
    """(name, metric, base points): the verify family and randers-var at
    random points, and kz_sphere(0.5) at the polar points of
    TestSupportSearch."""
    rng = np.random.default_rng(77)
    cases = [(name, m, [random_point(m, rng) for _ in range(6)])
             for name, m in _block_metrics().items()]
    for phi in TestSupportSearch.POLAR:
        _, xs, _ = TestSupportSearch._polar_samples(phi)
        cases.append((f"kz-sphere-0.5-phi{phi:.4g}", fl.kz_sphere(0.5), xs))
    return cases


class TestScanLookup:
    """The edge-normal lookup of metrics._scan_max against the brute-force
    maximum over the whole scan."""

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    @pytest.mark.parametrize("case", _lookup_cases(), ids=lambda c: c[0])
    def test_matches_brute_force(self, case, n):
        _, m, xs = case
        rng = np.random.default_rng(n)
        scan = metrics._indicatrix_scan(m, xs, n)
        ws = scan[1]
        shared = rng.normal(size=(300, 2))
        own = rng.normal(size=(len(xs), 300, 2))
        for ps in (shared, own):
            idx, val = metrics._scan_max(ps, scan)
            ref_idx, ref_val = _brute_scan_max(np.broadcast_to(ps, own.shape), ws)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_allclose(val, ref_val, rtol=4e-16, atol=0.0)
        # one point, covectors (m, 2)
        one = metrics._indicatrix_scan(m, xs[0], n)
        idx, val = metrics._scan_max(shared, one)
        ref_idx, ref_val = _brute_scan_max(shared, one[1])
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_allclose(val, ref_val, rtol=4e-16, atol=0.0)

    def test_a_tie_takes_the_first_vertex_as_argmax(self):
        # the square (1, 0), (0, 1), (-1, 0), (0, -1): p = (1, -1) scores 1
        # on vertices 3 and 0, across the wrap of the normals
        ws = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        normals = np.pi / 4.0 * np.array([1.0, 3.0, 5.0, 7.0])
        scan = (0.5 * np.pi * np.arange(4), ws, normals)
        ps = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        idx, val = metrics._scan_max(ps, scan)
        ref_idx, ref_val = _brute_scan_max(ps, ws)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(val, ref_val)

    def test_scan_normals_increase_by_one_turn(self):
        m = fl.kz_torus(0.6)
        psis, ws, normals = metrics._indicatrix_scan(m, fl.torus_point(0.2, 0.4), 64)
        assert psis.shape == normals.shape == (64,) and ws.shape == (64, 2)
        assert np.all(np.diff(normals) > 0.0)
        assert normals[-1] < normals[0] + 2.0 * np.pi

    @pytest.mark.parametrize("name", list(builtin_metrics()))
    def test_every_builtin_scan_is_convex(self, name, rng):
        # kz_sphere(0.5) at the poles passes in test_matches_brute_force
        m = builtin_metrics()[name]
        xs = [random_point(m, rng) for _ in range(4)]
        for n in (256, 2048):
            metrics._indicatrix_scan(m, xs, n)


def _flower(c):
    """The norm |v| (1 + c cos 4 phi), convex only for c <= 1/15."""
    def f(x, vs):
        vs = np.asarray(vs, dtype=float)
        phi = np.arctan2(vs[..., 1], vs[..., 0])
        return np.hypot(vs[..., 0], vs[..., 1]) * (1.0 + c * np.cos(4.0 * phi))
    return f


class TestSupportSearchInput:
    def test_non_convex_scan_raises_and_names_the_point(self):
        m = fl.custom(_flower(0.3), chart=fl.TORUS)
        x = fl.torus_point(0.25, 0.5)
        assert min(fl.convexity_margin(m, x, phi)
                   for phi in np.linspace(0.0, 2.0 * math.pi, 64)) < 0.0
        with pytest.raises(fl.InvalidMetricError, match=r"\(0\.25, 0\.5\)"):
            fl.dual_norm(m, x, [1.0, 0.3])
        with pytest.raises(fl.InvalidMetricError, match=r"\(0\.25, 0\.5\)"):
            fl.holmes_thompson_density(m, x)
        with pytest.raises(fl.InvalidMetricError, match=r"\(0\.25, 0\.5\)"):
            fl.dual_norm_sampled(m, x, [1.0, 0.3])

    def test_non_convex_scan_names_the_first_failing_point_of_a_block(self):
        # |v| (1 + 0.3 u cos 4 phi): convex at u = 0.125, not at 0.5 and 0.75
        def f(x, vs):
            return _flower(0.3 * x.u)(x, vs)

        m = fl.custom(f, chart=fl.TORUS)
        xs = [fl.torus_point(u, 0.5) for u in (0.125, 0.5, 0.75)]
        fl.dual_norm(m, xs[0], [1.0, 0.3])
        with pytest.raises(fl.InvalidMetricError, match=r"\(0\.5, 0\.5\)"):
            fl.dual_norm(m, xs, np.ones((3, 2)))

    def test_flower_norm_below_the_bound_is_searched(self):
        m = fl.custom(_flower(0.05), chart=fl.TORUS)
        x = fl.torus_point(0.25, 0.5)
        v = np.array([0.8, 0.6])
        p = fl.legendre_forward(m, x, v)
        assert fl.dual_norm(m, x, p) == pytest.approx(fl.eval_f(m, x, v), rel=1e-9)

    @pytest.mark.parametrize("bad", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
    def test_non_finite_argument_is_a_domain_error(self, bad):
        m = fl.kz_torus(0.5)
        x = fl.torus_point(0.2, 0.4)
        with pytest.raises(fl.DomainError, match="finite"):
            fl.dual_norm(m, x, bad)
        with pytest.raises(fl.DomainError, match="finite"):
            fl.dual_norm_sampled(m, x, bad)
        xs = [x, fl.torus_point(0.6, 0.1)]
        with pytest.raises(fl.DomainError, match="finite"):
            fl.dual_norm(m, xs, [[1.0, 0.0], bad])
        with pytest.raises(fl.DomainError, match="finite"):
            fl.dual_norm_sampled(m, xs, [[1.0, 0.0], bad])


def _kinds_and_poles():
    """(name, metric, base points): a few random points of every built-in
    kind, and kz_sphere(0.5) at the polar points of TestSupportSearch."""
    rng = np.random.default_rng(41)
    cases = [(name, m, [random_point(m, rng) for _ in range(5)])
             for name, m in builtin_metrics().items()]
    for phi in TestSupportSearch.POLAR:
        cases.append((f"kz-sphere-0.5-phi{phi:.4g}", fl.kz_sphere(0.5),
                      TestSupportSearch._polar_samples(phi)[1]))
    return cases


class TestFiberRule:
    """The contact density f (f + f'') of the fiber rule, from F alone,
    against the Hilbert-form jet of density_profile."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("case", _kinds_and_poles(), ids=lambda c: c[0])
    def test_matches_hilbert_jet(self, case, n):
        _, m, xs = case
        rays, f, lam = measures._fiber_rule(m, xs, n)
        jet = fl.hilbert.density_profile(m, xs, 2.0 * np.pi * np.arange(n) / n)
        # the gap is the jet's own difference error
        tol = 1e-9 if m.analytic_fiber_derivative else 1e-6
        assert np.abs(lam / jet - 1.0).max() <= tol
        assert rays.shape == (len(xs), n, 2) and f.shape == lam.shape == (len(xs), n)

    @pytest.mark.parametrize("call", ["symbol_densities", "volume_densities",
                                      "volume_density", "fiber_quadrature"])
    @pytest.mark.parametrize("name", ["randers-var", "kz-sphere-03", "custom-quartic"])
    def test_one_norm_call_per_block(self, monkeypatch, name, call):
        # 40 points in blocks of BLOCK_RAYS // DEFAULT_FIBER_N
        from finlap.laplace import symbol_densities

        m = builtin_metrics()[name]
        xs = [random_point(m, np.random.default_rng(k)) for k in range(40)]
        calls = count_calls(monkeypatch, m)
        if call == "symbol_densities":
            symbol_densities(m, xs)
        elif call == "volume_densities":
            measures.volume_densities(m, xs)
        else:
            xs = xs[:1]
            getattr(fl, call)(m, xs[0])
        n, size = measures.DEFAULT_FIBER_N, measures.BLOCK_RAYS // measures.DEFAULT_FIBER_N
        assert calls["f"] == [min(size, len(xs) - k) * n for k in range(0, len(xs), size)]
        assert calls["d_vf"] == calls["indicatrix_point"] == []

    def test_randers_symbol_closed_form(self):
        from finlap.laplace import symbol_densities
        from finlap.randers import symbol_closed_form

        m = builtin_metrics()["randers-var"]
        points = fl.torus_base(8).points
        sigma, rho = symbol_densities(m, points)
        for k, x in enumerate(points):
            assert np.abs(sigma[k] - symbol_closed_form(m, x)).max() <= 1e-13
        assert np.abs(rho - 1.0).max() <= 1e-13


def _design_metric():
    """The inverse design of diag(a(u)^2, 1), a = 1.2 + 0.3 cos 2pi u +
    0.1 sin 4pi u, at K = 2 with Z = (cos 2pi v, sin 2pi u + 1.5)."""
    def a(p):
        return 1.2 + 0.3 * math.cos(2 * math.pi * p.u) + 0.1 * math.sin(4 * math.pi * p.u)

    return fl.inverse_design(lambda p: np.diag([a(p) ** 2, 1.0]), a,
                             lambda p: np.array([math.cos(2 * math.pi * p.v),
                                                 math.sin(2 * math.pi * p.u) + 1.5]),
                             K=2.0).metric()


def _c2_metric():
    """|v| (1 + 0.05 |sin angle|^3): only C^2 in the angle, so the fiber
    rule converges algebraically."""
    def norm(x, vs):
        angle = np.arctan2(vs[..., 1], vs[..., 0])
        return np.hypot(vs[..., 0], vs[..., 1]) * (1.0 + 0.05 * np.abs(np.sin(angle)) ** 3)

    return fl.custom(norm, chart=fl.TORUS)


def _resolution_cases():
    return [pytest.param(m, id=name) for name, m in
            [*builtin_metrics().items(), ("inverse-design", _design_metric())]]


def _rule_error(m, points, n):
    """Per point: the half-rule defect of the n-node rule and its relative
    error in (sigma, rho) against the 1024-node rule, in the defect's norm."""
    s_ref, r_ref, _, _ = measures._fiber_block(m, points, 1024)
    sigma, rho, defect, _ = measures._fiber_block(m, points, n)
    err = np.maximum(np.abs(sigma - s_ref).max(axis=(-2, -1))
                     / np.abs(s_ref).max(axis=(-2, -1)), np.abs(rho - r_ref) / r_ref)
    return defect, err


def _resolution_points(m):
    return fl.sphere_base(12, 4).points if m.chart == fl.SPHERE else fl.torus_base(8).points


class TestFiberResolution:
    """What DEFAULT_FIBER_N serves, and the half-rule defect that reports
    when it does not."""

    @pytest.mark.parametrize("m", _resolution_cases())
    def test_default_matches_1024_nodes(self, m):
        _, err = _rule_error(m, _resolution_points(m), measures.DEFAULT_FIBER_N)
        assert err.max() <= 1e-13

    # both sides at rounding level (the 1024-node reference has its own)
    ROUNDING = 5e-15

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("m", _resolution_cases())
    def test_defect_bounds_the_error(self, m, n):
        defect, err = _rule_error(m, _resolution_points(m), n)
        assert np.all(defect + self.ROUNDING >= err)

    def test_odd_count_has_no_defect(self):
        m = builtin_metrics()["randers-var"]
        prob = fl.assemble_eigenproblem(m, fl.TorusGridBasis(n=16, fiber_n=63))
        assert prob.fiber_defect is None
        assert fl.solve_eigen(prob, k=3).meta["fiber_defect"] is None

    def test_c2_metric_is_logged_and_reported(self, caplog):
        m = _c2_metric()
        defect, err = _rule_error(m, fl.torus_base(4).points, measures.DEFAULT_FIBER_N)
        assert defect.max() > measures.FIBER_DEFECT_WARN > err.max()
        with caplog.at_level(logging.WARNING, logger="finlap.measures"):
            res = fl.solve_eigen(fl.assemble_eigenproblem(m, fl.TorusGridBasis(n=16)), k=3)
        (record,) = [r for r in caplog.records if r.name == "finlap.measures"]
        assert record.levelno == logging.WARNING
        assert res.meta["fiber_n"] == measures.DEFAULT_FIBER_N
        assert res.meta["fiber_defect"] > measures.FIBER_DEFECT_WARN
        assert f"{res.meta['fiber_defect']:.3g}" in record.getMessage()
        assert "fiber rule at (0.0, " in record.getMessage()

    def test_rayleigh_logs_once_per_quotient(self, caplog):
        # the energy and the norm of a quotient share one walk of the rule
        u = fl.SeparableTrigField(1.0, "cos", 1, "one", 0)
        with caplog.at_level(logging.WARNING, logger="finlap.measures"):
            fl.rayleigh(_c2_metric(), u, fl.torus_base(8))
        (record,) = [r for r in caplog.records if r.name == "finlap.measures"]
        assert record.levelno == logging.WARNING

    @pytest.mark.parametrize("call", [fl.fiber_quadrature, fl.volume_density, symbol_density],
                             ids=lambda call: call.__name__)
    def test_one_point_callers_log(self, caplog, call):
        with caplog.at_level(logging.WARNING, logger="finlap.measures"):
            call(_c2_metric(), fl.torus_point(0.25, 0.5))
        (record,) = [r for r in caplog.records if r.name == "finlap.measures"]
        assert "(0.25, 0.5)" in record.getMessage()

    def test_builtin_metrics_not_logged(self, caplog):
        from finlap.laplace import symbol_densities

        with caplog.at_level(logging.WARNING, logger="finlap.measures"):
            for case in _resolution_cases():
                m = case.values[0]
                symbol_densities(m, _resolution_points(m))
        assert not [r for r in caplog.records if r.name == "finlap.measures"]

    def test_one_norm_call_per_block_with_the_estimate(self, monkeypatch):
        # 324 grid points in blocks of BLOCK_RAYS // DEFAULT_FIBER_N and a short one
        m = builtin_metrics()["custom-quartic"]
        calls = count_calls(monkeypatch, m)
        prob = fl.assemble_eigenproblem(m, fl.TorusGridBasis(n=18))
        n, size = measures.DEFAULT_FIBER_N, measures.BLOCK_RAYS // measures.DEFAULT_FIBER_N
        assert 324 % size != 0
        assert calls["f"] == [min(size, 324 - k) * n for k in range(0, 324, size)]
        assert calls["d_vf"] == calls["indicatrix_point"] == []
        assert 0.0 < prob.fiber_defect <= 1e-10

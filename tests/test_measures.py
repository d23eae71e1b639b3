import logging
import math

import numpy as np
import pytest

import finlap as fl
import finlap.measures as measures
import finlap.metrics as metrics
from finlap.differences import jet_step
from finlap.laplace import symbol_density
from conftest import builtin_metrics, random_point


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
    def test_each_angle_evaluated_once(self, phi, monkeypatch):
        m = fl.kz_sphere(0.3)
        x = fl.sphere_point(phi, 0.0)
        angles = []
        original = measures.density_profile

        def counting(metric, x, phis, *args):
            angles.append(len(phis))
            return original(metric, x, phis, *args)

        monkeypatch.setattr(measures, "density_profile", counting)
        n = len(fl.fiber_quadrature_adaptive(m, x).nodes)
        assert sum(angles) == n
        angles.clear()
        fl.volume_density_adaptive(m, x)
        assert sum(angles) == n

    def test_cap_is_logged(self, caplog):
        # rtol = 0 never converges, so the doubling stops at n_max
        m = fl.kz_sphere(0.3)
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            fl.volume_density_adaptive(m, fl.sphere_point(OUTER_PHI, 0.0),
                                       n0=16, rtol=0.0, n_max=32)
        (record,) = [r for r in caplog.records if r.name == "finlap.measures"]
        msg = record.getMessage()
        assert f"{OUTER_PHI:.6g}" in msg and "32 nodes" in msg

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
    chart angle, the contact density differenced in that angle."""
    h = jet_step(metric)
    nodes = 2.0 * np.pi * np.arange(n) / n

    def pq(phis):
        return fl.vertical_derivative(metric, x, np.stack([np.cos(phis), np.sin(phis)], -1))

    p, dp = pq(nodes), (pq(nodes + h) - pq(nodes - h)) / (2.0 * h)
    lam = np.abs(p[:, 1] * dp[:, 0] - p[:, 0] * dp[:, 1])
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
        assert abs(total / (8.0 * math.pi / (2.0 - 2.0 * eps**2)) - 1.0) <= 1e-9
        assert not [r for r in caplog.records if r.name == "finlap.measures"]

    def test_sphere_total_volume_angle_count(self, monkeypatch):
        angles = []
        original = measures.density_profile

        def counting(metric, x, psis, *args):
            points = 1 if isinstance(x, fl.ChartPoint) else len(x)
            angles.append(points * len(psis))
            return original(metric, x, psis, *args)

        monkeypatch.setattr(measures, "density_profile", counting)
        fl.sphere_total_volume(fl.kz_sphere(0.3), 96, 2)
        assert sum(angles) <= 96 * 2 * measures.DEFAULT_FIBER_N

    def test_sphere_block_equals_points(self):
        m = fl.kz_sphere(0.3)
        xs = [fl.sphere_point(p, t) for p in (OUTER_PHI, 0.3, 2.9) for t in (0.0, 2.0)]
        nodes, weights, vols = measures.fiber_weights(m, xs, 64)
        for i, x in enumerate(xs):
            q = fl.fiber_quadrature(m, x, 64)
            assert np.array_equal(nodes[i], q.nodes)
            assert np.array_equal(weights[i], q.weights)
            assert vols[i] == q.volume == fl.volume_density(m, x, 64)
            sigma, rho = symbol_density(m, x, 64)
            assert sigma.shape == (2, 2) and rho == q.volume

    def test_identity_frame_unchanged(self):
        metrics = {name: m for name, m in builtin_metrics().items() if m.chart != fl.SPHERE}
        metrics["plane"] = fl.riemannian(np.array([[1.2, 0.3], [0.3, 0.8]]), chart=fl.PLANE)
        for name, m in metrics.items():
            xs = [fl.ChartPoint(m.chart, 0.1, 0.7), fl.ChartPoint(m.chart, 0.6, 0.2)]
            nodes, weights, vols = measures.fiber_weights(m, xs, 32)
            for i, x in enumerate(xs):
                ref_nodes, ref_weights, ref_vol = _identity_frame_trapezoid(m, x, 32)
                q = fl.fiber_quadrature(m, x, 32)
                assert np.array_equal(q.nodes, ref_nodes), name
                assert np.array_equal(q.weights, ref_weights), name
                assert q.volume == ref_vol == fl.volume_density(m, x, 32), name
                assert np.array_equal(nodes, ref_nodes), name
                assert np.array_equal(weights[i], ref_weights), name
                assert vols[i] == ref_vol, name


class TestBaseQuadrature:
    """Base quadratures reject sizes that hold no point, with ConfigError."""

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
        lambda: fl.volume_density_adaptive(fl.kz_torus(0.5), fl.torus_point(0.2, 0.4),
                                           n0=64.5),
    ], ids=["volume-density", "volume-densities", "grid-fiber-n", "grid-n", "torus-bool",
            "sphere-volume", "sphere-theta", "adaptive-n0"])
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


_EMPTY_BLOCK_CALLS = {
    "dual_norm": lambda m: fl.dual_norm(m, [], np.zeros((0, 2))),
    "dual_norm_sampled": lambda m: fl.dual_norm_sampled(m, [], np.zeros((0, 2))),
    "holmes_thompson_density": lambda m: fl.holmes_thompson_density(m, []),
    "fiber_weights": lambda m: measures.fiber_weights(m, []),
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
    "fiber_weights": lambda m: measures.fiber_weights(m, [_GOOD, _NAN]),
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
        fl.dual_norm_sampled(m, fl.torus_point(0.2, 0.4), [0.3, -1.1], n_boundary=1024)
        assert sizes == [1024]
        sizes.clear()
        fl.holmes_thompson_density(m, fl.torus_point(0.2, 0.4), n_boundary=2048)
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
        np.testing.assert_array_equal(fl.holmes_thompson_density(m, xs, 32, 256),
                                      [fl.holmes_thompson_density(m, x, 32, 256) for x in xs])

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
        m = fl.kz_torus(0.6)
        xs, vs = self._samples(m, rng, 5)
        fl.dual_norm_sampled(m, xs, vs, n_boundary=1024)
        # the scan, and the 4 flank calls (512 rays x 2) of the first radii
        assert sizes[0] == (5, 1024) and sizes.count((5, 1024)) == 1 + 4
        # one scan, then 11 radius calls (the first rays and 5 rounds of
        # flanks and centre), each 4 rounds of 2 indicatrix calls
        assert len(sizes) == 1 + 11 * 2 * 4

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

    @pytest.mark.parametrize("call", [
        lambda m, x: fl.dual_norm(m, x, [1.0, 0.3], coarse_n=0),
        lambda m, x: fl.dual_norm(m, x, [1.0, 0.3], coarse_n=2),
        lambda m, x: fl.holmes_thompson_density(m, x, n_rays=0),
        lambda m, x: fl.holmes_thompson_density(m, x, n_boundary=1),
        lambda m, x: fl.dual_norm_sampled(m, x, [1.0, 0.3], n_rays=2),
        lambda m, x: fl.dual_norm_sampled(m, x, [1.0, 0.3], n_boundary=0),
        lambda m, x: fl.dual_norm(m, x, [1.0, 0.3], coarse_n=256.0),
        lambda m, x: fl.holmes_thompson_density(m, x, n_rays=512.5),
    ])
    def test_bad_counts_are_config_errors(self, call):
        with pytest.raises(fl.ConfigError, match="integer of at least 3"):
            call(fl.kz_torus(0.5), fl.torus_point(0.2, 0.4))

    def test_smallest_counts_are_accepted(self):
        m = fl.kz_torus(0.5)
        x = fl.torus_point(0.2, 0.4)
        n = np.int64(metrics.MIN_SCAN_N)
        for value in (fl.dual_norm(m, x, [1.0, 0.3], coarse_n=n),
                      fl.holmes_thompson_density(m, x, n_rays=n, n_boundary=n),
                      fl.dual_norm_sampled(m, x, [1.0, 0.3], n_rays=n, n_boundary=n)):
            assert math.isfinite(value) and value > 0.0

import logging
import math

import numpy as np
import pytest

import finlap as fl
import finlap.measures as measures
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
            m = fl.make_randers(g, np.array([nrm, 0.1 * nrm]))
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
        m = fl.kz_sphere(0.3)
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            fl.volume_density_adaptive(m, fl.sphere_point(OUTER_PHI, 0.0))
        (record,) = [r for r in caplog.records if r.name == "finlap.measures"]
        msg = record.getMessage()
        assert f"{OUTER_PHI:.6g}" in msg and "32768 nodes" in msg
        # the volume still moves by 6.7e-4 between 16384 and 32768 nodes
        assert float(msg.rsplit(" ", 1)[-1]) == pytest.approx(6.7e-4, rel=0.05)

    def test_converged_fiber_not_logged(self, caplog):
        m = fl.kz_sphere(0.3)
        with caplog.at_level(logging.DEBUG, logger="finlap.measures"):
            fl.volume_density_adaptive(m, fl.sphere_point(math.pi / 2, 0.0))
        assert not [r for r in caplog.records if r.name == "finlap.measures"]


class TestHolmesThompson:
    def test_flat(self):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        assert fl.holmes_thompson_density(m, fl.torus_point(0, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_randers_equals_riemannian_volume(self):
        m = fl.make_randers(np.eye(2), np.array([0.6, 0.0]))
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
        original = measures.indicatrix_point

        def counting(metric, x, phi):
            sizes.append(np.size(phi))
            return original(metric, x, phi)

        monkeypatch.setattr(measures, "indicatrix_point", counting)
        m = fl.kz_torus(0.6)
        fl.dual_norm_sampled(m, fl.torus_point(0.2, 0.4), [0.3, -1.1], n_boundary=1024)
        assert sizes.count(1024) == 1
        sizes.clear()
        fl.holmes_thompson_density(m, fl.torus_point(0.2, 0.4), n_boundary=2048)
        assert sizes.count(2048) == 1

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

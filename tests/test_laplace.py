import math

import numpy as np
import pytest

import finlap as fl
from conftest import builtin_metrics, random_point


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
        op = fl.sphere_operator(eps)
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
        m = fl.make_randers(np.eye(2),
                            lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0]))
        f = fl.SeparableTrigField(1.0, "cos", 1, "sin", 1)
        x = fl.torus_point(0.21, 0.83)
        c = fl.laplacian_apply(m, f, x, path="coefficient")
        g = fl.laplacian_apply(m, f, x, path="geodesic")
        assert abs(c - g) <= 1e-4 * max(1.0, abs(c))

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
        m = fl.make_randers(np.eye(2),
                            lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0]))
        d16 = fl.weighted_symmetry_residual(m, 16, fiber_n=128).divergence_defect
        d32 = fl.weighted_symmetry_residual(m, 32, fiber_n=128).divergence_defect
        assert d32 <= 4e-3
        rate = math.log2(d16 / d32)
        assert 1.6 < rate < 2.4

    @pytest.mark.parametrize("metric, fiber_n", [
        (fl.kz_torus(0.6), 256),
        (fl.make_randers(np.eye(2),
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
        m = fl.make_randers(np.eye(2),
                            lambda p: np.array([0.25 * math.sin(2 * math.pi * p.v),
                                                0.1 * math.cos(2 * math.pi * p.u)]))
        for _ in range(3):
            x = random_point(m, rng)
            c = fl.operator_coefficients(m, x)
            z = fl.divergence_form_drift(m, x)
            assert np.abs(c.drift - z).max() < 1e-4


class TestRoundSphereHarmonics:
    @pytest.mark.parametrize("l,m_", [(1, 0), (2, 1), (3, 3), (4, 2), (5, 0)])
    def test_round_sphere_eigenfunctions(self, l, m_, rng):
        metric = fl.kz_sphere(0.0)
        f = fl.SphereHarmonicField(l, m_, "cos")
        for _ in range(5):
            x = random_point(metric, rng)
            got = apply_coeffs(metric, f, x)
            assert abs(got + l * (l + 1) * f(x)) < 1e-6

import math

import numpy as np
import pytest
from scipy.special import lpmv

import finlap as fl


class TestTorusOperator:
    def test_round_limit(self):
        assert fl.torus_operator(0.0) == pytest.approx((1.0, 1.0))

    def test_reference_values(self):
        a, b = fl.torus_operator(0.6)
        assert a == pytest.approx(0.568889, abs=1e-6)
        assert b == pytest.approx(0.711111, abs=1e-6)

    def test_quadrature_cross_check(self):
        c = fl.operator_coefficients(fl.kz_torus(0.6), fl.torus_point(0, 0))
        a, b = fl.torus_operator(0.6)
        assert abs(c.sigma[0, 0] - a) < 1e-8
        assert abs(c.sigma[1, 1] - b) < 1e-8


class TestTorusSpectrum:
    def test_flat(self):
        res = fl.torus_spectrum(0.0, 1, 1)
        four_pi2 = 4 * math.pi**2
        assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert res.multiplicities[0] == 1
        assert res.eigenvalues[1] == pytest.approx(four_pi2, rel=1e-12)
        assert res.multiplicities[1] == 4
        assert res.eigenvalues[2] == pytest.approx(2 * four_pi2, rel=1e-12)
        assert res.multiplicities[2] == 4

    def test_deformed_values(self):
        assert fl.torus_eigenvalue(0.6, 1, 0) == pytest.approx(22.4590, abs=2e-4)
        assert fl.torus_eigenvalue(0.6, 0, 1) == pytest.approx(28.0735, abs=2e-4)

    def test_multiplicity_merge(self):
        res = fl.torus_spectrum(0.6, 2, 2)
        # (p, 0) and (-p, 0) coincide
        lam10 = fl.torus_eigenvalue(0.6, 1, 0)
        idx = int(np.argmin(np.abs(res.eigenvalues - lam10)))
        assert res.multiplicities[idx] == 2


class TestSphereOperator:
    def test_round_limit_values(self):
        op = fl.sphere_operator(0.0)
        phi = math.pi / 3
        assert float(op.c_theta2(phi)) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert float(op.c_phi2(phi)) == pytest.approx(1.0, rel=1e-12)
        assert float(op.c_phi(phi)) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_first_harmonic_exact_eigenfunction(self, rng):
        eps = 0.3
        op = fl.sphere_operator(eps)
        for _ in range(50):
            phi = rng.uniform(0.05, math.pi - 0.05)
            # u = sin(phi) e^{i theta}: theta part contributes -c_theta2 u
            val = (-op.c_theta2(phi) * math.sin(phi)
                   - op.c_phi2(phi) * math.sin(phi)
                   + op.c_phi(phi) * math.cos(phi))
            assert val == pytest.approx(-(2 - 2 * eps**2) * math.sin(phi), abs=1e-12)

    def test_coefficients_positive(self):
        op = fl.sphere_operator(0.7)
        phis = np.linspace(0.01, math.pi - 0.01, 100)
        assert np.all(op.c_theta2(phis) > 0)
        assert np.all(op.c_phi2(phis) > 0)


_EPS_ENTRY_POINTS = {
    "SphereOperator": fl.SphereOperator,
    "sphere_operator": fl.sphere_operator,
    "torus_operator": fl.torus_operator,
    "galerkin_matrices": lambda eps: fl.galerkin_matrices(eps, 0, 8),
    "harmonic_action": lambda eps: fl.harmonic_action(eps, 1, 0, 8),
    "kz_torus": fl.kz_torus,
    "kz_sphere": fl.kz_sphere,
}


@pytest.mark.parametrize("eps", [1.0, 1.5, -0.2, math.nan])
@pytest.mark.parametrize("entry", sorted(_EPS_ENTRY_POINTS))
def test_eps_outside_unit_interval_is_invalid(entry, eps):
    with pytest.raises(fl.InvalidMetricError, match=r"eps must be in \[0, 1\)"):
        _EPS_ENTRY_POINTS[entry](eps)


class TestLegendreBlock:
    def test_against_scipy(self, rng):
        c = np.linspace(-0.99, 0.99, 41)
        for m in (0, 1, 3):
            P, dP = fl.legendre_block(m, 8, c)
            for i, l in enumerate(range(m, 9)):
                norm = math.sqrt((2 * l + 1) / 2.0
                                 * math.factorial(l - m) / math.factorial(l + m))
                assert np.abs(P[i] - norm * lpmv(m, l, c)).max() < 1e-12

    def test_derivative_against_fd(self):
        c = np.linspace(-0.9, 0.9, 21)
        h = 1e-6
        for m in (0, 2):
            P, dP = fl.legendre_block(m, 6, c)
            phis = np.arccos(c)
            Pp, _ = fl.legendre_block(m, 6, np.cos(phis + h))
            Pm, _ = fl.legendre_block(m, 6, np.cos(phis - h))
            fd = (Pp - Pm) / (2 * h)
            assert np.abs(dP - fd).max() < 1e-7

    def test_orthonormal(self):
        c, w = np.polynomial.legendre.leggauss(64)
        P, _ = fl.legendre_block(2, 10, c)
        gram = (P * w) @ P.T
        assert np.abs(gram - np.eye(len(P))).max() < 1e-13


class TestHarmonicAction:
    def test_round_sphere_diagonal(self):
        for (l, m) in [(0, 0), (2, 1), (4, 3)]:
            col = fl.harmonic_action(0.0, l, m, 8)
            expected = np.zeros(8 - m + 1)
            expected[l - m] = -l * (l + 1)
            assert np.abs(col - expected).max() < 1e-10

    def test_exact_first_eigenfunction(self):
        col = fl.harmonic_action(0.3, 1, 1, 10)
        expected = np.zeros(10)
        expected[0] = -1.82
        assert np.abs(col - expected).max() < 1e-10

    def test_parity_structure(self):
        # the deformation couples l to l +- 2 only: even degrees stay even
        col = fl.harmonic_action(0.1, 2, 0, 9)
        odd = col[1::2]  # l = 1, 3, 5, ...
        assert np.abs(odd).max() < 1e-12
        assert abs(col[2] + 6.0) < 0.1  # dominated by the diagonal

    def test_m_preserved_by_construction(self):
        with pytest.raises(fl.ConfigError):
            fl.harmonic_action(0.1, 2, 3, 8)

    def test_quadrature_warning(self):
        with pytest.warns(UserWarning):
            fl.galerkin_matrices(0.1, 0, 8, nquad=12)


class TestPerturbationEigenvalue:
    def test_first_degree(self):
        for eps in (0.05, 0.3, 0.7):
            assert fl.perturbation_eigenvalue(1, 1, eps) == pytest.approx(-2 + 2 * eps**2, abs=1e-14)
            assert fl.perturbation_eigenvalue(1, 0, eps) == pytest.approx(-2.0, abs=1e-14)

    def test_round_limit(self):
        assert fl.perturbation_eigenvalue(2, 0, 0.0) == pytest.approx(-6.0, abs=1e-14)

    def test_matches_galerkin_to_fourth_order(self):
        # remainder lambda_gal - lambda_pert scales as eps^4
        for (l, m) in [(2, 0), (3, 1), (4, 2)]:
            errs = []
            for eps in (0.05, 0.1):
                prob = fl.assemble_eigenproblem(
                    fl.kz_sphere(eps), fl.SphereHarmonicBasis(lmax=12, m=m))
                res = fl.solve_eigen(prob, k=l - m + 1)
                lam = res.expand()[l - m]
                errs.append(abs(-lam - fl.perturbation_eigenvalue(l, m, eps)))
            ratio = errs[1] / errs[0]
            assert 16 * 0.7 <= ratio <= 16 * 1.3


class TestSphereHarmonicField:
    def test_value_matches_scipy(self, rng):
        f = fl.SphereHarmonicField(3, 2, "cos")
        for _ in range(5):
            phi = rng.uniform(0.2, math.pi - 0.2)
            th = rng.uniform(0, 2 * math.pi)
            norm = math.sqrt((2 * 3 + 1) / 2.0 * math.factorial(1) / math.factorial(5))
            expected = norm * lpmv(2, 3, math.cos(phi)) * math.cos(2 * th) / math.sqrt(math.pi)
            assert f(fl.sphere_point(phi, th)) == pytest.approx(expected, rel=1e-12)

    def test_gradient_hessian_vs_fd(self, rng):
        f = fl.SphereHarmonicField(4, 1, "sin")
        x = fl.sphere_point(1.1, 2.2)
        g = fl.field_gradient(f, x)
        hess = fl.field_hessian(f, x)
        h = 1e-5
        gu = (f(x.shifted(h, 0)) - f(x.shifted(-h, 0))) / (2 * h)
        gv = (f(x.shifted(0, h)) - f(x.shifted(0, -h))) / (2 * h)
        assert abs(g[0] - gu) < 1e-8 and abs(g[1] - gv) < 1e-8
        huu = (f(x.shifted(h, 0)) - 2 * f(x) + f(x.shifted(-h, 0))) / h**2
        assert abs(hess[0, 0] - huu) < 1e-5

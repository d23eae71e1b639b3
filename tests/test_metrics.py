import math

import numpy as np
import pytest

import finlap as fl
from conftest import builtin_metrics, random_point, random_vector


class TestEvalF:
    def test_kz_torus_forward(self):
        m = fl.kz_torus(0.6)
        assert fl.eval_f(m, fl.torus_point(0.1, 0.2), [1, 0]) == pytest.approx(0.625, abs=1e-12)

    def test_kz_torus_backward_non_reversible(self):
        m = fl.kz_torus(0.6)
        assert fl.eval_f(m, fl.torus_point(0.1, 0.2), [-1, 0]) == pytest.approx(2.5, abs=1e-12)

    def test_euclidean(self):
        m = fl.euclidean()
        assert fl.eval_f(m, fl.plane_point(0, 0), [3, 4]) == pytest.approx(5.0, abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(fl.DomainError):
            fl.eval_f(fl.euclidean(), fl.plane_point(0, 0), [0, 0])

    def test_randers_norm_bound_enforced(self):
        bad = fl.make_randers(np.eye(2), np.array([1.05, 0.0]))
        with pytest.raises(fl.InvalidMetricError):
            fl.eval_f(bad, fl.torus_point(0, 0), [1, 0])

    def test_kz_eps_bound(self):
        with pytest.raises(fl.InvalidMetricError):
            fl.kz_torus(1.0)

    def test_homogeneity(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(25):
                x = random_point(m, rng)
                v = random_vector(rng)
                lam = rng.uniform(1e-3, 10.0)
                f1 = fl.eval_f(m, x, lam * v)
                f0 = fl.eval_f(m, x, v)
                assert abs(f1 - lam * f0) <= 1e-10 * f0 * max(lam, 1.0), name


class TestIndicatrix:
    def test_euclidean_direction(self):
        v = fl.indicatrix_point(fl.euclidean(), fl.plane_point(0, 0), math.pi / 2)
        assert np.allclose(v, [0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("phi,expected", [(0.0, [1.6, 0.0]), (math.pi, [-0.4, 0.0])])
    def test_kz_torus(self, phi, expected):
        v = fl.indicatrix_point(fl.kz_torus(0.6), fl.torus_point(0, 0), phi)
        assert np.allclose(v, expected, atol=1e-12)

    def test_unit_level(self, rng):
        for name, m in builtin_metrics().items():
            x = random_point(m, rng)
            phis = rng.uniform(0, 2 * math.pi, size=16)
            vs = fl.indicatrix_point(m, x, phis)
            assert np.abs(m.f(x, vs) - 1.0).max() < 1e-12, name


class TestVerticalDerivative:
    def test_euclidean(self):
        d = fl.vertical_derivative(fl.euclidean(), fl.plane_point(0, 0), [3, 4])
        assert np.allclose(d, [0.6, 0.8], atol=1e-12)

    def test_kz_torus_matches_contact_form(self):
        # on the indicatrix at deformation angle t the form components are
        # ((cos t - eps)/(1-eps^2), sin t / sqrt(1-eps^2))
        eps = 0.6
        m = fl.kz_torus(eps)
        x = fl.torus_point(0.4, 0.9)
        for t in np.linspace(0.1, 2 * math.pi, 7):
            v = np.array([(1 - eps**2) * math.cos(t) / (1 - eps * math.cos(t)),
                          math.sqrt(1 - eps**2) * math.sin(t) / (1 - eps * math.cos(t))])
            d = fl.vertical_derivative(m, x, v)
            expected = np.array([(math.cos(t) - eps) / (1 - eps**2),
                                 math.sin(t) / math.sqrt(1 - eps**2)])
            assert np.allclose(d, expected, atol=1e-10)

    def test_degree_zero_homogeneity(self, rng):
        for name, m in builtin_metrics().items():
            x = random_point(m, rng)
            v = random_vector(rng)
            d1 = fl.vertical_derivative(m, x, v)
            d2 = fl.vertical_derivative(m, x, 2.0 * v)
            assert np.abs(d1 - d2).max() < 1e-10, name

    def test_euler_identity(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(10):
                x = random_point(m, rng)
                v = random_vector(rng)
                d = fl.vertical_derivative(m, x, v)
                assert abs(d @ v - fl.eval_f(m, x, v)) < 1e-6, name

    def test_fd_matches_analytic(self, rng):
        for name, m in builtin_metrics().items():
            x = random_point(m, rng)
            v = random_vector(rng)
            if name == "custom-quartic":
                with pytest.raises(fl.DomainError):
                    fl.vertical_derivative(m, x, v, "analytic")
                continue
            da = fl.vertical_derivative(m, x, v, "analytic")
            df = fl.vertical_derivative(m, x, v, "fd")
            assert np.abs(da - df).max() < 1e-8, name


class TestLegendreAndDual:
    def test_legendre_euclidean_identity(self):
        p = fl.legendre_forward(fl.euclidean(), fl.plane_point(0, 0), [3, 4])
        assert np.allclose(p, [3.0, 4.0], atol=1e-10)

    def test_dual_norm_euclidean(self):
        assert fl.dual_norm(fl.euclidean(), fl.plane_point(0, 0), [3, 4]) == pytest.approx(5.0, abs=1e-9)

    def test_dual_norm_randers(self):
        # dual ball of |v| + theta.v is the unit disc shifted by theta:
        # F*(p) solves |p/F* - theta| = 1, so F*(dx) = 1/1.6 and F*(-dx) = 1/0.4
        m = fl.make_randers(np.eye(2), np.array([0.6, 0.0]))
        x = fl.torus_point(0, 0)
        assert fl.dual_norm(m, x, [1.0, 0.0]) == pytest.approx(0.625, abs=1e-9)
        assert fl.dual_norm(m, x, [-1.0, 0.0]) == pytest.approx(2.5, abs=1e-9)

    def test_dual_norm_homogeneous(self, rng):
        m = fl.kz_torus(0.5)
        x = fl.torus_point(0.2, 0.2)
        p = random_vector(rng)
        lam = 3.7
        assert abs(fl.dual_norm(m, x, lam * p) - lam * fl.dual_norm(m, x, p)) < 1e-10 * lam

    def test_dual_norm_zero_covector(self):
        with pytest.raises(fl.DomainError):
            fl.dual_norm(fl.euclidean(), fl.plane_point(0, 0), [0, 0])

    def test_roundtrip_all_metrics(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(12):
                x = random_point(m, rng)
                v = random_vector(rng)
                f = fl.eval_f(m, x, v)
                p = fl.legendre_forward(m, x, v)
                assert abs(fl.dual_norm(m, x, p) - f) < 1e-6 * f, name

    def test_double_dual(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(8):
                x = random_point(m, rng)
                v = random_vector(rng)
                f = fl.eval_f(m, x, v)
                assert abs(fl.dual_norm_sampled(m, x, v) - f) < 1e-6 * f, name

    def test_riemannian_legendre_is_linear(self, rng):
        g = np.array([[1.4, 0.3], [0.3, 0.9]])
        m = fl.riemannian(g)
        x = fl.torus_point(0.1, 0.8)
        v = random_vector(rng)
        assert np.allclose(fl.legendre_forward(m, x, v), g @ v, atol=1e-9)


class TestConformal:
    def test_zero_factor_is_identity(self, rng):
        m = fl.kz_torus(0.4)
        scaled = fl.scale_conformal(m, fl.ConstantField(0.0))
        x = fl.torus_point(0.3, 0.3)
        v = random_vector(rng)
        assert fl.eval_f(scaled, x, v) == pytest.approx(fl.eval_f(m, x, v), rel=1e-15)

    def test_log2_doubles(self):
        scaled = fl.scale_conformal(fl.riemannian(np.eye(2)), fl.ConstantField(math.log(2.0)))
        assert fl.eval_f(scaled, fl.torus_point(0, 0), [1, 0]) == pytest.approx(2.0, abs=1e-14)

    def test_variable_factor(self, rng):
        m = fl.kz_torus(0.3)
        f = fl.SeparableTrigField(0.1, "sin", 1, "one", 0)
        scaled = fl.scale_conformal(m, f)
        for _ in range(10):
            x = random_point(m, rng)
            v = random_vector(rng)
            assert abs(fl.eval_f(scaled, x, v)
                       - math.exp(f(x)) * fl.eval_f(m, x, v)) < 1e-12


class TestConvexity:
    def test_margin_positive_for_builtins(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(8):
                x = random_point(m, rng)
                phi = rng.uniform(0, 2 * math.pi)
                assert fl.convexity_margin(m, x, phi) > 0.0, name


class TestKZGeneralVsSpecialized:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.6])
    def test_torus(self, eps, rng):
        m = fl.kz_torus(eps)
        x = fl.torus_point(0.7, 0.1)
        for _ in range(20):
            v = random_vector(rng)
            assert abs(fl.eval_f(m, x, v) - fl.torus_closed_form(eps, v)) < 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.6])
    def test_sphere(self, eps, rng):
        m = fl.kz_sphere(eps)
        for _ in range(20):
            phi = rng.uniform(0.2, math.pi - 0.2)
            x = fl.sphere_point(phi, rng.uniform(0, 2 * math.pi))
            v = random_vector(rng)
            assert abs(fl.eval_f(m, x, v) - fl.sphere_closed_form(eps, phi, v)) < 1e-12


class TestConstantTensorsCheckedOnce:
    def _count_spd_checks(self, monkeypatch):
        import finlap.metrics as metrics

        calls = []
        original = metrics._check_spd

        def counting(g, where):
            calls.append(where)
            return original(g, where)

        monkeypatch.setattr(metrics, "_check_spd", counting)
        return calls

    @pytest.mark.parametrize("make", [
        lambda g: fl.riemannian(g, chart=fl.TORUS),
        lambda g: fl.RandersMetric(g, np.array([0.3, 0.1])),
        lambda g: fl.KatokZillerMetric(g, np.array([1.0, 0.0]), 0.5),
    ])
    def test_constant_g_checked_once(self, make, monkeypatch, rng):
        calls = self._count_spd_checks(monkeypatch)
        m = make(np.eye(2))
        for _ in range(20):
            x = random_point(m, rng)
            fl.eval_f(m, x, random_vector(rng))
            fl.vertical_derivative(m, x, random_vector(rng))
        assert len(calls) == 1

    def test_callable_g_checked_at_every_evaluation(self, monkeypatch, rng):
        calls = self._count_spd_checks(monkeypatch)
        m = fl.riemannian(lambda x: np.eye(2), chart=fl.TORUS)
        for _ in range(20):
            fl.eval_f(m, random_point(m, rng), random_vector(rng))
        assert len(calls) == 20

    def test_bad_constant_randers_form_raises_every_time(self):
        bad = fl.RandersMetric(np.eye(2), np.array([1.05, 0.0]))
        messages = []
        for _ in range(2):
            with pytest.raises(fl.InvalidMetricError) as err:
                fl.eval_f(bad, fl.torus_point(0, 0), [1, 0])
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "g-norm 1.050000 >= 1" in messages[0]

    def test_bad_constant_g_raises_every_time(self):
        bad = fl.riemannian(np.array([[1.0, 0.0], [0.0, -1.0]]), chart=fl.TORUS)
        for _ in range(2):
            with pytest.raises(fl.InvalidMetricError, match="not positive definite"):
                fl.eval_f(bad, fl.torus_point(0, 0), [1, 0])

    def test_mutating_the_passed_arrays_leaves_f_unchanged(self):
        g = np.eye(2)
        theta = np.array([0.3, 0.0])
        m = fl.RandersMetric(g, theta)
        x = fl.torus_point(0.1, 0.2)
        before = fl.eval_f(m, x, [1.0, 1.0])
        g[0, 0] = 4.0
        theta[0] = -0.5
        assert fl.eval_f(m, x, [1.0, 1.0]) == before
        assert not m.g(x).flags.writeable

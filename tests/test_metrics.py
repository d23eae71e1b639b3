import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finlap as fl
from conftest import builtin_metrics, count_calls, quartic_norm, random_point, random_vector
from finlap.laplace import grid_symbol_density


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
        bad = fl.RandersMetric(np.eye(2), np.array([1.05, 0.0]))
        with pytest.raises(fl.InvalidMetricError):
            fl.eval_f(bad, fl.torus_point(0, 0), [1, 0])

    def test_kz_eps_bound(self):
        with pytest.raises(fl.InvalidMetricError):
            fl.kz_torus(1.0)

    def test_block_equals_one_point_calls(self, rng):
        for name, m in builtin_metrics().items():
            xs = [random_point(m, rng) for _ in range(7)]
            vs = np.array([random_vector(rng) for _ in xs])
            got = fl.eval_f(m, xs, vs)
            assert got.shape == (7,), name
            assert np.array_equal(got, [fl.eval_f(m, x, v) for x, v in zip(xs, vs)]), name

    @pytest.mark.parametrize("v, vs, message", [
        ([math.inf, 0.0], [[1.0, 0.0], [math.inf, 0.0]], "must be finite"),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], "must be nonzero"),
        ([1.0, 0.0, 0.0], [[1.0, 0.0]], "must have shape"),
    ], ids=["inf", "zero", "shape"])
    def test_bad_vector_is_domain_error(self, v, vs, message):
        # checked before F is evaluated, at one point and over a block: no
        # RuntimeWarning and no NaN value
        x = fl.torus_point(0.1, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point, arg in ((x, v), ([x, x], vs)):
                with pytest.raises(fl.DomainError, match=f"^tangent vector {message}"):
                    fl.eval_f(fl.kz_torus(0.5), point, arg)

    def test_non_positive_value_names_its_point(self):
        m = fl.custom(lambda x, vs: np.full(vs.shape[:-1], 1.0 if x.u < 0.5 else -1.0),
                      chart=fl.TORUS)
        xs = [fl.torus_point(0.1, 0.2), fl.torus_point(0.7, 0.3), fl.torus_point(0.8, 0.1)]
        with pytest.raises(fl.InvalidMetricError,
                           match=r"^F\(x, v\) = -1.0 is not positive at \(0.7, 0.3\)$"):
            fl.eval_f(m, xs, np.ones((3, 2)))
        with pytest.raises(fl.InvalidMetricError, match=r"at \(0.8, 0.1\)$"):
            fl.eval_f(m, xs[2], [1.0, 0.0])

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
        # the same norm as a custom metric takes the differenced d_vF
        for name, m in builtin_metrics().items():
            if not m.analytic_fiber_derivative:
                continue
            x = random_point(m, rng)
            v = random_vector(rng)
            da = fl.vertical_derivative(m, x, v)
            df = fl.vertical_derivative(fl.custom(m.f, chart=m.chart), x, v)
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
        m = fl.RandersMetric(np.eye(2), np.array([0.6, 0.0]))
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

    def test_position_independent_only_for_constant_factor(self):
        const = fl.ConstantField(0.7)
        assert fl.scale_conformal(fl.kz_torus(0.3), const).position_independent
        varying = fl.SeparableTrigField(0.2, "sin", 1, "cos", 1)
        assert not fl.scale_conformal(fl.kz_torus(0.3), varying).position_independent
        assert not fl.scale_conformal(fl.kz_sphere(0.3), const).position_independent

    def test_constant_factor_shortcut_is_bit_identical(self):
        scaled = fl.scale_conformal(fl.kz_torus(0.3), fl.ConstantField(0.7))
        sigma, rho = grid_symbol_density(scaled, 16)
        scaled.invariant_coords = frozenset()     # every grid point evaluated
        sigma_all, rho_all = grid_symbol_density(scaled, 16)
        assert np.array_equal(sigma, sigma_all) and np.array_equal(rho, rho_all)

    def test_block_makes_one_base_kernel_call(self, monkeypatch):
        kz = fl.KatokZillerMetric(_g_var, lambda x: np.array([1.0, _wave(0.3, 0, 1)(x)]), 0.5)
        scaled = fl.scale_conformal(kz, fl.SeparableTrigField(0.2, "sin", 1, "cos", 1))
        calls = {"_f": 0, "_d_vf": 0}
        for name in calls:
            original = getattr(fl.KatokZillerMetric, name)

            def counting(self, fields, vs, name=name, original=original):
                calls[name] += 1
                return original(self, fields, vs)
            monkeypatch.setattr(fl.KatokZillerMetric, name, counting)
        xs = [fl.torus_point(i / 16, 0.3 + i / 40) for i in range(16)]
        rays = np.broadcast_to(np.array([[1.0, 0.0], [0.3, -1.2], [-0.5, 0.4]]), (16, 3, 2))
        scaled.f(xs, rays)
        fl.vertical_derivative(scaled, xs, rays)
        assert calls == {"_f": 1, "_d_vf": 1}

    @pytest.mark.filterwarnings("error")
    def test_underflowing_factor_names_the_point(self):
        # exp(-800) is 0.0: a typed error naming the factor, not a
        # degenerate contact density downstream
        scaled = fl.scale_conformal(fl.kz_torus(0.3), fl.ConstantField(-800.0))
        with pytest.raises(fl.InvalidMetricError,
                           match=r"^conformal factor exp\(f\) underflows to 0 at \(0.2, 0.3\)$"):
            fl.volume_density(scaled, fl.torus_point(0.2, 0.3))


class TestFieldChecks:
    """Each field check runs over a whole block and names the first failing
    point in the message that point alone gives."""

    XS = [fl.torus_point(i / 16, 0.3) for i in range(16)]
    RAYS = np.broadcast_to(np.array([[1.0, 0.0], [0.0, 1.0]]), (16, 2, 2))
    # (metric from one field, a good callable field, a bad value, message start)
    CASES = {
        "non-symmetric-g": (lambda f: fl.riemannian(f, chart=fl.TORUS),
                            lambda p: np.eye(2), [[1.0, 0.5], [0.0, 1.0]],
                            "metric tensor not symmetric at"),
        "non-pd-g": (lambda f: fl.riemannian(f, chart=fl.TORUS),
                     lambda p: np.eye(2), [[1.0, 0.0], [0.0, -1.0]],
                     "metric tensor not positive definite at"),
        "randers-norm": (lambda f: fl.RandersMetric(np.eye(2), f),
                         lambda p: np.array([0.3 * math.sin(2 * math.pi * p.u), 0.0]),
                         [0.0, 1.25], "Randers 1-form has g-norm 1.250000 >= 1 at"),
        "kz-deformation": (lambda f: fl.KatokZillerMetric(np.eye(2), f, 0.5),
                           lambda p: np.array([1.0, 0.2 * math.cos(2 * math.pi * p.u)]),
                           [3.0, 0.0], "eps^2 * g(V,V) >= 1 at"),
        "nan-g": (lambda f: fl.riemannian(f, chart=fl.TORUS),
                  lambda p: np.eye(2), [[math.nan, 0.0], [0.0, 1.0]],
                  "metric tensor not finite at"),
        "inf-g": (lambda f: fl.RandersMetric(f, [0.3, 0.0]),
                  lambda p: np.eye(2), [[math.inf, 0.0], [0.0, 1.0]],
                  "metric tensor not finite at"),
        "nan-randers-form": (lambda f: fl.RandersMetric(np.eye(2), f),
                             lambda p: np.array([0.3, 0.0]), [math.nan, 0.0],
                             "Randers 1-form not finite at"),
        "nan-killing": (lambda f: fl.KatokZillerMetric(np.eye(2), f, 0.5),
                        lambda p: np.array([1.0, 0.0]), [1.0, math.nan],
                        "Killing field not finite at"),
        "overflowing-conformal": (
            lambda f: fl.scale_conformal(
                fl.kz_torus(0.3), fl.CallableField(f) if callable(f) else fl.ConstantField(f)),
            lambda p: 0.1 * p.u, 800.0, "conformal factor exp(f) not finite at"),
        "underflowing-conformal": (
            lambda f: fl.scale_conformal(
                fl.kz_torus(0.3), fl.CallableField(f) if callable(f) else fl.ConstantField(f)),
            lambda p: 0.1 * p.u, -800.0, "conformal factor exp(f) underflows to 0 at"),
    }

    @staticmethod
    def _message(call):
        with pytest.raises(fl.InvalidMetricError) as err:
            call()
        return str(err.value)

    @pytest.mark.parametrize("k", [0, 9, 15])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_point_in_block_named_as_alone(self, case, k):
        make, good, bad_value, start = self.CASES[case]
        bad = self.XS[k]
        m = make(lambda p: np.asarray(bad_value if p == bad else good(p), dtype=float))
        alone = self._message(lambda: m.f(bad, self.RAYS[0]))
        assert alone.startswith(start) and f"at ({bad.u}, {bad.v})" in alone
        assert self._message(lambda: m.f(self.XS, self.RAYS)) == alone
        assert self._message(lambda: fl.vertical_derivative(m, self.XS, self.RAYS)) == alone

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failing_constant_field_names_first_point(self, case):
        make, _, bad_value, start = self.CASES[case]
        m = make(np.array(bad_value))
        first = self.XS[0]
        alone = self._message(lambda: m.f(first, self.RAYS[0]))
        assert alone.startswith(start) and f"at ({first.u}, {first.v})" in alone
        assert self._message(lambda: m.f(self.XS, self.RAYS)) == alone
        second = self._message(lambda: fl.vertical_derivative(m, self.XS[1:], self.RAYS[1:]))
        assert second.startswith(start) and f"at ({self.XS[1].u}, {self.XS[1].v})" in second

    G_MESSAGE = r"^metric tensor must be 2x2, got \(2,\)$"
    FORM_MESSAGE = r"^1-form must have 2 components, got \(2, 2\)$"

    @pytest.mark.parametrize("make, message", [
        (lambda g, form: fl.riemannian(g), G_MESSAGE),
        (lambda g, form: fl.RandersMetric(g, [0.3, 0.0]), G_MESSAGE),
        (lambda g, form: fl.RandersMetric(np.eye(2), form), FORM_MESSAGE),
        (lambda g, form: fl.KatokZillerMetric(g, [1.0, 0.0], 0.5), G_MESSAGE),
        (lambda g, form: fl.KatokZillerMetric(np.eye(2), form, 0.5), FORM_MESSAGE),
        (lambda g, form: fl.inverse_design(g, 1.0, [1.0, 0.0], K=2.0), G_MESSAGE),
        (lambda g, form: fl.inverse_design(np.eye(2), 1.0, form, K=2.0), FORM_MESSAGE),
    ], ids=["riemannian-g", "randers-g", "randers-form", "kz-g", "kz-killing",
            "design-g-goal", "design-Z"])
    def test_wrong_shape_constant_field(self, make, message):
        with pytest.raises(fl.InvalidMetricError, match=message):
            make(np.ones(2), np.eye(2))

    @pytest.mark.parametrize("make", [
        lambda g, form, chart: fl.riemannian(g, chart=chart),
        lambda g, form, chart: fl.RandersMetric(g, form, chart=chart),
        lambda g, form, chart: fl.KatokZillerMetric(g, form, 0.5, chart=chart),
    ], ids=["riemannian", "randers", "katok-ziller"])
    def test_position_independent_when_both_fields_constant_off_sphere(self, make):
        g, form = np.eye(2), np.array([0.3, 0.0])
        for chart in (fl.TORUS, fl.PLANE, fl.SPHERE):
            assert make(g, form, chart).position_independent is (chart != fl.SPHERE)
            assert not make(lambda p: g, form, chart).position_independent
            m = make(g, lambda p: form, chart)
            # a Riemannian metric takes no 1-form
            assert m.position_independent is (m.kind == "riemannian" and chart != fl.SPHERE)


BOTH = frozenset({"u", "v"})


class TestInvariantCoords:
    """Only constructors that know it declare the coordinates F ignores."""

    def test_declarations(self):
        const, trig = fl.ConstantField(0.2), fl.SeparableTrigField(0.2, "sin", 1, "one", 0)
        cases = [
            (fl.kz_sphere(0.3), {"v"}),
            (fl.kz_torus(0.3), BOTH),
            (fl.euclidean(), BOTH),
            (fl.RandersMetric(np.eye(2), [0.3, 0.0], chart=fl.SPHERE), BOTH),
            (fl.RandersMetric(lambda x: np.eye(2), [0.3, 0.0]), frozenset()),
            (fl.custom(quartic_norm), frozenset()),
            (fl.scale_conformal(fl.kz_sphere(0.3), const), {"v"}),
            (fl.scale_conformal(fl.kz_torus(0.3), const), BOTH),
            # a factor that ignores v declares nothing either
            (fl.scale_conformal(fl.kz_torus(0.3), trig), frozenset()),
            (fl.scale_conformal(fl.kz_sphere(0.3), fl.SphereHarmonicField(2, 0)), frozenset()),
            (fl.scale_conformal(fl.custom(quartic_norm), const), frozenset()),
            (fl.scale_conformal(fl.scale_conformal(fl.kz_sphere(0.3), const), const), {"v"}),
        ]
        for m, declared in cases:
            assert m.invariant_coords == declared, m.kind
            assert m.position_independent is (declared == BOTH and m.chart != fl.SPHERE)

    def test_position_independent_is_read_only(self):
        m = fl.kz_torus(0.3)
        with pytest.raises(AttributeError):
            m.position_independent = False
        m.invariant_coords = frozenset({"u"})
        assert not m.position_independent
        assert fl.kz_torus(0.3).position_independent


class TestChartCheck:
    def test_fiber_derivative_checks_the_chart_as_f_does(self):
        m = fl.kz_torus(0.3)
        off = fl.sphere_point(1, 0)
        v = np.array([1.0, 0.5])
        with pytest.raises(fl.DomainError, match="chart 'torus', point is on 'sphere'"):
            m.f(off, v)
        with pytest.raises(fl.DomainError, match="point is on 'sphere'"):
            fl.vertical_derivative(m, off, v)
        block = [fl.torus_point(0.1, 0.2), off]
        with pytest.raises(fl.DomainError, match="point is on 'sphere'"):
            fl.vertical_derivative(m, block, np.ones((2, 3, 2)))
        with pytest.raises(fl.DomainError, match="point is on 'sphere'"):
            fl.volume_density(m, off)
        with pytest.raises(fl.DomainError, match="point is on 'sphere'"):
            fl.reeb_profile(m, off, [0.3])


class TestConvexity:
    def test_margin_positive_for_builtins(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(8):
                x = random_point(m, rng)
                phi = rng.uniform(0, 2 * math.pi)
                assert fl.convexity_margin(m, x, phi) > 0.0, name


    @pytest.mark.parametrize("name", list(builtin_metrics()))
    def test_hessian_in_one_call_equals_nine_call_stencil(self, name, rng, monkeypatch):
        from finlap import differences
        from finlap.metrics import hessian_f2

        m = builtin_metrics()[name]
        f = m.f
        calls = count_calls(monkeypatch, m)["f"]
        for _ in range(5):
            x, v = random_point(m, rng), random_vector(rng)

            def e(du, dv):
                return 0.5 * float(f(x, v + np.array([du, dv]))) ** 2

            want = differences.hessian(e, e(0.0, 0.0),
                                       differences.CONVEXITY_REL * float(np.linalg.norm(v)))
            calls.clear()
            got = hessian_f2(m, x, v)
            assert calls == [9]
            if m.kind == "custom":
                # the user's evaluator on nine rays need not round as it
                # does on one (quartic_norm's ** 0.25 differs in the last
                # bit), and the second difference scales that by 1/h^2
                np.testing.assert_allclose(got, want, rtol=1e-6)
            else:
                assert np.array_equal(got, want)


class TestCustomEvaluator:
    def test_scalar_only_evaluator_is_looped(self):
        def scalar_norm(x, v):
            return math.hypot(v[0], 2.0 * v[1])      # TypeError on an array

        def wrong_shape(x, vs):
            vs = np.asarray(vs, dtype=float)
            return np.hypot(vs[..., 0], 2.0 * vs[..., 1]).sum()    # one value

        vs = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 2.0]])
        for f in (scalar_norm, wrong_shape):
            m = fl.custom(f, chart=fl.PLANE)
            assert np.allclose(m.f(fl.plane_point(0.2, 0.3), vs), [1.0, 2.0, 5.0],
                               rtol=1e-15)

    def test_evaluator_failure_is_typed(self):
        def broken(x, vs):
            raise ZeroDivisionError("bad evaluator")

        def scalar_only_broken(x, v):
            if v[1] > 0.5:
                raise ValueError("bad ray")
            return math.hypot(v[0], v[1])

        x = fl.plane_point(0.25, -1.5)
        for f, cause in ((broken, ZeroDivisionError), (scalar_only_broken, ValueError)):
            m = fl.custom(f, chart=fl.PLANE)
            with pytest.raises(fl.InvalidMetricError, match=r"\(0\.25, -1\.5\)") as info:
                m.f(x, np.array([[1.0, 0.0], [0.0, 1.0]]))
            assert isinstance(info.value.__cause__, cause)


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
        lambda g: fl.RandersMetric(g, [0.6, 0.0]),
    ])
    def test_constant_g_checked_once(self, make, monkeypatch, rng):
        calls = self._count_spd_checks(monkeypatch)
        m = make(np.eye(2))
        assert m.position_independent
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


def _wave(amp, p_, q_):
    return lambda x: amp * math.sin(2 * math.pi * (p_ * x.u + q_ * x.v) + 0.3)


def _g_var(x):
    g12 = 0.2 * math.cos(2 * math.pi * x.u)
    return np.array([[1.4 + 0.3 * math.sin(2 * math.pi * x.v), g12],
                     [g12, 0.9 + 0.2 * math.cos(2 * math.pi * (x.u + x.v))]])


def block_metrics():
    """Metrics whose fields are callable, or mixed callable and constant."""
    conftest_metrics = builtin_metrics()
    return {
        "riemannian-var": conftest_metrics["riemannian-var"],
        "randers-var": conftest_metrics["randers-var"],
        "randers-callable": fl.RandersMetric(
            _g_var, lambda x: np.array([_wave(0.4, 1, 0)(x), _wave(0.3, 1, 1)(x)])),
        "kz-callable": fl.KatokZillerMetric(
            _g_var, lambda x: np.array([1.0, _wave(0.3, 0, 1)(x)]), 0.5),
        "kz-sphere-03": conftest_metrics["kz-sphere-03"],
        "custom-quartic": fl.custom(quartic_norm, chart=fl.TORUS),
        "conformal": fl.scale_conformal(conftest_metrics["randers-var"],
                                        fl.SeparableTrigField(0.3, "sin", 1, "cos", 1)),
    }


BLOCK_METRICS = block_metrics()


@st.composite
def blocks(draw):
    """(metric name, P base points, rays of shape (P, n, 2)) from a seed."""
    name = draw(st.sampled_from(sorted(BLOCK_METRICS)))
    n_points, n_rays = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = BLOCK_METRICS[name]
    xs = [random_point(m, rng) for _ in range(n_points)]
    angles = rng.uniform(0, 2 * math.pi, size=(n_points, n_rays))
    radii = 10.0 ** rng.uniform(-2, 2, size=(n_points, n_rays, 1))
    vs = radii * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return name, xs, vs


class TestBlockEvaluation:
    @settings(max_examples=60, deadline=None, database=None)
    @given(blocks())
    def test_block_equals_points(self, block):
        name, xs, vs = block
        m = BLOCK_METRICS[name]
        f = m.f(xs, vs)
        d = fl.vertical_derivative(m, xs, vs)
        assert f.shape == vs.shape[:-1] and d.shape == vs.shape
        for x, v, fx, dx in zip(xs, vs, f, d):
            f1 = m.f(x, v)
            d1 = fl.vertical_derivative(m, x, v)
            assert np.all(np.abs(fx - f1) <= 1e-15 * f1), name
            assert np.all(np.abs(dx - d1) <= 1e-15 * np.abs(d1).max(axis=-1, keepdims=True)), name

    @settings(max_examples=60, deadline=None, database=None)
    @given(blocks(), st.floats(1e-3, 1e3))
    def test_homogeneity_and_euler_identity(self, block, t):
        name, xs, vs = block
        m = BLOCK_METRICS[name]
        f = m.f(xs, vs)
        assert np.all(f > 0.0), name
        assert np.all(np.abs(m.f(xs, t * vs) - t * f) <= 1e-13 * t * f), name
        # a finite-difference d_vF is exact to about its roundoff, 1e-16 / FIBER_REL
        tol = 1e-12 if m.analytic_fiber_derivative else 1e-9
        d = fl.vertical_derivative(m, xs, vs)
        euler = np.einsum("...i,...i->...", d, vs)
        assert np.all(np.abs(euler - f) <= tol * f), name


class TestRoundSphereTensor:
    def test_block_form_equals_points(self):
        from finlap.metrics import _round_sphere_g

        xs = fl.sphere_base(7, 3).points
        g = _round_sphere_g(xs)
        assert g.shape == (21, 2, 2)
        for k, x in enumerate(xs):
            assert np.array_equal(g[k], _round_sphere_g(x))
            assert np.array_equal(g[k], [[1.0, 0.0], [0.0, math.sin(x.u) ** 2]])

    def test_one_tensor_call_per_block(self, monkeypatch):
        # the 96 points of one meridian are one block, and one tensor call
        from finlap import metrics

        calls = []
        tensor = metrics._round_sphere_g

        def counted(x):
            calls.append(x)
            return tensor(x)

        counted.takes_blocks = tensor.takes_blocks
        monkeypatch.setattr(metrics, "_round_sphere_g", counted)
        fl.sphere_total_volume(fl.kz_sphere(0.3), 96, 2)
        assert not [x for x in calls if isinstance(x, fl.ChartPoint)]
        assert [len(x) for x in calls] == [96]

import numpy as np
import pytest

import finlap as fl
from finlap import differences
from finlap.differences import central, hessian, jet_step, second
from conftest import builtin_metrics

EPS = np.finfo(float).eps
STEPS = [differences.JET, differences.HESSIAN, differences.GEODESIC, 1e-2]


def _quadratic(a, b, c, x0):
    return lambda t: a + b * (x0 + t) + c * (x0 + t) ** 2


@pytest.mark.parametrize("h", STEPS)
def test_central_is_exact_to_rounding_on_quadratics(h):
    rng = np.random.default_rng(5)
    for a, b, c, x0 in rng.uniform(-2.0, 2.0, size=(20, 4)):
        f = _quadratic(a, b, c, x0)
        scale = abs(a) + abs(b) * (abs(x0) + h) + abs(c) * (abs(x0) + h) ** 2
        assert abs(central(f, h) - (b + 2.0 * c * x0)) <= 8.0 * EPS * scale / h


def test_central_error_is_second_order_on_a_cubic():
    # the central difference of (x0 + t)^3 is 3 x0^2 + h^2 exactly
    x0 = 0.7
    errors = []
    for h in (1e-1, 5e-2, 2.5e-2, 1.25e-2):
        err = central(lambda t: (x0 + t) ** 3, h) - 3.0 * x0**2
        assert err == pytest.approx(h**2, rel=1e-9)
        errors.append(err)
    assert np.allclose(np.array(errors[:-1]) / errors[1:], 4.0, rtol=1e-6)


def test_central_takes_array_steps_and_evaluates_plus_first():
    calls = []

    def f(t):
        calls.append(np.copy(t))
        return 2.0 * t

    h = np.array([1e-5, 1e-3])
    assert np.array_equal(central(f, h), [2.0, 2.0])
    assert np.array_equal(calls[0], h) and np.array_equal(calls[1], -h)


@pytest.mark.parametrize("h", STEPS)
def test_second_is_exact_to_rounding_on_quadratics(h):
    rng = np.random.default_rng(6)
    for a, b, c, x0 in rng.uniform(-2.0, 2.0, size=(20, 4)):
        f = _quadratic(a, b, c, x0)
        scale = abs(a) + abs(b) * (abs(x0) + h) + abs(c) * (abs(x0) + h) ** 2
        assert abs(second(f, f(0.0), h) - 2.0 * c) <= 16.0 * EPS * scale / h**2


@pytest.mark.parametrize("h", [differences.HESSIAN, differences.GEODESIC, 1e-2])
def test_hessian_is_exact_to_rounding_on_quadratics(h):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0)
        g = rng.uniform(-2.0, 2.0, 2)
        A = rng.uniform(-2.0, 2.0, (2, 2))
        H = A + A.T

        def e(du, dv):
            d = np.array([du, dv])
            return a + g @ d + 0.5 * d @ H @ d

        scale = abs(a) + np.abs(g).sum() * h + np.abs(H).sum() * h**2
        got = hessian(e, e(0.0, 0.0), h)
        assert got.shape == (2, 2) and got[0, 1] == got[1, 0]
        assert np.abs(got - H).max() <= 16.0 * EPS * scale / h**2


def test_jet_step_widens_for_a_differenced_fiber_derivative():
    for name, m in builtin_metrics().items():
        want = differences.JET if m.analytic_fiber_derivative else differences.JET_NESTED
        assert jet_step(m) == want, name
    conformal = fl.scale_conformal(builtin_metrics()["custom-quartic"], fl.ConstantField(0.3))
    assert jet_step(conformal) == differences.JET_NESTED


import math
import sys

import numpy as np
import pytest

import finlap as fl


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_point(metric, rng):
    if metric.chart == fl.SPHERE:
        return fl.sphere_point(rng.uniform(0.15, math.pi - 0.15),
                               rng.uniform(0.0, 2.0 * math.pi))
    return fl.ChartPoint(metric.chart, rng.uniform(0, 1), rng.uniform(0, 1))


def random_vector(rng, rmin=0.2, rmax=3.0):
    ang = rng.uniform(0, 2 * math.pi)
    return rng.uniform(rmin, rmax) * np.array([math.cos(ang), math.sin(ang)])


def quartic_norm(x, vs):
    """Smooth strongly convex non-Riemannian norm for the custom-metric kind."""
    vs = np.asarray(vs, dtype=float)
    r2 = vs[..., 0] ** 2 + vs[..., 1] ** 2
    return (r2**2 + 0.5 * vs[..., 0] ** 4) ** 0.25


def builtin_metrics():
    """One representative of each built-in kind, keyed for test ids."""
    return {
        "riemannian-id": fl.riemannian(np.eye(2), chart=fl.TORUS),
        "riemannian-var": fl.riemannian(
            lambda p: np.array([
                [1.0 + 0.3 * math.sin(2 * math.pi * p.v), 0.1 * math.cos(2 * math.pi * p.u)],
                [0.1 * math.cos(2 * math.pi * p.u), 1.2 + 0.2 * math.cos(2 * math.pi * p.u)],
            ]),
            chart=fl.TORUS,
        ),
        "randers-06": fl.RandersMetric(np.eye(2), np.array([0.6, 0.0]), chart=fl.TORUS),
        "randers-var": fl.RandersMetric(
            np.eye(2),
            lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0]),
            chart=fl.TORUS,
        ),
        "kz-torus-06": fl.kz_torus(0.6),
        "kz-sphere-03": fl.kz_sphere(0.3),
        "custom-quartic": fl.custom(quartic_norm, chart=fl.TORUS),
    }


def count_calls(monkeypatch, metric):
    """Record the calls of ``metric.f`` and ``metric.d_vf`` (every
    vertical_derivative call reaches d_vf), and of indicatrix_point, rebound
    in every finlap module: the number of rays of each call, in order."""
    calls = {"f": [], "d_vf": [], "indicatrix_point": []}

    def counting(name, fn, rays):
        def wrapped(*args, **kwargs):
            calls[name].append(int(np.prod(np.shape(args[rays])[:-1])))
            return fn(*args, **kwargs)
        return wrapped

    for name in ("f", "d_vf"):
        monkeypatch.setattr(metric, name, counting(name, getattr(metric, name), 1))
    wrapped = counting("indicatrix_point", fl.indicatrix_point, 2)
    for key, mod in list(sys.modules.items()):
        if key.startswith("finlap") and vars(mod).get("indicatrix_point") is fl.indicatrix_point:
            monkeypatch.setattr(mod, "indicatrix_point", wrapped)
    return calls

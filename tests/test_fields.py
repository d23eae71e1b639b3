import math

import numpy as np
import pytest

import finlap as fl
from finlap.fields import field_gradients, field_hessians, field_values
from finlap.measures import sphere_base, torus_base


def _quadratic():
    return fl.CallableField(lambda p: p.u**2 - 0.5 * p.u * p.v + math.sin(p.v))


def _trig_fields():
    kinds = ("one", "sin", "cos")
    return {f"trig-{ku}-{kv}": fl.SeparableTrigField(1.3, ku, 1, kv, 2)
            for ku in kinds for kv in kinds}


def _chart_fields():
    """Fields of chart coordinates, defined at torus and sphere points."""
    fields = {
        "constant": fl.ConstantField(0.7),
        "sum-with-callable": fl.SumField([fl.SeparableTrigField(0.5, "sin", 1, "cos", 1),
                                          _quadratic(),
                                          fl.ConstantField(-0.2)]),
        "callable": _quadratic(),
        "callable-analytic": fl.CallableField(
            lambda p: p.u * p.v,
            gradient=lambda p: np.array([p.v, p.u]),
            hessian=lambda p: np.array([[0.0, 1.0], [1.0, 0.0]])),
    }
    fields.update(_trig_fields())
    return fields


def _sphere_fields():
    return {"harmonic-m0": fl.SphereHarmonicField(3, 0),
            "harmonic-sin": fl.SphereHarmonicField(4, 2, "sin"),
            "harmonic-cos": fl.SphereHarmonicField(5, 5, "cos")}


def _cases():
    torus, sphere = torus_base(8).points, sphere_base(5, 7).points
    cases = [(name, f, torus) for name, f in _chart_fields().items()]
    cases += [(name, f, sphere) for name, f in _chart_fields().items()]
    cases += [(name, f, sphere) for name, f in _sphere_fields().items()]
    return cases


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestArrayForm:
    @pytest.mark.parametrize("name, f, points", _cases(),
                             ids=[f"{c[0]}-{len(c[2])}" for c in _cases()])
    def test_equals_per_point_forms(self, name, f, points):
        values = field_values(f, points)
        grads = field_gradients(f, points)
        hessians = field_hessians(f, points)
        assert values.shape == (len(points),)
        assert grads.shape == (len(points), 2)
        assert hessians.shape == (len(points), 2, 2)
        _close(values, [fl.fields.field_value(f, x) for x in points])
        _close(grads, [fl.field_gradient(f, x) for x in points])
        _close(hessians, [fl.field_hessian(f, x) for x in points])

    @pytest.mark.parametrize("f", list(_chart_fields().values())
                             + list(_sphere_fields().values()))
    def test_one_point_shapes(self, f):
        x = fl.sphere_point(1.1, 2.3)
        assert np.shape(field_values(f, x)) == ()
        assert field_gradients(f, x).shape == (2,)
        assert field_hessians(f, x).shape == (2, 2)
        _close(field_values(f, x), f(x))
        _close(field_gradients(f, x), fl.field_gradient(f, x))
        _close(field_hessians(f, x), fl.field_hessian(f, x))

    def test_per_point_methods_are_the_one_point_case(self):
        f = fl.SeparableTrigField(0.3, "sin", 2, "cos", 1)
        x = fl.torus_point(0.3, 0.8)
        assert f(x) == 0.3 * math.sin(4 * math.pi * 0.3) * math.cos(2 * math.pi * 0.8)
        assert isinstance(f(x), float)
        block = [x, fl.torus_point(0.1, 0.2)]
        assert f.values(block)[0] == f(x)
        assert np.array_equal(f.gradients(block)[0], f.gradient(x))
        assert np.array_equal(f.hessians(block)[0], f.hessian(x))

    def test_empty_block(self):
        f = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0), _quadratic()])
        assert field_values(f, []).shape == (0,)
        assert field_gradients(f, []).shape == (0, 2)
        assert field_hessians(f, []).shape == (0, 2, 2)

    @pytest.mark.parametrize("n", [1, 3, 8, 17])
    def test_torus_grid_coords(self, n):
        points = torus_base(n).points
        uv = points.coords
        assert uv.shape == (n * n, 2)
        assert np.array_equal(uv, [(x.u, x.v) for x in points])

    def test_builtin_fields_never_evaluated_per_point(self, monkeypatch):
        """The oracles on a torus grid use the array form alone: no per-point
        field method is called, and each walk builds only the one grid point
        that a position-independent metric is evaluated at."""
        from finlap.laplace import weighted_symmetry_residual
        from finlap.charts import _Grid

        def forbidden(self, x):
            raise AssertionError("per-point field method called")

        for name in ("__call__", "gradient", "hessian"):
            monkeypatch.setattr(fl.fields.ArrayField, name, forbidden)
        built = []
        read = _Grid.__getitem__

        def counted(self, k):
            if isinstance(k, int):
                built.append(k)
            return read(self, k)

        monkeypatch.setattr(_Grid, "__getitem__", counted)
        m = fl.kz_torus(0.4)
        u = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                         fl.SeparableTrigField(0.5, "one", 0, "sin", 2)])
        base = torus_base(16)
        assert fl.energy(m, u, base) > 0.0
        assert fl.omega_norm_sq(m, u, base) > 0.0
        assert abs(fl.omega_mean(m, u, base)) < 1e-12
        weighted_symmetry_residual(m, 16, u)
        # energy, the two norms and the grid coefficients: one point each
        assert built == [0, 0, 0, 0]

"""Scalar fields on a chart, with optional analytic derivatives.

A scalar field is any callable ``f(x: ChartPoint) -> float``.  Fields may
additionally provide ``gradient(x) -> (2,)`` and ``hessian(x) -> (2,2)``;
the helpers below fall back to the central differences of
:mod:`finlap.differences` when they do not.  Fields on the torus chart
must be 1-periodic in both coordinates.

Array form: a field may also provide ``values(x)``, ``gradients(x)`` and
``hessians(x)``, which take one ChartPoint or a block of P points (a
sequence of ChartPoint) and return arrays of shapes (P,), (P, 2) and
(P, 2, 2) on a block, (), (2,) and (2, 2) at one point.  They read the
chart coordinates of the block with :func:`coords`, from the block's
``coords`` array when it has one (the points of
:func:`finlap.measures.torus_base` and :func:`finlap.measures.sphere_base`),
without a loop over the points.
:func:`field_values`, :func:`field_gradients` and :func:`field_hessians`
use a field's array form when it has one and otherwise call the field
once per point.  Every built-in field except :class:`CallableField` has
the array form, and its per-point ``__call__``, ``gradient`` and
``hessian`` are the one-point case of it; a :class:`SumField` gathers
each of its terms through the helpers, so a term without the array form
falls back alone.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from . import differences
from .charts import BOTH_COORDS, ChartPoint

_TRIG = {
    "one": (np.ones_like, np.zeros_like, np.zeros_like),
    "sin": (np.sin, np.cos, lambda t: -np.sin(t)),
    "cos": (np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)),
}


def coords(x):
    """Chart coordinates ``(u, v)``: two floats at one ChartPoint, two (P,)
    arrays over a block of P points (the block's ``coords`` array, of
    shape (P, 2), when it has one)."""
    if isinstance(x, ChartPoint):
        return x.u, x.v
    uv = getattr(x, "coords", None)
    if uv is None:
        uv = np.array([(p.u, p.v) for p in x], dtype=float).reshape(-1, 2)
    return uv[:, 0], uv[:, 1]


def _shape(x) -> tuple:
    return () if isinstance(x, ChartPoint) else (len(x),)


def _gradient(du, dv) -> np.ndarray:
    return np.stack([du, dv], axis=-1)


def _hessian(huu, huv, hvv) -> np.ndarray:
    return np.stack([_gradient(huu, huv), _gradient(huv, hvv)], axis=-2)


def field_value(f, x: ChartPoint) -> float:
    return float(f(x))


def field_gradient(f, x: ChartPoint) -> np.ndarray:
    """Gradient of f at x, analytic when the field provides one, else
    differenced with the step ``differences.GRADIENT``."""
    g = getattr(f, "gradient", None)
    if g is not None:
        return np.asarray(g(x), dtype=float)
    h = differences.GRADIENT
    return np.array([differences.central(lambda t: f(x.shifted(t, 0.0)), h),
                     differences.central(lambda t: f(x.shifted(0.0, t)), h)])


def field_hessian(f, x: ChartPoint) -> np.ndarray:
    """Hessian of f at x, analytic when the field provides one, else
    differenced with the step ``differences.HESSIAN``."""
    hess = getattr(f, "hessian", None)
    if hess is not None:
        return np.asarray(hess(x), dtype=float)
    return differences.hessian(lambda du, dv: f(x.shifted(du, dv)), f(x),
                               differences.HESSIAN)


def _gather(f, x, form: str, one: Callable, shape: tuple) -> np.ndarray:
    """f's array method ``form`` at x, or ``one(f, p)``, of the given
    shape, at each point."""
    method = getattr(f, form, None)
    if method is not None:
        return method(x)
    if isinstance(x, ChartPoint):
        return np.asarray(one(f, x), dtype=float)
    return np.array([one(f, p) for p in x], dtype=float).reshape((len(x),) + shape)


def field_values(f, points) -> np.ndarray:
    """f at one ChartPoint or a block of P points, shape () or (P,)."""
    return _gather(f, points, "values", field_value, ())


def field_gradients(f, points) -> np.ndarray:
    """:func:`field_gradient` at one ChartPoint or a block of P points,
    shape (2,) or (P, 2)."""
    return _gather(f, points, "gradients", field_gradient, (2,))


def field_hessians(f, points) -> np.ndarray:
    """:func:`field_hessian` at one ChartPoint or a block of P points,
    shape (2, 2) or (P, 2, 2)."""
    return _gather(f, points, "hessians", field_hessian, (2, 2))


class ArrayField:
    """A field with the array form: the per-point methods are its one-point
    case."""

    def __call__(self, x: ChartPoint) -> float:
        return float(self.values(x))

    def gradient(self, x: ChartPoint) -> np.ndarray:
        return self.gradients(x)

    def hessian(self, x: ChartPoint) -> np.ndarray:
        return self.hessians(x)


class CallableField:
    """Wrap explicit value/gradient/hessian closures into a field."""

    def __init__(self, value: Callable[[ChartPoint], float],
                 gradient: Optional[Callable] = None,
                 hessian: Optional[Callable] = None):
        self._value = value
        if gradient is not None:
            self.gradient = gradient
        if hessian is not None:
            self.hessian = hessian

    def __call__(self, x: ChartPoint) -> float:
        return float(self._value(x))


class ConstantField(ArrayField):
    #: a constant depends on neither coordinate; no other field declares
    #: an invariant coordinate (``finlap.metrics.ConformalMetric``)
    invariant_coords = BOTH_COORDS

    def __init__(self, c: float):
        self.c = float(c)

    def values(self, x) -> np.ndarray:
        return np.full(_shape(x), self.c)

    def gradients(self, x) -> np.ndarray:
        return np.zeros(_shape(x) + (2,))

    def hessians(self, x) -> np.ndarray:
        return np.zeros(_shape(x) + (2, 2))


class SeparableTrigField(ArrayField):
    """a * trig_u(2*pi*p*u) * trig_v(2*pi*q*v) with analytic derivatives.

    ``trig_u``/``trig_v`` are one of "one", "sin", "cos".  Periodic on the
    torus chart for integer p, q.
    """

    def __init__(self, a: float, trig_u: str, p: float, trig_v: str, q: float):
        self.a = float(a)
        self.fu, self.dfu, self.ddfu = _TRIG[trig_u]
        self.fv, self.dfv, self.ddfv = _TRIG[trig_v]
        self.wu = 2.0 * math.pi * p
        self.wv = 2.0 * math.pi * q

    def _angles(self, x):
        u, v = coords(x)
        return self.wu * u, self.wv * v

    def values(self, x) -> np.ndarray:
        tu, tv = self._angles(x)
        return self.a * self.fu(tu) * self.fv(tv)

    def gradients(self, x) -> np.ndarray:
        tu, tv = self._angles(x)
        return self.a * _gradient(self.wu * self.dfu(tu) * self.fv(tv),
                                  self.wv * self.fu(tu) * self.dfv(tv))

    def hessians(self, x) -> np.ndarray:
        tu, tv = self._angles(x)
        huu = self.wu**2 * self.ddfu(tu) * self.fv(tv)
        hvv = self.wv**2 * self.fu(tu) * self.ddfv(tv)
        huv = self.wu * self.wv * self.dfu(tu) * self.dfv(tv)
        return self.a * _hessian(huu, huv, hvv)


class SumField(ArrayField):
    def __init__(self, fields: Sequence):
        self.fields = list(fields)

    def values(self, x) -> np.ndarray:
        return sum(field_values(f, x) for f in self.fields)

    def gradients(self, x) -> np.ndarray:
        return np.sum([field_gradients(f, x) for f in self.fields], axis=0)

    def hessians(self, x) -> np.ndarray:
        return np.sum([field_hessians(f, x) for f in self.fields], axis=0)

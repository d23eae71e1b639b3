"""Finsler metrics on 2-dimensional charts.

Pointwise constructions that need only the metric itself: evaluation,
indicatrix parametrization, vertical derivative, Legendre transform,
conformal rescaling, and the one support search behind the dual norm,
the Holmes-Thompson density and the double dual.  That search scans the
indicatrix in the orthonormal frame, looks up each covector's best scan
point among the edge normals of the convex scan polygon, without a
matrix of every covector against every scan point, and refines it by
parabolic steps.  Its per-block work is done once per search: the metric
is bound to the point or block once (:meth:`FinslerMetric2D._bind`: the
chart checked, the fields gathered and checked, the frame stretch found),
and the scan and every refinement round evaluate on that binding; for a
position-independent metric the scan is made at the block's first point
alone, and the Holmes-Thompson density, whose dual rays are then shared,
is one value.  The refinement rounds stay per point, on each point's own
covectors.

All vector/covector arguments are numpy arrays of shape ``(..., 2)`` in
the chart basis.  Metric evaluators take either one base point, with rays
of any leading shape, or a block of base points (a sequence of
:class:`~finlap.charts.ChartPoint`) with rays of shape ``(P, n, 2)``, one
row of rays per point.  The Riemannian, Randers and Katok-Ziller metrics
share one tensor-field layer: a pair of an SPD tensor g and a 1-form,
each a constant or a callable (:class:`_Field`), gathered and checked in
one function that takes a point or a block, with each kind's formulas
written once over them: a field carries a leading point axis on a block
and none at one point or when it is constant.  A conformal metric scales
one call of its base metric; only a custom metric loops over a block's
points.  ``F`` and ``d_vF`` are a binding used once, so that ``F`` has one
evaluation path.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, Optional, Union

import numpy as np

from . import differences
from .charts import BOTH_COORDS, ChartPoint, PLANE, SPHERE, TORUS, _Grid
from .errors import ConfigError, DomainError, FinlapError, InvalidMetricError
from .fields import field_values

#: indicatrix scan points of :func:`dual_norm`
DUAL_COARSE_N = 256
#: dual rays of :func:`holmes_thompson_density`, each refined, and the
#: grid of :func:`dual_norm_sampled`, of which only the rays of a bracket
#: are evaluated and only the best is refined
DUAL_RAYS = 512
#: indicatrix scan points of :func:`holmes_thompson_density`
HT_BOUNDARY_N = 2048
#: indicatrix scan points of :func:`dual_norm_sampled`
SAMPLED_BOUNDARY_N = 1024

MatrixField = Union[np.ndarray, Callable[[ChartPoint], np.ndarray]]
CovectorField = Union[np.ndarray, Callable[[ChartPoint], np.ndarray]]


#: what a constant field of the wrong shape is told, by the shape it must have
_SHAPE_MESSAGES = {(2, 2): "metric tensor must be 2x2", (2,): "1-form must have 2 components"}


class _Field:
    """A tensor field: a callable ``x -> array`` at one point as it is, or
    a constant of ``shape`` as a read-only float copy, so that it cannot
    change after it has been checked (InvalidMetricError if its shape is
    another).  ``constant`` tells which."""

    def __init__(self, value, shape: tuple):
        self.constant = not callable(value)
        if self.constant:
            value = np.array(value, dtype=float)
            value.setflags(write=False)
            if value.shape != shape:
                raise InvalidMetricError(f"{_SHAPE_MESSAGES[shape]}, got {value.shape}")
        self._value = value

    def __call__(self, x: ChartPoint) -> np.ndarray:
        return self._value if self.constant else self._value(x)

    def at(self, x) -> np.ndarray:
        """The field in its one-point shape at one point or when constant,
        and stacked as (P, ...) over a block of P points: from one call of
        a callable whose ``takes_blocks`` attribute is true, and otherwise
        from one call per point."""
        if self.constant:
            return self._value
        if isinstance(x, ChartPoint) or getattr(self._value, "takes_blocks", False):
            return np.asarray(self._value(x), dtype=float)
        return np.array([self._value(p) for p in x], dtype=float)


def _failing(x, bad: np.ndarray):
    """``(k, "(u, v)")`` for the first entry k of ``bad`` that holds and
    its point of x, or None when none holds.  ``bad`` has shape () (one
    flag, k = 0, at one point or for a constant field, which over a block
    names the block's first point), (P,) with one flag per point of a
    block, or (P, n) with a row of flags per point, k its row; at one
    point any shape names the point."""
    if not bad.any():
        return None
    k = int(np.argmax(bad.any(axis=tuple(range(1, bad.ndim)))))
    p = x if isinstance(x, ChartPoint) else x[k]
    return k, f"({p.u}, {p.v})"


def _check_finite(ok: np.ndarray, x, what: str):
    """Raise InvalidMetricError naming ``what`` at the first point of x
    whose flag in ``ok``, shaped as :func:`_failing` takes it, is False."""
    bad = _failing(x, ~ok)
    if bad is not None:
        raise InvalidMetricError(f"{what} not finite at {bad[1]}")


def _check_spd(g: np.ndarray, x):
    """Raise InvalidMetricError at the first point of x where the tensor g,
    (2, 2) or (P, 2, 2), is not finite, not symmetric or not positive
    definite."""
    _check_finite(np.isfinite(g).all(axis=(-2, -1)), x, "metric tensor")
    g01 = g[..., 0, 1]
    asym = np.abs(g01 - g[..., 1, 0]) > 1e-12 * (1.0 + np.abs(g01))
    bad = _failing(x, asym | (g[..., 0, 0] <= 0.0) | (np.linalg.det(g) <= 0.0))
    if bad is not None:
        k, where = bad
        what = "symmetric" if asym.flat[k] else "positive definite"
        raise InvalidMetricError(f"metric tensor not {what} at {where}")


def _randers_norm_sq(g: np.ndarray, th: np.ndarray, x) -> np.ndarray:
    """|theta|_g^2 of the 1-form th, (2,) or (P, 2), against g; raise
    InvalidMetricError at the first point of x where |theta|_g >= 1."""
    n2 = _inner(th, np.linalg.solve(g, th[..., None])[..., 0])
    nrm = np.sqrt(n2)
    bad = _failing(x, nrm >= 1.0)
    if bad is not None:
        k, where = bad
        raise InvalidMetricError(
            f"Randers 1-form has g-norm {nrm.flat[k]:.6f} >= 1 at {where}")
    return n2


def _inner(vs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Euclidean pairing of rays along the last axis (two products and a
    sum: cheaper than einsum from one ray to thousands)."""
    return vs[..., 0] * ws[..., 0] + vs[..., 1] * ws[..., 1]


def _dot(vs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a(v) for the rays vs and a 1-form a: (2,) at one point, or (P, 1, 2)
    over a block, whose rays vs have shape (P, n, 2)."""
    if a.ndim == 1:
        return vs @ a
    return (vs @ a.swapaxes(-1, -2))[..., 0]


def at_points(x, rays: np.ndarray) -> np.ndarray:
    """The rays (n, 2) at one base point as they are, and at every point of
    a block as a read-only (P, n, 2) view; a block's rays may already be
    per point, (P, n, 2)."""
    if isinstance(x, ChartPoint):
        return rays
    return np.broadcast_to(rays, (len(x),) + rays.shape[-2:])


def _nonempty(x):
    """Raise ConfigError if x is an empty block of base points."""
    if not isinstance(x, ChartPoint) and not len(x):
        raise ConfigError("a block of base points needs at least one point")


class FinslerMetric2D:
    """Base class: a Finsler norm F(x, v) on a chart.

    Subclasses implement ``_f(fields, vs)`` and, when available, the
    analytic vertical derivative ``_d_vf(fields, vs) -> (..., 2)``, each
    over the ``fields`` that ``_gather(x)`` returns for one base point,
    with rays of any leading shape ``(..., 2)``, or for a sequence of P
    base points with rays of shape ``(P, n, 2)``: the point or block
    itself unless overridden.  Without an analytic d_vF it is the central
    difference of ``_f`` in each component of v.  :meth:`_bind` gathers
    once for any number of evaluations on the rays of x, and :meth:`f`
    and :meth:`d_vf` are a binding used once: F has one evaluation path.

    ``invariant_coords`` names the chart coordinates F is declared not to
    depend on.  Only a constructor that knows it declares it: ``kz_sphere``
    theta, a tensor-field metric whose fields are both constant both
    coordinates, a conformal metric those of its base and its factor.  A
    custom metric or a callable field declares none, and nothing is
    inferred by sampling.  ``position_independent`` follows from it.
    """

    chart: str = TORUS
    kind: str = "custom"
    #: the chart coordinates, of "u" and "v", on which F(x, v) is declared
    #: not to depend: set only by the constructors that know it, never
    #: inferred.  A walk over base points (measures._over_points) evaluates
    #: one point per line of the coordinates it may drop.
    invariant_coords: frozenset = frozenset()
    #: False when d_vF is differenced; the jet of the Hilbert form then
    #: takes the wider step of :func:`finlap.differences.jet_step`.
    analytic_fiber_derivative: bool = True

    @property
    def position_independent(self) -> bool:
        """True when F(x, v) is declared not to depend on the base point x
        (both coordinates invariant) off the sphere chart, whose frame
        depends on phi: the metric is then one Minkowski norm."""
        return self.invariant_coords == BOTH_COORDS and self.chart != SPHERE

    def _gather(self, x):
        return x

    def _f(self, fields, vs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _d_vf(self, fields, vs: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(vs, axis=-1)
        if np.any(norms == 0.0):
            raise DomainError("vertical derivative undefined at the zero vector")
        h = differences.FIBER_REL * norms
        return np.stack([differences.central(lambda t: self._f(fields, vs + t[..., None] * e), h)
                         for e in np.eye(2)], axis=-1)

    def _bind(self, x) -> "_Binding":
        """The metric bound to one base point or a block of them
        (:class:`_Binding`)."""
        return _Binding(self, x)

    def f(self, x, vs: np.ndarray) -> np.ndarray:
        """Vectorized norm evaluation; no zero-vector check.

        ``x`` is one base point, or a block of base points (a sequence of
        ChartPoint) for which ``vs`` has shape ``(len(x), n, 2)``.
        """
        return self._bind(x).f(vs)

    def d_vf(self, x, vs: np.ndarray) -> np.ndarray:
        """The fiber derivative at one point or over a block (as :meth:`f`,
        with the same chart check): analytic when the metric has it."""
        return self._bind(x).d_vf(vs)

    def _density_scale(self, x):
        """The factor by which conformal factors scale the contact density
        at x, () at one point or (P, 1) over a block: 1 for a metric with
        none.  The contact-density floor of :mod:`finlap.hilbert` is
        relative to it."""
        return 1.0

    def _check_chart(self, x):
        _nonempty(x)
        for p in (x,) if isinstance(x, (ChartPoint, _Grid)) else x:
            if p.chart != self.chart:
                raise DomainError(
                    f"metric lives on chart {self.chart!r}, point is on {p.chart!r}"
                )


class _Binding:
    """A metric bound to one base point or a block of them, ``x``: the
    chart is checked and the fields are gathered and checked (a conformal
    factor's exp(f) among them) once, when it is made, and the frame
    stretch is found once, on first use.  ``f`` and ``d_vf`` then evaluate
    any rays of x, shaped as :meth:`FinslerMetric2D.f` takes them, without
    repeating that work.  A support search makes one for all its rounds.
    It keeps nothing on the metric."""

    def __init__(self, metric: FinslerMetric2D, x):
        metric._check_chart(x)
        self.metric = metric
        self.x = x
        self._fields = metric._gather(x)

    @functools.cached_property
    def stretch(self):
        """:func:`frame_stretch` of x."""
        return frame_stretch(self.x)

    def f(self, vs) -> np.ndarray:
        return self.metric._f(self._fields, np.asarray(vs, dtype=float))

    def d_vf(self, vs) -> np.ndarray:
        return self.metric._d_vf(self._fields, np.asarray(vs, dtype=float))


class _TensorFieldMetric(FinslerMetric2D):
    """A metric built on the pair of an SPD tensor field g and a 1-form
    field (:class:`_Field`, zero for a Riemannian metric).

    ``_gather(x)``, at one point or over a block, checks g and then the
    pair (the subclass's ``_check``), which returns the fields that the
    subclass's ``_f`` and ``_d_vf`` are written over, once: at one point
    in their one-point shapes, and over a block g as (P, 2, 2), a 1-form
    (P, 1, 2) and a scalar (P, 1), to broadcast against rays (P, n, 2),
    while a constant field keeps its one-point shape.  A callable field is
    called once per point, or once per block when it takes blocks (the
    round tensor of ``kz_sphere``), and once per binding
    (:meth:`FinslerMetric2D._bind`): a support search over a block calls
    it once per point, whatever its number of rounds.  Each check names
    the first failing point of a block, in the message the point alone
    would give.

    When both fields are constant, the gathered fields are checked on the
    first evaluation and kept on the metric, and the metric declares both
    coordinates invariant: it is position-independent off the sphere
    chart.  A constant pair that fails its check raises at
    every evaluation, naming the point, or the first point of the block.
    """

    #: the gathered fields of a constant pair, set on its first evaluation
    _gathered = None
    #: what the 1-form field is called in error messages
    _form_name = "1-form"

    def __init__(self, g: MatrixField, form: CovectorField, chart: str):
        self.chart = chart
        self.g_field = _Field(g, (2, 2))
        self.form_field = _Field(form, (2,))
        self._constant = self.g_field.constant and self.form_field.constant
        if self._constant:
            self.invariant_coords = BOTH_COORDS

    def _pair(self, x):
        """``(g, form)`` at x, unchecked: (2, 2) and (2,) at one point or
        when constant, (P, 2, 2) and (P, 2) over a block."""
        return self.g_field.at(x), self.form_field.at(x)

    def _fields(self, x):
        """:meth:`_pair` with g checked and the 1-form checked finite."""
        g, form = self._pair(x)
        _check_spd(g, x)
        _check_finite(np.isfinite(form).all(axis=-1), x, self._form_name)
        return g, form

    def g(self, x) -> np.ndarray:
        """The checked tensor g at one point, (2, 2), or over a block,
        (P, 2, 2) unless constant."""
        return self._fields(x)[0]

    def _gather(self, x):
        if self._gathered is not None:
            return self._gathered
        fields = self._check(*self._fields(x), x)
        if self._constant:
            self._gathered = fields
        return fields


class RiemannianMetric(_TensorFieldMetric):
    """F = sqrt(g(v, v)) for an SPD tensor field g."""

    kind = "riemannian"

    def __init__(self, g: MatrixField, chart: str = TORUS):
        super().__init__(g, np.zeros(2), chart)

    @staticmethod
    def _check(g, form, x):
        return g

    @staticmethod
    def _f(g, vs):
        return np.sqrt(_inner(vs, vs @ g))

    @staticmethod
    def _d_vf(g, vs):
        gv = vs @ g
        return gv / np.sqrt(_inner(vs, gv))[..., None]


class RandersMetric(_TensorFieldMetric):
    """F = sqrt(g(v, v)) + theta(v), with the g-norm of theta below 1,
    checked at every evaluation point; the first offending point is
    reported."""

    kind = "randers"
    _form_name = "Randers 1-form"

    def __init__(self, g: MatrixField, theta: CovectorField, chart: str = TORUS):
        super().__init__(g, theta, chart)

    def theta(self, x) -> np.ndarray:
        """The 1-form at one point, (2,), or over a block, (P, 2) unless
        constant; unchecked."""
        return self._pair(x)[1]

    def b(self, x) -> np.ndarray:
        """b = sqrt(1 - |theta|_g^2) at one point, or (P,) over a block,
        with the norm condition checked."""
        return np.sqrt(1.0 - _randers_norm_sq(*self._fields(x), x))

    @staticmethod
    def _check(g, th, x):
        _randers_norm_sq(g, th, x)
        return g, th if th.ndim == 1 else th[:, None]

    @staticmethod
    def _f(fields, vs):
        g, th = fields
        return np.sqrt(_inner(vs, vs @ g)) + _dot(vs, th)

    @staticmethod
    def _d_vf(fields, vs):
        g, th = fields
        gv = vs @ g
        return gv / np.sqrt(_inner(vs, gv))[..., None] + th


def _check_eps(eps: float):
    """Raise InvalidMetricError unless the Katok-Ziller deformation
    parameter eps is in [0, 1) (NaN is not)."""
    if not 0.0 <= eps < 1.0:
        raise InvalidMetricError(f"deformation parameter eps must be in [0, 1), got {eps}")


class KatokZillerMetric(_TensorFieldMetric):
    """One-parameter deformation of a Riemannian metric along a Killing field.

    F_eps(x, v) = [sqrt(g(v,v)*(1 - eps^2*|V|^2) + eps^2*g(V,v)^2)
                   - eps*g(V,v)] / (1 - eps^2*|V|^2)

    where V is a Killing field of g and |V|^2 = g(V, V).
    """

    kind = "katok-ziller"
    _form_name = "Killing field"

    def __init__(self, g: MatrixField, killing: CovectorField, eps: float,
                 chart: str = TORUS):
        _check_eps(eps)
        super().__init__(g, killing, chart)
        self.eps = float(eps)

    def _check(self, g, V, x):
        """(g, gV, c), with c = 1 - eps^2 g(V, V) checked positive."""
        gV = (g @ V[..., None])[..., 0]
        c = 1.0 - self.eps**2 * _inner(V, gV)
        bad = _failing(x, c <= 0.0)
        if bad is not None:
            raise InvalidMetricError(
                f"eps^2 * g(V,V) >= 1 at {bad[1]}; deformation too large")
        return (g, gV, c) if gV.ndim == 1 else (g, gV[:, None], c[:, None])

    def _f(self, fields, vs):
        g, gV, c = fields
        w = _dot(vs, gV)
        q = _inner(vs, vs @ g)
        return (np.sqrt(q * c + (self.eps * w) ** 2) - self.eps * w) / c

    def _d_vf(self, fields, vs):
        g, gV, c = fields
        w = _dot(vs, gV)
        gvs = vs @ g
        s = np.sqrt(_inner(vs, gvs) * c + (self.eps * w) ** 2)
        c = c[..., None]
        grad_s = (c * gvs + (self.eps**2 * w)[..., None] * gV) / s[..., None]
        return (grad_s - self.eps * gV) / c


class CustomMetric(FinslerMetric2D):
    """Wrap a user evaluator f(x, vs) -> F values.

    The evaluator should be vectorized over ``vs`` of shape ``(..., 2)``;
    a scalar-only evaluator, one that rejects the array with a
    ``TypeError`` or ``ValueError`` or returns the wrong shape, is looped
    over the rays.  Any other failure of the evaluator is raised as
    :class:`InvalidMetricError` naming the point, the original exception
    chained.  Must be safe for concurrent evaluation.  Blocks of base
    points are evaluated one point at a time: the only metric that loops
    over a block's points.
    """

    kind = "custom"
    analytic_fiber_derivative = False

    def __init__(self, f: Callable, chart: str = TORUS):
        self.chart = chart
        self._func = f
        self._vectorized: Optional[bool] = None

    def _f(self, x, vs):
        if not isinstance(x, ChartPoint):
            return np.stack([self._f(p, v) for p, v in zip(x, vs)])
        if self._vectorized is not False:
            try:
                out = np.asarray(self._func(x, vs), dtype=float)
            except (TypeError, ValueError):
                out = None      # a scalar-only evaluator rejects the array
            except FinlapError:
                raise
            except Exception as exc:
                raise _evaluator_failure(x, exc) from exc
            if out is not None and out.shape == vs.shape[:-1]:
                self._vectorized = True
                return out
            self._vectorized = False
        flat = vs.reshape(-1, 2)
        return np.array([self._scalar(x, v) for v in flat]).reshape(vs.shape[:-1])

    def _scalar(self, x: ChartPoint, v: np.ndarray) -> float:
        try:
            return float(self._func(x, v))
        except FinlapError:
            raise
        except Exception as exc:
            raise _evaluator_failure(x, exc) from exc


def _evaluator_failure(x: ChartPoint, exc: Exception) -> InvalidMetricError:
    return InvalidMetricError(
        f"metric evaluator failed at ({x.u}, {x.v}): {type(exc).__name__}: {exc}")


class ConformalMetric(FinslerMetric2D):
    """exp(f(x)) * F for a base metric F and a scalar field f.

    A block of base points takes one call of the base metric, and the
    factor over the block through :func:`~finlap.fields.field_values`.  Its
    invariant coordinates are those of the base that the factor declares
    too: all of them for a :class:`~finlap.fields.ConstantField`, none for
    any other factor.
    """

    kind = "conformal"

    def __init__(self, base: FinslerMetric2D, factor):
        self.chart = base.chart
        self.base = base
        self.factor = factor
        self.invariant_coords = base.invariant_coords & getattr(
            factor, "invariant_coords", frozenset())
        self.analytic_fiber_derivative = base.analytic_fiber_derivative

    def _scale(self, x) -> np.ndarray:
        """exp(f): () at one point, (P, 1) over a block, to broadcast
        against F values; InvalidMetricError at the first point where it
        is not finite (f NaN, infinite or overflowing) or underflows to 0."""
        with np.errstate(over="ignore", under="ignore"):
            s = np.exp(field_values(self.factor, x))
        _check_finite(np.isfinite(s), x, "conformal factor exp(f)")
        bad = _failing(x, s == 0.0)
        if bad is not None:
            raise InvalidMetricError(f"conformal factor exp(f) underflows to 0 at {bad[1]}")
        return s if s.ndim == 0 else s[:, None]

    def _gather(self, x):
        return self._scale(x), self.base._gather(x)

    def _f(self, fields, vs):
        s, base = fields
        return s * self.base._f(base, vs)

    def _d_vf(self, fields, vs):
        s, base = fields
        return s[..., None] * self.base._d_vf(base, vs)

    def _density_scale(self, x):
        # the density is quadratic in F: exp(2f) times the base metric's
        return self._scale(x) ** 2 * self.base._density_scale(x)


def riemannian(g: MatrixField, chart: str = TORUS) -> RiemannianMetric:
    return RiemannianMetric(g, chart)


def euclidean(chart: str = PLANE) -> RiemannianMetric:
    return RiemannianMetric(np.eye(2), chart)


def randers(g: MatrixField, theta: CovectorField, chart: str = TORUS) -> RandersMetric:
    return RandersMetric(g, theta, chart)


def kz_torus(eps: float) -> KatokZillerMetric:
    """Katok-Ziller deformation of the flat 2-torus along d/dx."""
    return KatokZillerMetric(np.eye(2), np.array([1.0, 0.0]), eps, chart=TORUS)


def _round_sphere_g(x) -> np.ndarray:
    """The round tensor diag(1, sin^2 phi), (2, 2) at one point and
    (P, 2, 2) over a block of P points in one call, each sin that of
    ``math.sin``."""
    s2 = [math.sin(p.u) ** 2 for p in ((x,) if isinstance(x, ChartPoint) else x)]
    g = np.zeros((len(s2), 2, 2))
    g[:, 0, 0] = 1.0
    g[:, 1, 1] = s2
    return g[0] if isinstance(x, ChartPoint) else g


_round_sphere_g.takes_blocks = True


def kz_sphere(eps: float) -> KatokZillerMetric:
    """Katok-Ziller deformation of the round 2-sphere along the rotation field.
    Its F does not depend on theta, which it declares."""
    metric = KatokZillerMetric(_round_sphere_g, np.array([0.0, 1.0]), eps, chart=SPHERE)
    metric.invariant_coords = frozenset({"v"})
    return metric


def custom(f: Callable, chart: str = PLANE) -> CustomMetric:
    return CustomMetric(f, chart)


def eval_f(metric: FinslerMetric2D, x, v):
    """The Finsler norm F(x, v); positively 1-homogeneous in v.  ``x`` is
    one base point with a vector of shape (2,), giving a float, or a block
    of P base points with vectors (P, 2), giving shape (P,) from one
    :meth:`FinslerMetric2D.f` call.

    Raises
    ------
    DomainError
        If a vector is zero or not finite, or has the wrong shape.
    InvalidMetricError
        If the metric is invalid or F not positive at a point of x (the
        first such point named).
    """
    v = _ray_argument(x, v, "tangent vector")
    one = isinstance(x, ChartPoint)
    values = metric.f(x, v) if one else metric.f(x, v[:, None, :])[:, 0]
    bad = _failing(x, ~(values > 0.0))
    if bad is not None:
        raise InvalidMetricError(f"F(x, v) = {values.flat[bad[0]]} is not positive at {bad[1]}")
    return float(values) if one else values


def _circle(phis) -> np.ndarray:
    phis = np.asarray(phis, dtype=float)
    return np.stack([np.cos(phis), np.sin(phis)], axis=-1)


def frame_stretch(x):
    """The factor 1/sin(phi) of the orthonormal sphere frame
    A = diag(1, 1/sin phi), a float at one base point and (P, 1) over a
    block; None on the torus and plane charts, whose frame is the identity."""
    if isinstance(x, ChartPoint):
        return 1.0 / math.sin(x.u) if x.chart == SPHERE else None
    _nonempty(x)
    if x[0].chart != SPHERE:
        return None
    return 1.0 / np.sin([p.u for p in x])[:, None]


def chart_rays(x, phis: np.ndarray) -> np.ndarray:
    """The rays e(phi) of the chart angles phis, (n, 2) at one base point
    and (P, n, 2) over a block."""
    return at_points(x, _circle(phis))


def frame_rays(x, psis: np.ndarray) -> np.ndarray:
    """The rays A(x) e(psi) of the frame angles psis, shaped as
    :func:`chart_rays`, which they are where A is the identity."""
    return _frame_map(x, _circle(psis), frame_stretch(x))


def _frame_map(x, e: np.ndarray, stretch) -> np.ndarray:
    """A(x) e for rays e, (n, 2) or per point (P, n, 2), shaped as
    :func:`at_points`; ``stretch`` is :func:`frame_stretch` of x."""
    if stretch is None:
        return at_points(x, e)
    return np.stack(np.broadcast_arrays(e[..., 0], e[..., 1] * stretch), axis=-1)


def _frame_coords(stretch, a: np.ndarray, power: int) -> np.ndarray:
    """(Co)vectors a, (2,) at one base point or (P, 2) over a block, with
    their second component times ``stretch**power``, ``stretch`` the
    :func:`frame_stretch` of the point or block: the frame coordinates
    A^T p of covectors p for power 1 and A^-1 v of vectors v for power -1,
    in which p(v) is unchanged."""
    if stretch is None:
        return a
    a = a.copy()
    a[..., 1:] *= stretch**power
    return a


def _indicatrix_scale(bound: _Binding, rays: np.ndarray) -> np.ndarray:
    """F(x, rays) with a trailing axis, x the point or block of the
    binding: the rays over it lie on the unit level set {F(x, .) = 1}."""
    vals = bound.f(at_points(bound.x, rays))
    if np.any(vals <= 0.0):
        raise InvalidMetricError("F is not positive on the unit circle")
    return np.asarray(vals)[..., None]


def indicatrix_point(metric: FinslerMetric2D, x, phi) -> np.ndarray:
    """Point of the unit level set {F(x, .) = 1} in Euclidean direction phi.

    Vectorized over phi; the map phi -> v(phi) traverses the indicatrix
    once since F is positive on the unit circle.  Over a block of P base
    points the result has shape (P, n, 2), for n angles shared by the
    block or (P, n) angles, one row per point.
    """
    e = _circle(phi)
    return e / _indicatrix_scale(metric._bind(x), e)


def vertical_derivative(metric: FinslerMetric2D, x, v) -> np.ndarray:
    """The fiber derivative d_vF = (dF/dv1, dF/dv2); 0-homogeneous in v.

    The metric's analytic derivative when it has one, otherwise central
    differences with step ``differences.FIBER_REL * |v|``.  Satisfies the
    Euler identity d_vF(v) . v = F(x, v).  ``x`` may be a block of base
    points, with ``v`` of shape (P, n, 2) (see :meth:`FinslerMetric2D.f`).
    """
    return metric.d_vf(x, v)


def legendre_forward(metric: FinslerMetric2D, x: ChartPoint, v) -> np.ndarray:
    """Legendre transform L(x, v) = F(x, v) * d_vF(x, v), the derivative of F^2/2."""
    v = np.asarray(v, dtype=float)
    f = metric.f(x, v)
    return np.asarray(f)[..., None] * vertical_derivative(metric, x, v)


def _frame_indicatrix(bound: _Binding, psis: np.ndarray) -> np.ndarray:
    """The indicatrix at the point or block x of the binding on the rays
    of the frame angles psis (:func:`frame_rays`), in frame coordinates
    A^-1 v: (n, 2) at one base point and (P, n, 2) over a block.  In the
    frame angle the support of a covector peaks on a scale of one at every
    base point; in the chart angle it peaks on a scale of sin(phi) near
    the sphere poles."""
    e = _circle(psis)
    # A^-1 (A e / F(A e)) = e / F(A e)
    return e / _indicatrix_scale(bound, _frame_map(bound.x, e, bound.stretch))


def _indicatrix_scan(bound: _Binding, n: int) -> tuple:
    """``(psis, ws, normals)``: :func:`_frame_indicatrix` on n equally
    spaced frame angles, and the unwrapped angles of the outward normals of
    the edges ws[k] -> ws[k + 1] of the polygon they span, (n,) at one base
    point and (P, n) over a block.

    The normals must increase strictly and turn by 2*pi in all: the scan
    polygon is convex, so that :func:`_scan_max` can look its support up.
    Raise InvalidMetricError at the first point of x where it is not.
    """
    psis = 2.0 * np.pi * np.arange(n) / n
    ws = _frame_indicatrix(bound, psis)
    edges = np.roll(ws, -1, axis=-2) - ws
    angles = np.arctan2(-edges[..., 0], edges[..., 1])
    # Each fall of the angles is taken for a wrap through pi; where the
    # polygon is not convex a fall is a turn back, and the 2*pi added for
    # it makes the total turn exceed 2*pi.
    falls = np.diff(angles, axis=-1, prepend=angles[..., :1]) < 0.0
    normals = angles + 2.0 * np.pi * np.cumsum(falls, axis=-1)
    convex = (np.all(np.diff(normals, axis=-1) > 0.0, axis=-1)
              & (normals[..., -1] < normals[..., 0] + 2.0 * np.pi))
    bad = _failing(bound.x, ~convex)
    if bad is not None:
        raise InvalidMetricError(f"indicatrix is not convex at {bad[1]}")
    return psis, ws, normals


def _block_scan(bound: _Binding, n: int) -> tuple:
    """The :func:`_indicatrix_scan` a search over the binding's points
    looks its covectors up in: at every point, or, when the metric is
    position-independent (F is then one norm, the same floats at every
    point), at the block's first point alone, one row (1, n) for the whole
    block."""
    x = bound.x
    if bound.metric.position_independent and not isinstance(x, ChartPoint):
        bound = bound.metric._bind(x[:1])
    return _indicatrix_scan(bound, n)


def _scan_max(ps: np.ndarray, scan: tuple) -> tuple:
    """Index and value of the largest p(w) of each covector ps over the
    ``scan`` of :func:`_indicatrix_scan` or :func:`_block_scan`: (m, 2) at
    one point, giving (m,), or (P, m, 2) or shared (m, 2) over a block,
    giving (P, m), against a row of scan normals per point or one row,
    (1, n), for the whole block.

    Vertex k of the convex scan polygon is the maximizer of p exactly when
    the angle of p lies between the normals of the edges into and out of
    k.  One searchsorted over the block's normals, each row offset by 4*pi
    times its index, finds that vertex for every covector at once; of it
    and its two neighbours the largest p(w) is kept, the first on a tie as
    by argmax, so that the rounding of the angles cannot move the result.
    A single row of normals takes every covector of the block in one
    search without an offset, as one point's would be.
    """
    _, ws, normals = scan
    n, m = normals.shape[-1], ps.shape[-2]
    lead = np.broadcast_shapes(normals.shape[:-1], ps.shape[:-2])
    rows = normals.reshape(-1, n)
    r = np.arange(len(rows))[:, None]
    ps = np.broadcast_to(ps, lead + (m, 2)).reshape(len(rows), -1, 2)
    start = rows[:, :1]
    angles = start + np.mod(np.arctan2(ps[..., 1], ps[..., 0]) - start, 2.0 * np.pi)
    offset = 4.0 * np.pi * r
    found = np.searchsorted((rows + offset).ravel(), (angles + offset).ravel())
    k = found.reshape(angles.shape) - n * r
    cand = np.sort((k[..., None] + np.array([-1, 0, 1])) % n, axis=-1)
    vals = _inner(ws.reshape(len(rows), n, 2)[r[..., None], cand], ps[..., None, :])
    best = np.argmax(vals, axis=-1)[..., None]
    return tuple(np.take_along_axis(a, best, axis=-1).reshape(lead + (m,))
                 for a in (cand, vals))


def _parabolic_max(values_at, center: np.ndarray, half: float,
                   y2: np.ndarray, steps: int) -> np.ndarray:
    """Largest value seen in ``steps`` rounds of parabolic refinement of
    the maximizing angles ``center`` (values ``y2``): the vertex of the
    parabola through center - half, center and center + half, clipped to
    that bracket, is the new center, and half is quartered.  ``values_at``
    maps angles ``center.shape + (k,)`` to their values; a round makes two
    calls, both flanks in one and then the new center."""
    best = y2
    for _ in range(steps):
        y = values_at(np.stack([center - half, center + half], axis=-1))
        y1, y3 = y[..., 0], y[..., 1]
        denom = y1 - 2.0 * y2 + y3
        shift = np.where(np.abs(denom) > 1e-300, 0.5 * half * (y1 - y3) / denom, 0.0)
        center = center + np.clip(shift, -half, half)
        y2 = values_at(center[..., None])[..., 0]
        best = np.maximum.reduce([best, y1, y2, y3])
        half *= 0.25
    return best


def _support_max(bound: _Binding, ps: np.ndarray, scan: tuple) -> np.ndarray:
    """F*(x, p) = max p(v) over the indicatrix, x the point or block of
    the binding, for covectors ps in frame coordinates
    (:func:`_frame_coords`), (m, 2) at one point, giving (m,), or
    (P, m, 2) or shared (m, 2) over a block, giving (P, m): the scan
    maximum that :func:`_scan_max` looks up on the ``scan`` of
    :func:`_block_scan`, in O((m + n) log n) per point for n scan points,
    sharpened by 4 rounds of :func:`_parabolic_max` in the frame angle,
    each point on its own rays."""
    psis = scan[0]

    def support_at(angles):
        # angles (..., m, k): one indicatrix call on (..., m * k) angles
        w = _frame_indicatrix(bound, angles.reshape(angles.shape[:-2] + (-1,)))
        return _inner(w.reshape(angles.shape + (2,)), ps[..., None, :])

    idx, y2 = _scan_max(ps, scan)
    return _parabolic_max(support_at, psis[idx], 2.0 * np.pi / len(psis), y2, 4)


def _check_counts(minimum: int, **counts: int):
    """Raise ConfigError for a count that is not an integer (a bool is
    not) of at least ``minimum``."""
    for name, n in counts.items():
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < minimum:
            raise ConfigError(f"{name} must be an integer of at least {minimum}, got {n}")


def _ray_argument(x, a, what: str) -> np.ndarray:
    """The (co)vector argument a of a dual norm as floats, (2,) at one base
    point and (P, 2) over a block; DomainError if its shape is wrong or
    an entry is not finite or zero."""
    a = np.asarray(a, dtype=float)
    shape = (2,) if isinstance(x, ChartPoint) else (len(x), 2)
    if a.shape != shape:
        raise DomainError(f"{what} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} must be finite")
    if np.any(np.hypot(a[..., 0], a[..., 1]) == 0.0):
        raise DomainError(f"{what} must be nonzero")
    return a


def dual_norm(metric: FinslerMetric2D, x, p):
    """Dual norm F*(x, p) = sup { p(v) : F(x, v) = 1 }.

    The support search of :func:`_support_max` over a ``DUAL_COARSE_N``-point
    frame-angle scan of the indicatrix: the scan vertex of largest p(v),
    looked up by the angle of p among the scan's edge normals, and 4
    parabolic rounds.  ``x`` is one base point with a covector of shape
    (2,), giving a float, or a block of P base points with covectors of
    shape (P, 2), giving shape (P,), the block's scan and each refinement
    step made in one call on one binding of the block, and the scan made
    at the first point alone for a position-independent metric
    (:func:`_block_scan`).

    Raises
    ------
    DomainError
        If a covector is zero or not finite, or has the wrong shape.
    InvalidMetricError
        If the indicatrix scan is not convex at a point of x.
    """
    p = _ray_argument(x, p, "covector")
    bound = metric._bind(x)
    q = _frame_coords(bound.stretch, p, 1)[..., None, :]
    best = _support_max(bound, q, _block_scan(bound, DUAL_COARSE_N))
    return float(best[0]) if isinstance(x, ChartPoint) else best[:, 0]


def holmes_thompson_density(metric: FinslerMetric2D, x):
    """Area of the dual unit disc {p : F*(x, p) < 1} divided by pi.

    Radial quadrature of the dual boundary in frame coordinates: its
    radius along each of ``DUAL_RAYS`` directions e(beta) is 1 / F* over
    one ``HT_BOUNDARY_N``-point indicatrix scan, looked up by edge normal
    at a cost of O((m + n) log n) per point for m rays and n scan points,
    without a support matrix; the area so found is scaled by det A^-T
    (sin(phi) on the sphere chart).  Independent of the contact-density route, so it is
    an oracle for :func:`finlap.measures.volume_density`.  A float at one
    base point; over a block of P base points shape (P,), the radii of the
    block found together on one binding of the block.  A
    position-independent metric shares its dual rays and the whole result
    over the block: it is found at the first point alone, every point's
    chart checked, and returned as a read-only broadcast of shape (P,), as
    :func:`finlap.measures._over_points` returns it.  The scan must be
    convex (InvalidMetricError).
    """
    if metric.position_independent and not isinstance(x, ChartPoint):
        metric._check_chart(x)
        return np.broadcast_to(holmes_thompson_density(metric, x[0]), (len(x),))
    betas = 2.0 * np.pi * np.arange(DUAL_RAYS) / DUAL_RAYS
    bound = metric._bind(x)
    scan = _indicatrix_scan(bound, HT_BOUNDARY_N)
    r = 1.0 / _support_max(bound, _circle(betas), scan)
    area = 0.5 * np.sum(r**2, axis=-1) * (2.0 * np.pi / DUAL_RAYS) / np.pi
    if bound.stretch is not None:
        area = area / np.reshape(bound.stretch, np.shape(area))
    return float(area) if isinstance(x, ChartPoint) else area


def dual_norm_sampled(metric: FinslerMetric2D, x, v):
    """Double dual F**(x, v) = sup { p(v) : F*(x, p) = 1 }.

    The dual unit circle in frame coordinates lies at radius 1 / F* along
    the directions e(beta), so F**(v) is the largest
    <e(beta), u> / F*(e(beta)) for u = A^-1 v: a linear function on a
    convex curve, with one maximum in beta, at the outward normal of the
    indicatrix where the ray of u crosses it.  One
    ``SAMPLED_BOUNDARY_N``-point indicatrix scan, whose edge normals are
    found once, serves every support lookup of the call.  Its vertices lie
    on the rays of equally spaced frame angles, so the angle of u names the
    scan edge k that the ray crosses, and by convexity the maximizer lies
    between the normals of edges k - 1 and k + 1.  The ``DUAL_RAYS`` grid
    rays from the last at or below that bracket to the first above it
    include the two on either side of the maximizer, so the best of them by
    accurate radius (:func:`_support_max`) is the best of all
    ``DUAL_RAYS``; it seeds 5 rounds of :func:`_parabolic_max` in beta.
    The bracket is one grid step wide on a round indicatrix, 3 grid rays,
    and wider where the indicatrix turns sharply between scan points: up
    to 11 grid rays for riemannian(diag(1, 9)) and 87 for
    riemannian(diag(1, 100)), near the major axis.  A block evaluates at
    each point as many grid rays as its widest bracket needs.
    The scan polygon gives the bracket, never a value: it lies inside the
    indicatrix, so its dual radius is too long, by a relative amount that
    grows with the turn of the indicatrix between scan points.

    ``x`` is one base point with a vector of shape (2,), giving a float,
    or a block of P base points with vectors of shape (P, 2), giving shape
    (P,).  The block is bound once (:meth:`FinslerMetric2D._bind`): its
    chart check, fields and frame stretch serve the scan and every
    refinement call.  The scan covers every point, or the first point
    alone for a position-independent metric (:func:`_block_scan`); the
    refinements are per point, on each point's own vector.  A zero or
    non-finite vector is a DomainError, and a non-convex scan an
    InvalidMetricError.
    """
    v = _ray_argument(x, v, "vector")
    bound = metric._bind(x)
    u = _frame_coords(bound.stretch, v, -1)
    scan = _block_scan(bound, SAMPLED_BOUNDARY_N)

    def support_of_v(betas):
        beams = _circle(betas)
        r = 1.0 / _support_max(bound, beams, scan)
        return r * _inner(beams, u[..., None, :])

    # the normals of edges k - 1 and k + 1 of the edge k that the ray of u
    # crosses, read from the normals extended by one edge on either side,
    # a row per point (one row serves a block's every point)
    normals = scan[2]
    n = normals.shape[-1]
    turn = np.concatenate([normals[..., -1:] - 2.0 * np.pi, normals,
                           normals[..., :1] + 2.0 * np.pi], axis=-1)
    turn = np.broadcast_to(turn, u.shape[:-1] + turn.shape[-1:])
    angle = np.mod(np.arctan2(u[..., 1], u[..., 0]), 2.0 * np.pi)
    k = np.minimum((angle * (n / (2.0 * np.pi))).astype(int), n - 1)[..., None]
    lo = np.take_along_axis(turn, k, axis=-1)[..., 0]
    hi = np.take_along_axis(turn, k + 2, axis=-1)[..., 0]
    step = 2.0 * np.pi / DUAL_RAYS
    first, last = np.floor(lo / step), np.floor(hi / step) + 1.0
    rays = first[..., None] + np.arange(int(np.max(last - first)) + 1)
    betas = 2.0 * np.pi * np.mod(np.minimum(rays, last[..., None]), DUAL_RAYS) / DUAL_RAYS
    vals = support_of_v(betas)
    pick = np.argmax(vals, axis=-1)[..., None]
    center = np.take_along_axis(betas, pick, axis=-1)[..., 0]
    best = _parabolic_max(support_of_v, center, step,
                          np.take_along_axis(vals, pick, axis=-1)[..., 0], 5)
    return float(best) if isinstance(x, ChartPoint) else best


def scale_conformal(metric: FinslerMetric2D, f) -> ConformalMetric:
    """The metric exp(f(x)) * F for a finite scalar field f."""
    return ConformalMetric(metric, f)


def hessian_f2(metric: FinslerMetric2D, x: ChartPoint, v) -> np.ndarray:
    """Finite-difference Hessian of F^2/2 in v, with the fiber step
    ``differences.CONVEXITY_REL * |v|``; SPD by strong convexity.  The
    nine nodes of the stencil, v + (du, dv) with du, dv in {0, h, -h}, go
    to F in one call, and :func:`differences.hessian` reads their values."""
    v = np.asarray(v, dtype=float)
    h = differences.CONVEXITY_REL * float(np.linalg.norm(v))
    steps = [(du, dv) for du in (0.0, h, -h) for dv in (0.0, h, -h)]
    e = {step: 0.5 * float(f) ** 2 for step, f in zip(steps, metric.f(x, v + np.array(steps)))}
    return differences.hessian(lambda du, dv: e[du, dv], e[0.0, 0.0], h)


def convexity_margin(metric: FinslerMetric2D, x: ChartPoint, phi: float) -> float:
    """Smallest eigenvalue of the v-Hessian of F^2/2 at the indicatrix point.

    Reported, not gated: positivity is the strong-convexity requirement.
    """
    v = indicatrix_point(metric, x, phi)
    return float(np.linalg.eigvalsh(hessian_f2(metric, x, v)).min())

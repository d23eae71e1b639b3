"""Finsler metrics on 2-dimensional charts.

Pointwise constructions that need only the metric itself: evaluation,
indicatrix parametrization, vertical derivative, Legendre transform,
dual norm and conformal rescaling.

All vector/covector arguments are numpy arrays of shape ``(..., 2)`` in
the chart basis; metric evaluators are vectorized over the leading axes
at a fixed base point.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

import numpy as np

from .charts import ChartPoint, PLANE, SPHERE, TORUS
from .errors import DomainError, InvalidMetricError

# Relative fiber step of the finite-difference vertical derivative;
# built-in metrics carry analytic derivatives.
H_V_REL = 1e-5

# dual_norm search resolution
DUAL_COARSE_N = 256
DUAL_PHI_TOL = 1e-10

MatrixField = Union[np.ndarray, Callable[[ChartPoint], np.ndarray]]
CovectorField = Union[np.ndarray, Callable[[ChartPoint], np.ndarray]]


def _frozen(value) -> np.ndarray:
    """Read-only float copy of a constant tensor, so that it cannot change
    after it has been checked."""
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


def _as_matrix_field(g: MatrixField):
    """Normalize a 2x2 SPD field to (callable, is_constant)."""
    if callable(g):
        return g, False
    arr = _frozen(g)
    if arr.shape != (2, 2):
        raise InvalidMetricError(f"metric tensor must be 2x2, got {arr.shape}")
    return (lambda x: arr), True


def _as_covector_field(theta: CovectorField):
    if callable(theta):
        return theta, False
    arr = _frozen(theta)
    if arr.shape != (2,):
        raise InvalidMetricError(f"1-form must have 2 components, got {arr.shape}")
    return (lambda x: arr), True


def _check_spd(g: np.ndarray, where: str):
    if abs(g[0, 1] - g[1, 0]) > 1e-12 * (1.0 + abs(g[0, 1])):
        raise InvalidMetricError(f"metric tensor not symmetric at {where}")
    if g[0, 0] <= 0.0 or np.linalg.det(g) <= 0.0:
        raise InvalidMetricError(f"metric tensor not positive definite at {where}")


def _covector_norm(g: np.ndarray, th: np.ndarray) -> float:
    return float(math.sqrt(th @ np.linalg.solve(g, th)))


class FinslerMetric2D:
    """Base class: a Finsler norm F(x, v) on a chart.

    Subclasses implement ``_f(x, vs)`` (vectorized over ``vs`` with shape
    ``(..., 2)``) and, when available, the analytic vertical derivative
    ``_d_vf(x, vs) -> (..., 2)``.
    """

    chart: str = TORUS
    kind: str = "custom"
    #: True when F(x, v) does not depend on the base point x; enables
    #: one-shot coefficient evaluation in grid assembly.
    position_independent: bool = False
    #: False when d_vF falls back to finite differences; consumers then
    #: widen their own differencing steps above the nested-FD noise floor.
    analytic_fiber_derivative: bool = True

    def _f(self, x: ChartPoint, vs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _d_vf(self, x: ChartPoint, vs: np.ndarray) -> Optional[np.ndarray]:
        return None

    def f(self, x: ChartPoint, vs: np.ndarray) -> np.ndarray:
        """Vectorized norm evaluation; no zero-vector check."""
        self._check_chart(x)
        return self._f(x, np.asarray(vs, dtype=float))

    def _check_chart(self, x: ChartPoint):
        if x.chart != self.chart:
            raise DomainError(
                f"metric lives on chart {self.chart!r}, point is on {x.chart!r}"
            )


class _TensorFieldMetric(FinslerMetric2D):
    """A metric built on an SPD tensor field g.

    A constant field is checked once, on its first evaluation, and the
    checked tensor is kept; a callable field is checked at every point.
    A constant field that fails its check raises at every evaluation.
    """

    _g_checked: Optional[np.ndarray] = None

    def __init__(self, g: MatrixField, chart: str):
        self.chart = chart
        self.g_field, self._g_constant = _as_matrix_field(g)

    def g(self, x: ChartPoint) -> np.ndarray:
        if self._g_checked is not None:
            return self._g_checked
        g = np.asarray(self.g_field(x), dtype=float)
        _check_spd(g, f"({x.u}, {x.v})")
        if self._g_constant:
            self._g_checked = g
        return g


class RiemannianMetric(_TensorFieldMetric):
    """F = sqrt(g(v, v)) for an SPD tensor field g."""

    kind = "riemannian"

    def __init__(self, g: MatrixField, chart: str = TORUS):
        super().__init__(g, chart)
        self.position_independent = self._g_constant and chart != SPHERE

    def _f(self, x, vs):
        g = self.g(x)
        return np.sqrt(np.einsum("...i,ij,...j->...", vs, g, vs))

    def _d_vf(self, x, vs):
        g = self.g(x)
        gv = np.einsum("ij,...j->...i", g, vs)
        norm = np.sqrt(np.einsum("...i,...i->...", vs, gv))
        return gv / norm[..., None]


class RandersMetric(_TensorFieldMetric):
    """F = sqrt(g(v, v)) + theta(v), with the g-norm of theta below 1."""

    kind = "randers"
    #: checked (g, theta) of a constant metric, set on its first evaluation
    _checked = None

    def __init__(self, g: MatrixField, theta: CovectorField, chart: str = TORUS):
        super().__init__(g, chart)
        self.theta_field, self._theta_constant = _as_covector_field(theta)
        self.position_independent = (self._g_constant and self._theta_constant
                                     and chart != SPHERE)

    def theta(self, x: ChartPoint) -> np.ndarray:
        return np.asarray(self.theta_field(x), dtype=float)

    def theta_norm(self, x: ChartPoint) -> float:
        """g-norm of the 1-form theta at x (covector norm)."""
        return _covector_norm(self.g(x), self.theta(x))

    def _g_theta(self, x: ChartPoint):
        """(g, theta) at x, with the g-norm of theta checked below 1."""
        if self._checked is not None:
            return self._checked
        g = self.g(x)
        th = self.theta(x)
        nrm = _covector_norm(g, th)
        if nrm >= 1.0:
            raise InvalidMetricError(
                f"Randers 1-form has g-norm {nrm:.6f} >= 1 at ({x.u}, {x.v})"
            )
        if self._g_constant and self._theta_constant:
            self._checked = (g, th)
        return g, th

    def _f(self, x, vs):
        g, th = self._g_theta(x)
        return np.sqrt(np.einsum("...i,ij,...j->...", vs, g, vs)) + vs @ th

    def _d_vf(self, x, vs):
        g, th = self._g_theta(x)
        gv = np.einsum("ij,...j->...i", g, vs)
        norm = np.sqrt(np.einsum("...i,...i->...", vs, gv))
        return gv / norm[..., None] + th


class KatokZillerMetric(_TensorFieldMetric):
    """One-parameter deformation of a Riemannian metric along a Killing field.

    F_eps(x, v) = [sqrt(g(v,v)*(1 - eps^2*|V|^2) + eps^2*g(V,v)^2)
                   - eps*g(V,v)] / (1 - eps^2*|V|^2)

    where V is a Killing field of g and |V|^2 = g(V, V).
    """

    kind = "katok-ziller"
    #: checked (g, gV, c) of a constant metric, set on its first evaluation
    _checked = None

    def __init__(self, g: MatrixField, killing: CovectorField, eps: float,
                 chart: str = TORUS):
        if not 0.0 <= eps < 1.0:
            raise InvalidMetricError(f"deformation parameter must be in [0,1), got {eps}")
        super().__init__(g, chart)
        self.eps = float(eps)
        self.killing_field, self._killing_constant = _as_covector_field(killing)
        self.position_independent = (self._g_constant and self._killing_constant
                                     and chart != SPHERE)

    def killing(self, x: ChartPoint) -> np.ndarray:
        return np.asarray(self.killing_field(x), dtype=float)

    def _gv_c(self, x: ChartPoint):
        """(g, gV, c) at x, with c = 1 - eps^2 g(V, V) checked positive."""
        if self._checked is not None:
            return self._checked
        g = self.g(x)
        V = self.killing(x)
        gV = g @ V
        c = 1.0 - self.eps**2 * float(V @ gV)
        if c <= 0.0:
            raise InvalidMetricError(
                f"eps^2 * g(V,V) >= 1 at ({x.u}, {x.v}); deformation too large"
            )
        if self._g_constant and self._killing_constant:
            self._checked = (g, gV, c)
        return g, gV, c

    def _f(self, x, vs):
        g, gV, c = self._gv_c(x)
        w = vs @ gV
        q = np.einsum("...i,ij,...j->...", vs, g, vs)
        return (np.sqrt(q * c + (self.eps * w) ** 2) - self.eps * w) / c

    def _d_vf(self, x, vs):
        g, gV, c = self._gv_c(x)
        w = vs @ gV
        gvs = np.einsum("ij,...j->...i", g, vs)
        s = np.sqrt(np.einsum("...i,...i->...", vs, gvs) * c + (self.eps * w) ** 2)
        grad_s = (c * gvs + (self.eps**2 * w)[..., None] * gV) / s[..., None]
        return (grad_s - self.eps * gV) / c


class CustomMetric(FinslerMetric2D):
    """Wrap a user evaluator f(x, vs) -> F values.

    The evaluator should be vectorized over ``vs`` of shape ``(..., 2)``;
    scalar-only evaluators are looped over transparently.  Must be safe
    for concurrent evaluation.
    """

    kind = "custom"
    analytic_fiber_derivative = False

    def __init__(self, f: Callable, chart: str = TORUS):
        self.chart = chart
        self._func = f
        self._vectorized: Optional[bool] = None

    def _f(self, x, vs):
        vs = np.asarray(vs, dtype=float)
        if self._vectorized is not False:
            try:
                out = np.asarray(self._func(x, vs), dtype=float)
                if out.shape == vs.shape[:-1]:
                    self._vectorized = True
                    return out
            except Exception:
                pass
            self._vectorized = False
        flat = vs.reshape(-1, 2)
        out = np.array([float(self._func(x, v)) for v in flat])
        return out.reshape(vs.shape[:-1])


class ConformalMetric(FinslerMetric2D):
    """exp(f(x)) * F for a base metric F and a scalar field f."""

    kind = "conformal"

    def __init__(self, base: FinslerMetric2D, factor):
        self.chart = base.chart
        self.base = base
        self.factor = factor
        self.position_independent = False
        self.analytic_fiber_derivative = base.analytic_fiber_derivative

    def _scale(self, x: ChartPoint) -> float:
        return math.exp(float(self.factor(x)))

    def _f(self, x, vs):
        return self._scale(x) * self.base._f(x, vs)

    def _d_vf(self, x, vs):
        d = self.base._d_vf(x, vs)
        if d is None:
            return None
        return self._scale(x) * d


def riemannian(g: MatrixField, chart: str = TORUS) -> RiemannianMetric:
    return RiemannianMetric(g, chart)


def euclidean(chart: str = PLANE) -> RiemannianMetric:
    return RiemannianMetric(np.eye(2), chart)


def randers(g: MatrixField, theta: CovectorField, chart: str = TORUS) -> RandersMetric:
    return RandersMetric(g, theta, chart)


def kz_torus(eps: float) -> KatokZillerMetric:
    """Katok-Ziller deformation of the flat 2-torus along d/dx."""
    return KatokZillerMetric(np.eye(2), np.array([1.0, 0.0]), eps, chart=TORUS)


def _round_sphere_g(x: ChartPoint) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, math.sin(x.u) ** 2]])


def kz_sphere(eps: float) -> KatokZillerMetric:
    """Katok-Ziller deformation of the round 2-sphere along the rotation field."""
    return KatokZillerMetric(_round_sphere_g, np.array([0.0, 1.0]), eps, chart=SPHERE)


def custom(f: Callable, chart: str = PLANE) -> CustomMetric:
    return CustomMetric(f, chart)


def eval_f(metric: FinslerMetric2D, x: ChartPoint, v) -> float:
    """The Finsler norm F(x, v); positively 1-homogeneous in v.

    Raises
    ------
    DomainError
        If v is the zero vector.
    InvalidMetricError
        If the metric parameters are invalid at x.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise DomainError(f"tangent vector must have shape (2,), got {v.shape}")
    if np.hypot(v[0], v[1]) == 0.0:
        raise DomainError("F is evaluated away from the zero vector")
    value = float(metric.f(x, v))
    if not value > 0.0:
        raise InvalidMetricError(f"F(x, v) = {value} is not positive")
    return value


def _circle(phis) -> np.ndarray:
    phis = np.asarray(phis, dtype=float)
    return np.stack([np.cos(phis), np.sin(phis)], axis=-1)


def indicatrix_point(metric: FinslerMetric2D, x: ChartPoint, phi) -> np.ndarray:
    """Point of the unit level set {F(x, .) = 1} in Euclidean direction phi.

    Vectorized over phi; the map phi -> v(phi) traverses the indicatrix
    once since F is positive on the unit circle.
    """
    e = _circle(phi)
    vals = metric.f(x, e)
    if np.any(vals <= 0.0):
        raise InvalidMetricError("F is not positive on the unit circle")
    return e / np.asarray(vals)[..., None]


def vertical_derivative(metric: FinslerMetric2D, x: ChartPoint, v,
                        method: str = "auto") -> np.ndarray:
    """The fiber derivative d_vF = (dF/dv1, dF/dv2); 0-homogeneous in v.

    Uses the metric's analytic derivative when available (``method="auto"``),
    otherwise central differences with step ``H_V_REL * |v|``.  Satisfies
    the Euler identity d_vF(v) . v = F(x, v).
    """
    v = np.asarray(v, dtype=float)
    if method not in ("auto", "fd", "analytic"):
        raise DomainError(f"unknown method {method!r}")
    if method in ("auto", "analytic"):
        d = metric._d_vf(x, v)
        if d is not None:
            return np.asarray(d)
        if method == "analytic":
            raise DomainError("metric has no analytic vertical derivative")
    norms = np.linalg.norm(v, axis=-1)
    if np.any(norms == 0.0):
        raise DomainError("vertical derivative undefined at the zero vector")
    h = (H_V_REL * norms)[..., None]
    e1 = np.zeros_like(v)
    e1[..., 0] = 1.0
    e2 = np.zeros_like(v)
    e2[..., 1] = 1.0
    d1 = (metric.f(x, v + h * e1) - metric.f(x, v - h * e1)) / (2.0 * h[..., 0])
    d2 = (metric.f(x, v + h * e2) - metric.f(x, v - h * e2)) / (2.0 * h[..., 0])
    return np.stack([d1, d2], axis=-1)


def legendre_forward(metric: FinslerMetric2D, x: ChartPoint, v,
                     method: str = "auto") -> np.ndarray:
    """Legendre transform L(x, v) = F(x, v) * d_vF(x, v), the derivative of F^2/2."""
    v = np.asarray(v, dtype=float)
    f = metric.f(x, v)
    return np.asarray(f)[..., None] * vertical_derivative(metric, x, v, method)


def _support_values(metric: FinslerMetric2D, x: ChartPoint, p: np.ndarray,
                    phis: np.ndarray) -> np.ndarray:
    vs = indicatrix_point(metric, x, phis)
    return vs @ p


def dual_norm(metric: FinslerMetric2D, x: ChartPoint, p,
              coarse_n: int = DUAL_COARSE_N, tol: float = DUAL_PHI_TOL) -> float:
    """Dual norm F*(x, p) = sup { p(v) : F(x, v) = 1 }.

    Coarse scan of the indicatrix followed by golden-section refinement
    of the maximizing angle to ``tol``.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise DomainError(f"covector must have shape (2,), got {p.shape}")
    if np.hypot(p[0], p[1]) == 0.0:
        raise DomainError("dual norm undefined for the zero covector")
    phis = 2.0 * np.pi * np.arange(coarse_n) / coarse_n
    vals = _support_values(metric, x, p, phis)
    i = int(np.argmax(vals))
    step = 2.0 * np.pi / coarse_n
    a, b = phis[i] - step, phis[i] + step

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc = float(_support_values(metric, x, p, np.array([c]))[0])
    fd = float(_support_values(metric, x, p, np.array([d]))[0])
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = float(_support_values(metric, x, p, np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = float(_support_values(metric, x, p, np.array([d]))[0])
    return max(fc, fd, float(vals[i]))


def scale_conformal(metric: FinslerMetric2D, f) -> ConformalMetric:
    """The metric exp(f(x)) * F for a finite scalar field f."""
    return ConformalMetric(metric, f)


def hessian_f2(metric: FinslerMetric2D, x: ChartPoint, v,
               h_rel: float = 1e-4) -> np.ndarray:
    """Finite-difference Hessian of F^2/2 in v; SPD by strong convexity."""
    v = np.asarray(v, dtype=float)
    h = h_rel * float(np.linalg.norm(v))

    def e(vv):
        return 0.5 * float(metric.f(x, vv)) ** 2

    basis = np.eye(2)
    H = np.empty((2, 2))
    f0 = e(v)
    for i in range(2):
        H[i, i] = (e(v + h * basis[i]) - 2.0 * f0 + e(v - h * basis[i])) / h**2
    H[0, 1] = H[1, 0] = (
        e(v + h * basis[0] + h * basis[1])
        - e(v + h * basis[0] - h * basis[1])
        - e(v - h * basis[0] + h * basis[1])
        + e(v - h * basis[0] - h * basis[1])
    ) / (4.0 * h**2)
    return H


def convexity_margin(metric: FinslerMetric2D, x: ChartPoint, phi: float) -> float:
    """Smallest eigenvalue of the v-Hessian of F^2/2 at the indicatrix point.

    Reported, not gated: positivity is the strong-convexity requirement.
    """
    v = indicatrix_point(metric, x, phi)
    return float(np.linalg.eigvalsh(hessian_f2(metric, x, v)).min())

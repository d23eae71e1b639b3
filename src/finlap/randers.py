"""Closed-form symbol machinery for Randers metrics on surfaces.

For F = sqrt(g) + theta with b = sqrt(1 - |theta|_g^2) and varphi the
half-argument of the 1-form in a g-orthonormal frame, the symbol of the
operator has the closed form (in that frame)

    sigma_11 = (1/b) * (1 + cos(2*varphi) * (1-b)/(1+b))
    sigma_22 = (1/b) * (1 - cos(2*varphi) * (1-b)/(1+b))
    sigma_12 = (sin(2*varphi)/b) * (1-b)/(1+b)

with det(sigma) = 4 / (b*(1+b)^2).  The quadrature oracle evaluates the
fiber integrals directly.  Both take a :class:`~finlap.metrics.RandersMetric`
and one base point.  The inverse design map reconstructs a Randers metric
realizing a prescribed (symbol-dual metric, volume) pair in closed form:
b from the root of a cubic (:func:`solve_b`), g and theta from one
triangular factor of the goal (:func:`inverse_design`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charts import ChartPoint, TORUS
from .errors import ConstructionError, InvalidMetricError
from .measures import torus_base
from .metrics import CovectorField, MatrixField, RandersMetric, _Field, _randers_norm_sq

ORACLE_N = 4096
#: samples per torus axis of the :func:`inverse_design` sweep (default K, Z check)
DESIGN_SAMPLE_N = 192


def triangular_factor(g: np.ndarray) -> np.ndarray:
    """Upper-triangular T with T^T T = g (first row along d/dx)."""
    g11 = g[0, 0]
    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    if g11 <= 0.0 or det <= 0.0:
        raise InvalidMetricError("metric tensor not positive definite")
    r = math.sqrt(g11)
    return np.array([[r, g[0, 1] / r], [0.0, math.sqrt(det) / r]])


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Columns are a g-orthonormal frame, the first along d/dx.

    N = T^{-1} for the triangular factor; chart vector components are
    v = N v_frame and frame covector components are theta_frame = N^T theta.
    """
    return np.linalg.inv(triangular_factor(g))


def randers_data(g: MatrixField, theta: CovectorField,
                 chart: str = TORUS) -> RandersMetric:
    """The Randers metric sqrt(g) + theta, as :func:`finlap.metrics.randers`."""
    return RandersMetric(g, theta, chart)


def _frame(metric: RandersMetric, x: ChartPoint):
    """``(N, t, b)`` from one gather of the fields at x: the g-orthonormal
    frame N (:func:`orthonormal_frame`), the components t = N^T theta of
    theta in it and b = sqrt(1 - |theta|_g^2), with the norm checked."""
    g, theta = metric._fields(x)
    N = orthonormal_frame(g)
    return N, N.T @ theta, np.sqrt(1.0 - _randers_norm_sq(g, theta, x))


def _symbol_frame(b: float, varphi: float) -> np.ndarray:
    k = (1.0 - b) / (1.0 + b)
    c2, s2 = math.cos(2.0 * varphi), math.sin(2.0 * varphi)
    return (1.0 / b) * np.array([
        [1.0 + c2 * k, s2 * k],
        [s2 * k, 1.0 - c2 * k],
    ])


def symbol_closed_form(metric: RandersMetric, x: ChartPoint) -> np.ndarray:
    """Closed-form symbol in chart coordinates.

    Computed in the g-orthonormal frame and pushed to the chart basis by
    the frame congruence sigma_chart = N sigma_frame N^T.  The half-angle
    varphi = arg(t1 + i*t2) of the frame components (t1, t2) of theta is
    the convention fixed by the quadrature oracle.
    """
    N, t, b = _frame(metric, x)
    s = _symbol_frame(b, math.atan2(t[1], t[0]))
    return N @ s @ N.T


def symbol_oracle(metric: RandersMetric, x: ChartPoint) -> np.ndarray:
    """Quadrature oracle for the symbol.

    ``ORACLE_N``-node trapezoid evaluation of the three fiber integrals

        sigma_ab = (1/pi) Int_0^{2pi} e_a(t) e_b(t) / (1 + t1 cos t + t2 sin t) dt

    in the orthonormal frame (t1, t2 the frame components of theta),
    pushed to chart coordinates the same way as the closed form.
    """
    N, (t1, t2), _ = _frame(metric, x)
    ts = 2.0 * np.pi * np.arange(ORACLE_N) / ORACLE_N
    c, s = np.cos(ts), np.sin(ts)
    denom = 1.0 + t1 * c + t2 * s
    w = 2.0 * np.pi / ORACLE_N / np.pi
    s11 = w * np.sum(c * c / denom)
    s22 = w * np.sum(s * s / denom)
    s12 = w * np.sum(c * s / denom)
    frame = np.array([[s11, s12], [s12, s22]])
    return N @ frame @ N.T


def dual_symbol(metric: RandersMetric, x: ChartPoint) -> np.ndarray:
    """The Riemannian metric dual to the symbol (its matrix inverse)."""
    return np.linalg.inv(symbol_closed_form(metric, x))


def solve_b(mu_prime: float) -> float:
    """The root b in (0, 1] of b*(1+b)^2/4 = m^2, m = mu' in (0, 1], in
    closed form: b = t - 2/3 turns it into t^3 - t/3 = 2A, A = 1/27 + 2m^2,
    whose one real root is t = u + 1/(9u), u = cbrt(A + sqrt(A^2 - 1/729)),
    so b = (3u - 1)^2 / (9u), with 3u - 1 = 3 (u^3 - 1/27) / (u^2 + u/3 + 1/9)
    free of cancellation as m -> 0."""
    if not 0.0 < mu_prime <= 1.0 + 1e-12:
        raise ConstructionError(f"mu' = {mu_prime} outside (0, 1]")
    if mu_prime >= 1.0:
        return 1.0
    m2 = mu_prime**2
    rise = 2.0 * m2 + 2.0 * mu_prime * math.sqrt(1.0 / 27.0 + m2)   # u^3 - 1/27
    u = math.cbrt(1.0 / 27.0 + rise)
    lift = 3.0 * rise / (u * u + u / 3.0 + 1.0 / 9.0)                 # 3u - 1
    return lift * lift / (9.0 * u)


class _DesignMetric(RandersMetric):
    """The Randers metric of an inverse design: ``pointwise(x)`` gives g
    and theta at a point in one call, as the columns of a (2, 3) array, and
    stands for both fields."""

    def __init__(self, pointwise, chart: str):
        super().__init__(pointwise, pointwise, chart)

    def _pair(self, x):
        fields = self.g_field.at(x)
        return fields[..., :2], fields[..., 2]


@dataclass
class InverseDesign:
    """Result of the inverse construction: the metric and the volume scale K.

    The constructed metric satisfies (symbol-dual = g_goal) and its
    canonical volume density equals K times the goal density.
    """

    data: RandersMetric
    K: float

    def metric(self) -> RandersMetric:
        return self.data


def inverse_design(g_goal: MatrixField, omega_goal, Z,
                   chart: str = TORUS,
                   K: Optional[float] = None) -> InverseDesign:
    """Randers metric whose symbol-dual is g_goal and whose volume is
    K * omega_goal.

    ``omega_goal`` is the goal volume density against du ^ dv and ``Z``
    a vector field (callable or constant 2-array) that must not vanish
    where the construction needs a preferred direction.  K defaults to
    the supremum of mu = sqrt(det g_goal)/omega_goal over the points of
    the cached grid :func:`finlap.measures.torus_base` (``DESIGN_SAMPLE_N``),
    so that mu' = mu/K lies in (0, 1]; Z is checked on the same points.

    The pointwise norm of the constructed 1-form is sqrt(1-b^2) with b =
    :func:`solve_b` (mu'), and its components in the g-orthonormal frame
    of the chart rotated by R to put Z on the first axis are
    t = sqrt(1-b^2) (1, -1)/sqrt 2 (argument -pi/4).  There the symbol-dual
    T^T S_b^-1 T of the triangular factor T of R^T g R factors as
    S_b^-1 = U_b^T U_b, U_b = [[(1+b)/2, (1-b)/2], [0, sqrt b]], so
    T = U_b^-1 triangular_factor(R^T g_goal R), and then g = R T^T T R^T
    and theta = R T^T t.
    """
    g_goal_f = _Field(g_goal, (2, 2))
    omega_f = omega_goal if callable(omega_goal) else (lambda x, c=float(omega_goal): c)
    Z_f = _Field(Z, (2,))

    def mu(x: ChartPoint) -> float:
        om = float(omega_f(x))
        if om <= 0.0:
            raise ConstructionError("goal volume density must be positive")
        g = np.asarray(g_goal_f(x), dtype=float)
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        if not (g[0, 0] > 0.0 and det > 0.0):     # NaN fails both
            raise InvalidMetricError(f"goal metric tensor not positive definite at "
                                     f"({x.u}, {x.v})")
        return math.sqrt(det) / om

    samples = torus_base(DESIGN_SAMPLE_N).points if chart == TORUS else ()
    mus = np.array([mu(x) for x in samples])
    if K is None:
        # sampled supremum; mu' is clamped to 1 at evaluation, so a slight
        # between-sample overshoot only flattens theta to 0 there.  Pass K
        # explicitly when the supremum is known exactly.
        if chart != TORUS:
            raise ConstructionError("automatic K estimation implemented on the torus")
        K = mus.max()
    K = float(K)
    if not math.isfinite(K) or K <= 0.0:
        raise ConstructionError(f"volume ratio supremum K = {K} unusable")

    # Z must not vanish on the locus mu' = 1 (where the construction
    # degenerates to theta = 0 but smoothness needs a direction nearby).
    for k in np.flatnonzero(mus / K >= 1.0 - 1e-9):
        x = samples[k]
        if math.hypot(*Z_f(x)) < 1e-13:
            raise ConstructionError(
                f"direction field Z vanishes on the mu'=1 locus near ({x.u}, {x.v})"
            )

    def pointwise(x: ChartPoint) -> np.ndarray:
        g1 = np.asarray(g_goal_f(x), dtype=float)
        b = solve_b(min(mu(x) / K, 1.0))
        if b >= 1.0 - 1e-13:
            return np.column_stack((g1, np.zeros(2)))
        zvec = np.asarray(Z_f(x), dtype=float)
        nz = math.hypot(*zvec)
        if nz < 1e-13:
            raise ConstructionError(
                f"direction field Z vanishes at ({x.u}, {x.v}) where theta != 0"
            )
        c, s = zvec / nz
        R = np.array([[c, -s], [s, c]])
        rb = math.sqrt(b)
        U_inv = np.array([[2.0 / (1.0 + b), (b - 1.0) / ((1.0 + b) * rb)],
                          [0.0, 1.0 / rb]])
        TR = U_inv @ triangular_factor(R.T @ g1 @ R) @ R.T      # T R^T
        t = math.sqrt(0.5 * (1.0 - b * b)) * np.array([1.0, -1.0])
        return np.column_stack((TR.T @ TR, TR.T @ t))

    return InverseDesign(data=_DesignMetric(pointwise, chart), K=K)

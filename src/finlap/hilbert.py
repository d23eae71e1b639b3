"""Hilbert contact form, canonical volume density and Reeb field.

The fiber circle over a base point x is parametrized by the frame angle
psi: the ray of psi is A(x) e(psi), with e(psi) = (cos psi, sin psi) and
A = diag(1, 1/sin phi) on the sphere chart (the orthonormal frame of the
round metric at polar angle phi), the identity on the torus and plane
charts.  In the chart coordinates (u, v, psi) the Hilbert form reads
A = p du + q dv with (p, q) = d_vF evaluated on the ray of psi, and the
contact volume A ^ dA has density

    lambda(x, psi) = | q dp/dpsi - p dq/dpsi |

with respect to dpsi ^ du ^ dv.  d_vF is 0-homogeneous, so the length
of the ray does not matter and lambda_psi dpsi = lambda_phi dphi, where
phi is the chart (Euclidean) angle of the ray, the angle of
:func:`finlap.metrics.indicatrix_point`; fiber volumes and angle forms do
not depend on the parametrization.  Near the poles the chart angle
resolves the fiber on a scale of sin phi, the frame angle on a scale of
one, so a fixed trapezoid rule in psi converges at every base point.
Fiber points, the Reeb field and geodesics use the chart angle; the
sign of the density is dropped, and orientation is tracked separately
where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .charts import ChartPoint, PHI_MIN, SPHERE
from .differences import central, jet_step
from .errors import DegenerateContactError, DomainError
from .metrics import (FinslerMetric2D, _failing, chart_rays, frame_rays, frame_stretch,
                      vertical_derivative)

#: contact densities below this, times the squared conformal factor, are
#: degenerate (:func:`_contact_density`)
DENSITY_FLOOR = 1e-12
#: the least normal float: a density below it has underflowed
_NORMAL_MIN = np.finfo(float).tiny


@dataclass(frozen=True)
class FiberPoint:
    """A point of the fiber bundle: base point plus direction angle."""

    base: ChartPoint
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))


@dataclass(frozen=True)
class ReebVector:
    """Components of the geodesic spray in chart x fiber coordinates."""

    Xu: float
    Xv: float
    Xphi: float

    def horizontal(self) -> np.ndarray:
        return np.array([self.Xu, self.Xv])


@dataclass
class Trajectory:
    """Integrated fiber curve; ``status`` is "ok" or "chart_exit"."""

    times: List[float] = field(default_factory=list)
    points: List[FiberPoint] = field(default_factory=list)
    status: str = "ok"


def chart_angles(x, psis: np.ndarray) -> np.ndarray:
    """Chart angle in [0, 2*pi) of the ray of each frame angle in psis,
    which increase strictly from 0 when the psis do: the psis themselves
    where the frame is the identity, else (n,) at one base point and
    (P, n) over a block."""
    stretch = frame_stretch(x)
    if stretch is None:
        return psis
    return np.mod(np.arctan2(np.sin(psis) * stretch, np.cos(psis)), 2.0 * np.pi)


def _frame_angle(x: ChartPoint, phi: float):
    """``(psi, dpsi/dphi)``: the frame angle whose ray has the chart angle
    phi, and its derivative in phi."""
    stretch = frame_stretch(x)
    if stretch is None:
        return phi, 1.0
    # A^-1 e(phi) = (cos phi, sin(phi) sin(u))
    c, s = math.cos(phi), math.sin(phi) / stretch
    return math.atan2(s, c), (1.0 / stretch) / (c * c + s * s)


def _angle_jet(metric: FinslerMetric2D, x, rays, angles: np.ndarray, h):
    """(p, q) = d_vF on the rays of the angles and its central difference
    in the angle, step h, at one base point or over a block of base
    points; ``rays`` is :func:`chart_rays` or :func:`frame_rays`.  d_vF
    is 0-homogeneous, so the rays need not be normalized to the
    indicatrix."""
    pq = vertical_derivative(metric, x, rays(x, angles))
    dpq = central(lambda t: vertical_derivative(metric, x, rays(x, angles + t)), h)
    return pq, dpq


def _shifted(x, du: float, dv: float):
    """The base point x, or every point of a block, displaced by (du, dv)."""
    if isinstance(x, ChartPoint):
        return x.shifted(du, dv)
    return [p.shifted(du, dv) for p in x]


def _curl(metric: FinslerMetric2D, x, phis: np.ndarray, h) -> np.ndarray:
    """dq/du - dp/dv at the chart angles phis, by central differences of
    step h in u and v, at one base point or over a block (shifted as a
    block).  It is exactly zero for a position-independent metric, whose
    differences are 0.0, so there it is returned without evaluating the
    metric."""
    rays = chart_rays(x, phis)
    if metric.position_independent:
        return np.zeros(rays.shape[:-1])
    pq_du = central(lambda t: vertical_derivative(metric, _shifted(x, t, 0.0), rays), h)
    pq_dv = central(lambda t: vertical_derivative(metric, _shifted(x, 0.0, t), rays), h)
    return pq_du[..., 1] - pq_dv[..., 0]


def _contact_density(metric: FinslerMetric2D, x, s: np.ndarray) -> np.ndarray:
    """The signed contact density s of the metric, (n,) at one point or
    (P, n) over a block, unchanged.  Raise :class:`DegenerateContactError`
    naming the first point of x where its absolute value is below
    ``DENSITY_FLOOR`` times the square of the metric's conformal factors
    there (``metric._density_scale``), below the least normal float, or
    not a number.  A conformal factor scales F, and so the density by its
    square: relative to it, the floor refuses the same points whatever
    constant factor scales the metric.  The message gives |s| and the
    floor at the first refused entry of that point."""
    floor = np.maximum(DENSITY_FLOOR * metric._density_scale(x), _NORMAL_MIN)
    refused = ~(np.abs(s) >= floor)
    bad = _failing(x, refused)
    if bad is not None:
        # the first refused entry in row-major order lies in the row _failing names
        j = int(np.argmax(refused))
        raise DegenerateContactError(
            f"contact density |s| = {abs(s.flat[j]):.3e} is not at least the floor "
            f"{np.broadcast_to(floor, s.shape).flat[j]:.3e} at {bad[1]}")
    return s


def _signed_density(metric: FinslerMetric2D, x, psis) -> np.ndarray:
    """q dp/dpsi - p dq/dpsi at the frame angles psis, checked by
    :func:`_contact_density`."""
    psis = np.atleast_1d(np.asarray(psis, dtype=float))
    pq, dpq = _angle_jet(metric, x, frame_rays, psis, jet_step(metric))
    return _contact_density(metric, x, pq[..., 1] * dpq[..., 0] - pq[..., 0] * dpq[..., 1])


def density_profile(metric: FinslerMetric2D, x, psis) -> np.ndarray:
    """lambda(x, psi) against dpsi over an array of frame angles
    (vectorized), from the jet of the Hilbert form: the oracle of the
    fiber rule of :mod:`finlap.measures`, which reads it from F alone.

    ``x`` is one base point, or a block of P base points (a sequence of
    ChartPoint), for which the result has shape (P, len(psis)).  A
    density below the floor of :func:`_contact_density`, or not a number,
    raises :class:`DegenerateContactError` naming the first point where it
    occurs.
    """
    return np.abs(_signed_density(metric, x, psis))


def hilbert_density(metric: FinslerMetric2D, fp: FiberPoint) -> float:
    """Density of A ^ dA against dphi ^ du ^ dv at a fiber point, phi the
    chart angle: lambda(x, psi) dpsi/dphi at the frame angle psi of phi.

    The absolute value is returned; :func:`contact_orientation` carries
    the sign of the form in this coordinate ordering.
    """
    psi, dpsi_dphi = _frame_angle(fp.base, fp.phi)
    return float(density_profile(metric, fp.base, [psi])[0]) * dpsi_dphi


def contact_orientation(metric: FinslerMetric2D, fp: FiberPoint) -> int:
    """Sign of A ^ dA relative to dphi ^ du ^ dv (+1 or -1); the frame
    angle increases with the chart angle, so it is the sign against
    dpsi ^ du ^ dv."""
    psi, _ = _frame_angle(fp.base, fp.phi)
    return 1 if _signed_density(metric, fp.base, [psi])[0] >= 0.0 else -1


def reeb_profile(metric: FinslerMetric2D, x, phis):
    """Reeb field at all angles phi over the base point x.

    Returns ``(V, Xphi, lam)`` where ``V`` has shape ``(n, 2)`` (chart
    components of the spray, equal to the indicatrix point of direction
    phi), ``Xphi`` the fiber component and ``lam`` the contact density,
    all against the chart angle phi.

    ``x`` may be a block of P base points (a sequence of ChartPoint), with
    ``phis`` of shape (n,) shared by the block or (P, n), one row per
    point; the results then have shapes (P, n, 2), (P, n) and (P, n), and
    the block makes the seven fiber-derivative calls of one point.  A
    contact density below the floor of :func:`_contact_density`, or not a
    number, raises :class:`DegenerateContactError` naming the first point
    of the block where it occurs.

    With A = p du + q dv, A(X) = 1 and i_X dA = 0 have the closed-form
    solution X = (-q_phi, p_phi, q_u - p_v) / s, where
    s = q p_phi - p q_phi is the signed contact density.  The angle and
    the base point are differenced with one step,
    :func:`~finlap.differences.jet_step`.
    """
    h = jet_step(metric)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))

    pq, dpq = _angle_jet(metric, x, chart_rays, phis, h)
    curl = _curl(metric, x, phis, h)

    s = _contact_density(metric, x, pq[..., 1] * dpq[..., 0] - pq[..., 0] * dpq[..., 1])
    V = np.stack([-dpq[..., 1], dpq[..., 0]], axis=-1) / s[..., None]
    return V, curl / s, np.abs(s)


def reeb_field(metric: FinslerMetric2D, fp: FiberPoint) -> ReebVector:
    """Reeb field (geodesic spray) at a single fiber point."""
    V, Xphi, _ = reeb_profile(metric, fp.base, [fp.phi])
    return ReebVector(float(V[0, 0]), float(V[0, 1]), float(Xphi[0]))


def reeb_residuals_profile(metric: FinslerMetric2D, x, phis):
    """Defining-equation residuals of the Reeb field over an angle array.

    Re-evaluates the contact form derivatives at half the jet step, so
    independently of the closed form, and returns arrays
    ``(|A(X) - 1|, max |i_X dA components|)``, shaped as ``phis``; ``x``
    and ``phis`` may be a block, as in :func:`reeb_profile`.
    """
    h = 0.5 * jet_step(metric)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    V, Xphi, _ = reeb_profile(metric, x, phis)
    pq, dpq = _angle_jet(metric, x, chart_rays, phis, h)
    curl = _curl(metric, x, phis, h)
    r_a = np.abs(pq[..., 0] * V[..., 0] + pq[..., 1] * V[..., 1] - 1.0)
    r_du = np.abs(-curl * V[..., 1] + dpq[..., 0] * Xphi)
    r_dv = np.abs(curl * V[..., 0] + dpq[..., 1] * Xphi)
    r_dphi = np.abs(-dpq[..., 0] * V[..., 0] - dpq[..., 1] * V[..., 1])
    return r_a, np.maximum.reduce([r_du, r_dv, r_dphi])


def _spray(metric: FinslerMetric2D, chart: str, s: np.ndarray) -> np.ndarray:
    """(Xu, Xv, Xphi) of the Reeb field at the fiber states s = (u, v, phi),
    of shape (3,), or (B, 3) for one block call over B states."""
    if s.ndim == 1:
        x = ChartPoint(chart, s[0], s[1])
    else:
        x = [ChartPoint(chart, u, v) for u, v in s[:, :2]]
    V, Xphi, _ = reeb_profile(metric, x, s[..., 2:])
    return np.concatenate([V[..., 0, :], Xphi], axis=-1)


def _rk4_step(metric: FinslerMetric2D, chart: str, state: np.ndarray,
              dt: float, k1=None) -> np.ndarray:
    """One classical RK4 step of the Reeb flow from the state (u, v, phi),
    shape (3,), or from each row of a (B, 3) batch of states.

    ``k1``, the spray at ``state``, is computed unless given; it does not
    depend on dt, so steps of several sizes from one state can share it.
    The spray of a position-independent metric depends on phi alone, and
    its X_phi is exactly 0.0 (:func:`_curl`), so every stage sees the phi
    of ``state`` and the later stages equal k1 to the bit: they are k1,
    and a step given k1 makes no spray call.  The combination below is
    kept as written, so such a step gives the floats of four calls.
    """
    if k1 is None:
        k1 = _spray(metric, chart, state)
    if metric.position_independent:
        k2 = k3 = k4 = k1
    else:
        k2 = _spray(metric, chart, state + 0.5 * dt * k1)
        k3 = _spray(metric, chart, state + 0.5 * dt * k2)
        k4 = _spray(metric, chart, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _batch_step(metric: FinslerMetric2D, chart: str, states: np.ndarray,
                dt: float, k1=None) -> tuple:
    """``(new states, left)``: one RK4 step of a (B, 3) batch, its first
    stage ``k1`` when given, and for each row whether a stage left the
    chart (its new row is then NaN).  The batch steps as one; when a stage
    raises :class:`DomainError`, the rows step one at a time, each
    computing its own first stage, to find those that left."""
    try:
        return _rk4_step(metric, chart, states, dt, k1), np.zeros(len(states), dtype=bool)
    except DomainError:
        pass
    new = np.full_like(states, np.nan)
    left = np.zeros(len(states), dtype=bool)
    for k, state in enumerate(states):
        try:
            new[k] = _rk4_step(metric, chart, state, dt)
        except DomainError:
            left[k] = True
    return new, left


def geodesic_integrate(metric: FinslerMetric2D, fp, t_end: float, dt: float):
    """Integrate the Reeb field with classical RK4 steps of size dt.

    On the sphere chart the trajectory is truncated with status
    "chart_exit" when it approaches a pole.

    ``fp`` is one FiberPoint, giving a :class:`Trajectory`, or a sequence
    of them, giving a list of trajectories in the same order.  A batch
    integrates together: each RK4 stage is one block
    :func:`reeb_profile` call over the trajectories still running, and a
    trajectory that leaves the chart, or whose state overflows, stops
    while the others go on, so each trajectory is the one its own
    integration gives.  A position-independent metric keeps phi fixed and
    its spray is the same at every state of a trajectory, so the whole
    integration makes one block call, over the start states, and every
    stage of every step is that call's row (:func:`_rk4_step`); the
    floats are those of four calls per step.

    Raises
    ------
    DomainError
        If ``t_end``, ``dt`` or a start angle phi is not finite, or ``dt``
        is not positive (a base point is finite by construction).
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise DomainError(f"t_end and dt must be finite, got {t_end} and {dt}")
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    fps = [fp] if isinstance(fp, FiberPoint) else list(fp)
    chart = metric.chart
    trajs = [Trajectory(times=[0.0], points=[p]) for p in fps]
    states = np.array([[p.base.u, p.base.v, p.phi] for p in fps]).reshape(-1, 3)
    if not np.isfinite(states[:, 2]).all():
        raise DomainError("geodesic start angle phi must be finite")
    running = np.arange(len(fps))
    t = 0.0
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    spray = (_spray(metric, chart, states)
             if metric.position_independent and n_steps > 0 and running.size else None)
    for _ in range(n_steps):
        step = min(dt, t_end - t)
        if step <= 0.0 or running.size == 0:
            break
        new, left = _batch_step(metric, chart, states[running], step,
                                None if spray is None else spray[running])
        t += step
        left |= ~np.isfinite(new).all(axis=1)
        if chart == SPHERE:
            left |= ~((PHI_MIN <= new[:, 0]) & (new[:, 0] <= math.pi - PHI_MIN))
        for k, state, gone in zip(running, new, left):
            if gone:
                trajs[k].status = "chart_exit"
                continue
            states[k] = state
            trajs[k].times.append(t)
            trajs[k].points.append(FiberPoint(ChartPoint(chart, state[0], state[1]),
                                              state[2]))
        running = running[~left]
    return trajs[0] if isinstance(fp, FiberPoint) else trajs

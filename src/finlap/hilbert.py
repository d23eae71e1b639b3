"""Hilbert contact form, canonical volume density and Reeb field.

The fiber circle over a base point x is parametrized by the Euclidean
angle phi of :func:`finlap.metrics.indicatrix_point`.  In the chart
coordinates (u, v, phi) the Hilbert form reads A = p du + q dv with
(p, q) = d_vF evaluated on the ray of direction phi, and the contact
volume A ^ dA has density

    lambda(x, phi) = | q dp/dphi - p dq/dphi |

with respect to dphi ^ du ^ dv.  The sign is dropped; orientation is
tracked separately where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .charts import ChartPoint, PHI_MIN, SPHERE
from .errors import DegenerateContactError, DomainError
from .metrics import FinslerMetric2D, vertical_derivative

H_PHI = 1e-5
H_X = 1e-5
# metrics without an analytic fiber derivative difference a differenced
# quantity; wider steps keep the result above the roundoff floor
H_FD_FALLBACK = 2e-4
DENSITY_FLOOR = 1e-12


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


def _rays(phis: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(phis), np.sin(phis)], axis=-1)


def _a_components(metric: FinslerMetric2D, x: ChartPoint, phis: np.ndarray) -> np.ndarray:
    """(p, q) along the rays of angles phi; d_vF is 0-homogeneous so the
    rays need not be normalized to the indicatrix."""
    return vertical_derivative(metric, x, _rays(phis))


def _steps(metric: FinslerMetric2D, h_phi, h_x):
    if h_phi is None:
        h_phi = H_PHI if metric.analytic_fiber_derivative else H_FD_FALLBACK
    if h_x is None:
        h_x = H_X if metric.analytic_fiber_derivative else H_FD_FALLBACK
    return h_phi, h_x


def _phi_jet(metric: FinslerMetric2D, x: ChartPoint, phis: np.ndarray, h_phi):
    """(p, q) at the angles phis and its central phi-difference."""
    pq = _a_components(metric, x, phis)
    dpq = (_a_components(metric, x, phis + h_phi)
           - _a_components(metric, x, phis - h_phi)) / (2.0 * h_phi)
    return pq, dpq


def _curl(metric: FinslerMetric2D, x: ChartPoint, phis: np.ndarray, h_x) -> np.ndarray:
    """dq/du - dp/dv at the angles phis, by central differences in u and v."""
    pq_du = (_a_components(metric, x.shifted(h_x, 0.0), phis)
             - _a_components(metric, x.shifted(-h_x, 0.0), phis)) / (2.0 * h_x)
    pq_dv = (_a_components(metric, x.shifted(0.0, h_x), phis)
             - _a_components(metric, x.shifted(0.0, -h_x), phis)) / (2.0 * h_x)
    return pq_du[:, 1] - pq_dv[:, 0]


def density_profile(metric: FinslerMetric2D, x: ChartPoint, phis,
                    h_phi=None) -> np.ndarray:
    """lambda(x, phi) over an array of angles (vectorized)."""
    h_phi, _ = _steps(metric, h_phi, None)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    pq, dpq = _phi_jet(metric, x, phis, h_phi)
    return np.abs(pq[:, 1] * dpq[:, 0] - pq[:, 0] * dpq[:, 1])


def hilbert_density(metric: FinslerMetric2D, fp: FiberPoint,
                    h_phi=None) -> float:
    """Density of A ^ dA against dphi ^ du ^ dv at a fiber point.

    The absolute value is returned; :func:`contact_orientation` carries
    the sign of the form in this coordinate ordering.
    """
    return float(density_profile(metric, fp.base, [fp.phi], h_phi)[0])


def contact_orientation(metric: FinslerMetric2D, fp: FiberPoint,
                        h_phi=None) -> int:
    """Sign of A ^ dA relative to dphi ^ du ^ dv (+1 or -1)."""
    h_phi, _ = _steps(metric, h_phi, None)
    pq, dpq = _phi_jet(metric, fp.base, np.array([fp.phi]), h_phi)
    value = pq[0, 1] * dpq[0, 0] - pq[0, 0] * dpq[0, 1]
    return 1 if value >= 0.0 else -1


def reeb_profile(metric: FinslerMetric2D, x: ChartPoint, phis,
                 h_phi=None, h_x=None):
    """Reeb field at all angles phi over the base point x.

    Returns ``(V, Xphi, lam)`` where ``V`` has shape ``(n, 2)`` (chart
    components of the spray, equal to the indicatrix point of direction
    phi), ``Xphi`` the fiber component and ``lam`` the contact density.

    The field solves A(X) = 1 together with two independent components
    of i_X dA = 0; the fiber (dphi) component is always kept and the
    base component is chosen by the larger pivot.
    """
    h_phi, h_x = _steps(metric, h_phi, h_x)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    n = len(phis)

    pq, dpq = _phi_jet(metric, x, phis, h_phi)
    curl = _curl(metric, x, phis, h_x)

    p, q = pq[:, 0], pq[:, 1]
    p_phi, q_phi = dpq[:, 0], dpq[:, 1]
    lam = np.abs(q * p_phi - p * q_phi)
    if np.any(lam < DENSITY_FLOOR):
        raise DegenerateContactError(
            f"contact density below {DENSITY_FLOOR} at ({x.u}, {x.v})"
        )

    # rows: A(X) = 1; dphi-component of i_X dA; du- or dv-component.
    M = np.zeros((n, 3, 3))
    rhs = np.zeros((n, 3))
    M[:, 0, 0], M[:, 0, 1] = p, q
    rhs[:, 0] = 1.0
    M[:, 1, 0], M[:, 1, 1] = p_phi, q_phi
    use_du = np.abs(p_phi) >= np.abs(q_phi)
    M[:, 2, 1] = np.where(use_du, -curl, 0.0)
    M[:, 2, 0] = np.where(use_du, 0.0, curl)
    M[:, 2, 2] = np.where(use_du, p_phi, q_phi)

    try:
        sol = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateContactError(f"Reeb system singular at ({x.u}, {x.v})") from exc
    return sol[:, :2], sol[:, 2], lam


def reeb_field(metric: FinslerMetric2D, fp: FiberPoint,
               h_phi=None, h_x=None) -> ReebVector:
    """Reeb field (geodesic spray) at a single fiber point."""
    V, Xphi, _ = reeb_profile(metric, fp.base, [fp.phi], h_phi, h_x)
    return ReebVector(float(V[0, 0]), float(V[0, 1]), float(Xphi[0]))


def reeb_residuals_profile(metric: FinslerMetric2D, x: ChartPoint, phis,
                           h_phi=None, h_x=None):
    """Defining-equation residuals of the Reeb field over an angle array.

    Re-evaluates the contact form derivatives at independent step sizes
    and returns arrays ``(|A(X) - 1|, max |i_X dA components|)``.
    """
    sp, sx = _steps(metric, None, None)
    if h_phi is None:
        h_phi = 0.5 * sp
    if h_x is None:
        h_x = 0.5 * sx
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    V, Xphi, _ = reeb_profile(metric, x, phis)
    pq, dpq = _phi_jet(metric, x, phis, h_phi)
    curl = _curl(metric, x, phis, h_x)
    r_a = np.abs(pq[:, 0] * V[:, 0] + pq[:, 1] * V[:, 1] - 1.0)
    r_du = np.abs(-curl * V[:, 1] + dpq[:, 0] * Xphi)
    r_dv = np.abs(curl * V[:, 0] + dpq[:, 1] * Xphi)
    r_dphi = np.abs(-dpq[:, 0] * V[:, 0] - dpq[:, 1] * V[:, 1])
    return r_a, np.maximum.reduce([r_du, r_dv, r_dphi])


def reeb_residuals(metric: FinslerMetric2D, fp: FiberPoint,
                   h_phi=None, h_x=None):
    """Scalar version of :func:`reeb_residuals_profile`."""
    r_a, r_da = reeb_residuals_profile(metric, fp.base, [fp.phi], h_phi, h_x)
    return float(r_a[0]), float(r_da[0])


def _sphere_inside(u: float) -> bool:
    return PHI_MIN <= u <= math.pi - PHI_MIN


def _rk4_step(metric: FinslerMetric2D, chart: str, state: np.ndarray,
              dt: float) -> np.ndarray:
    def deriv(s):
        x = ChartPoint(chart, s[0], s[1])
        V, Xphi, _ = reeb_profile(metric, x, [s[2]])
        return np.array([V[0, 0], V[0, 1], Xphi[0]])

    k1 = deriv(state)
    k2 = deriv(state + 0.5 * dt * k1)
    k3 = deriv(state + 0.5 * dt * k2)
    k4 = deriv(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def geodesic_integrate(metric: FinslerMetric2D, fp: FiberPoint,
                       t_end: float, dt: float) -> Trajectory:
    """Integrate the Reeb field with classical RK4 steps of size dt.

    On the sphere chart the trajectory is truncated with status
    "chart_exit" when it approaches a pole.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    chart = metric.chart
    traj = Trajectory()
    state = np.array([fp.base.u, fp.base.v, fp.phi])
    t = 0.0
    traj.times.append(t)
    traj.points.append(fp)
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    for _ in range(n_steps):
        step = min(dt, t_end - t)
        if step <= 0.0:
            break
        try:
            state = _rk4_step(metric, chart, state, step)
        except DomainError:
            traj.status = "chart_exit"
            break
        t += step
        if chart == SPHERE and not _sphere_inside(state[0]):
            traj.status = "chart_exit"
            break
        traj.times.append(t)
        traj.points.append(FiberPoint(ChartPoint(chart, state[0], state[1]), state[2]))
    return traj

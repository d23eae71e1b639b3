"""Canonical angle and volume measures.

The contact volume splits into a normalized angle form on each fiber
(total weight 2*pi) and a volume density on the base.  The volume
density is cross-checked against the Holmes-Thompson construction:
1/pi times the area of the dual unit disc.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .charts import ChartPoint, SPHERE
from .errors import ConfigError, DomainError
from .hilbert import density_profile
from .metrics import FinslerMetric2D, indicatrix_point

DEFAULT_FIBER_N = 256

log = logging.getLogger("finlap.measures")


@dataclass(frozen=True)
class FiberQuadrature:
    """Angular nodes and angle-form weights on one fiber circle."""

    base: ChartPoint
    nodes: np.ndarray
    weights: np.ndarray
    #: mean contact density over the fiber = volume density at the base.
    volume: float

    def __post_init__(self):
        w = self.weights
        if abs(float(w.sum()) - 2.0 * np.pi) > 1e-10:
            raise DomainError("fiber weights must sum to 2*pi")
        if np.any(w <= 0.0):
            raise DomainError("fiber weights must be positive")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise DomainError("fiber nodes must be strictly increasing")

    def integrate(self, values) -> float:
        """Integral of fiber samples against the normalized angle form."""
        return float(self.weights @ np.asarray(values, dtype=float))


def _trapezoid_nodes(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def _quadrature(x: ChartPoint, lam: np.ndarray) -> FiberQuadrature:
    """Quadrature on the trapezoid nodes from contact-density samples."""
    return FiberQuadrature(base=x, nodes=_trapezoid_nodes(len(lam)),
                           weights=2.0 * np.pi * lam / lam.sum(),
                           volume=float(lam.mean()))


def fiber_quadrature(metric: FinslerMetric2D, x: ChartPoint,
                     n: int = DEFAULT_FIBER_N) -> FiberQuadrature:
    """Trapezoidal nodes with weights proportional to the contact density.

    Normalization Sum(w) = 2*pi holds by construction; the trapezoid rule
    on the periodic fiber is spectrally accurate for smooth metrics.
    """
    if n < 16:
        raise ConfigError(f"fiber quadrature needs at least 16 nodes, got {n}")
    return _quadrature(x, density_profile(metric, x, _trapezoid_nodes(n)))


def volume_density(metric: FinslerMetric2D, x: ChartPoint,
                   n: int = DEFAULT_FIBER_N) -> float:
    """Density of the canonical volume against du ^ dv."""
    return float(density_profile(metric, x, _trapezoid_nodes(n)).mean())


def _converged_profile(metric: FinslerMetric2D, x: ChartPoint,
                       n0: int, rtol: float, n_max: int) -> np.ndarray:
    """Contact density on the trapezoid nodes of the smallest doubling of
    n0 on which the fiber volume has converged (at most n_max nodes).

    Needed where the indicatrix is strongly eccentric in the chart basis
    (sphere chart near the poles): the contact density then peaks on an
    angular scale ~ sin(phi) and a fixed trapezoid under-resolves it.
    The nodes of size n are the even nodes of size 2n, so each doubling
    evaluates only the n new odd nodes and interleaves them with the
    samples it has; the result equals a fresh evaluation at the final
    size bit for bit.  Stopping at n_max unconverged is logged at DEBUG.
    """
    lam = density_profile(metric, x, _trapezoid_nodes(n0))
    prev = float(lam.mean())
    change = math.nan
    while len(lam) < n_max:
        n = 2 * len(lam)
        fine = np.empty(n)
        fine[0::2] = lam
        fine[1::2] = density_profile(metric, x, 2.0 * np.pi * np.arange(1, n, 2) / n)
        lam = fine
        cur = float(lam.mean())
        scale = max(abs(cur), 1e-300)
        if abs(cur - prev) <= rtol * scale:
            return lam
        change = abs(cur - prev) / scale
        prev = cur
    log.debug("fiber quadrature at %s (%.6g, %.6g) stopped at the cap of %d nodes "
              "unconverged: last relative volume change %.3g",
              x.chart, x.u, x.v, len(lam), change)
    return lam


def volume_density_adaptive(metric: FinslerMetric2D, x: ChartPoint,
                            n0: int = DEFAULT_FIBER_N, rtol: float = 1e-9,
                            n_max: int = 1 << 15) -> float:
    """Volume density with fiber-node doubling until convergence.

    Each doubling reuses the samples of the previous size; a fiber that
    stops at ``n_max`` unconverged is logged on ``finlap.measures``.
    """
    return float(_converged_profile(metric, x, n0, rtol, n_max).mean())


def fiber_quadrature_adaptive(metric: FinslerMetric2D, x: ChartPoint,
                              n0: int = DEFAULT_FIBER_N, rtol: float = 1e-9,
                              n_max: int = 1 << 15) -> FiberQuadrature:
    """Fiber quadrature with node count doubled until the volume converges.

    Equals :func:`fiber_quadrature` at the converged size, nodes and
    weights included; each doubling reuses the samples of the previous
    size and a fiber that stops at ``n_max`` unconverged is logged on
    ``finlap.measures``.
    """
    lam = _converged_profile(metric, x, n0, rtol, n_max)
    if len(lam) < 16:
        raise ConfigError(f"fiber quadrature needs at least 16 nodes, got {len(lam)}")
    return _quadrature(x, lam)


def chart_fiber_quadrature(metric: FinslerMetric2D, x: ChartPoint,
                           n: int = DEFAULT_FIBER_N) -> FiberQuadrature:
    """Fiber quadrature suited to the metric's chart: adaptive from n nodes
    on the sphere chart, whose fibers grow eccentric toward the poles, and
    the fixed n-node rule elsewhere."""
    if metric.chart == SPHERE:
        return fiber_quadrature_adaptive(metric, x, n)
    return fiber_quadrature(metric, x, n)


def sphere_total_volume(metric: FinslerMetric2D, n_phi: int = 96,
                        n_theta: int = 16) -> float:
    """Total canonical volume of a sphere-chart metric.

    Gauss-Legendre in phi (nodes interior, poles never sampled) times a
    uniform theta rule, with adaptive fiber quadrature per node.
    """
    t, w = np.polynomial.legendre.leggauss(n_phi)
    phis = 0.5 * np.pi * (t + 1.0)
    wphi = 0.5 * np.pi * w
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    total = 0.0
    for phi, wp in zip(phis, wphi):
        ring = float(np.mean([
            volume_density_adaptive(metric, ChartPoint("sphere", phi, th))
            for th in thetas
        ]))
        total += wp * 2.0 * np.pi * ring
    return float(total)


def _boundary_scan(metric: FinslerMetric2D, x: ChartPoint,
                   n_boundary: int) -> tuple:
    """``(phis, vs)``: the indicatrix at x on ``n_boundary`` equally spaced
    Euclidean directions, the dense scan behind :func:`_dual_radii`."""
    phis = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    return phis, indicatrix_point(metric, x, phis)


def _dual_radii(metric: FinslerMetric2D, x: ChartPoint, betas: np.ndarray,
                scan: tuple, refine_steps: int = 4) -> np.ndarray:
    """Radii of the dual unit disc boundary along covector directions betas.

    The support of the indicatrix is maximized over the dense ``scan``
    from :func:`_boundary_scan` (one scan serves any number of calls at
    the same x), then the maximizing angle of each ray is sharpened by
    iterated parabolic refinement with re-evaluation (robust on eccentric
    indicatrices, where the support peaks on a narrow angular scale).
    The support matrix is built rays-major, so that the maximum over the
    scan runs along contiguous rows.
    """
    phis, vs = scan
    beams = np.stack([np.cos(betas), np.sin(betas)], axis=-1)  # (n_rays, 2)
    support = beams @ vs.T                                     # (n_rays, n_boundary)
    rows = np.arange(len(betas))
    idx = np.argmax(support, axis=1)

    def eval_support(ph):
        # ph: (n_rays,) angles; support of each ray's covector at its angle
        v = indicatrix_point(metric, x, ph)
        return np.einsum("ij,ij->i", v, beams)

    center = phis[idx]
    half = np.full_like(center, 2.0 * np.pi / len(phis))
    y2 = support[rows, idx]
    best = y2.copy()
    for _ in range(refine_steps):
        y1 = eval_support(center - half)
        y3 = eval_support(center + half)
        denom = y1 - 2.0 * y2 + y3
        shift = np.where(np.abs(denom) > 1e-300,
                         0.5 * half * (y1 - y3) / denom, 0.0)
        shift = np.clip(shift, -half, half)
        center = center + shift
        y2 = eval_support(center)
        best = np.maximum.reduce([best, y1, y2, y3])
        half *= 0.25
    return 1.0 / np.maximum(best, y2)


def holmes_thompson_density(metric: FinslerMetric2D, x: ChartPoint,
                            n_rays: int = 512, n_boundary: int = 2048) -> float:
    """Area of the dual unit disc {p : F*(x, p) < 1} divided by pi.

    Computed by radial quadrature of the dual boundary; independent of
    the contact-density route, so it serves as an oracle for
    :func:`volume_density`.
    """
    betas = 2.0 * np.pi * np.arange(n_rays) / n_rays
    r = _dual_radii(metric, x, betas, _boundary_scan(metric, x, n_boundary))
    area = 0.5 * float(np.sum(r**2)) * (2.0 * np.pi / n_rays)
    return area / np.pi


def dual_norm_sampled(metric: FinslerMetric2D, x: ChartPoint, v,
                      n_rays: int = 512, n_boundary: int = 1024) -> float:
    """Double dual F**(x, v) = sup { p(v) : F*(x, p) = 1 }.

    The dual unit circle is sampled along ``n_rays`` covector directions
    and the support of v over it is maximized with parabolic refinement.
    Every radius, of the first ``n_rays`` and of each refinement step,
    comes from the same ``n_boundary``-point indicatrix scan, taken once
    per call.
    """
    v = np.asarray(v, dtype=float)
    if np.hypot(v[0], v[1]) == 0.0:
        raise DomainError("double dual undefined at the zero vector")
    scan = _boundary_scan(metric, x, n_boundary)

    def support_of_v(bs):
        r = _dual_radii(metric, x, bs, scan)
        return r * (np.cos(bs) * v[0] + np.sin(bs) * v[1])

    betas = 2.0 * np.pi * np.arange(n_rays) / n_rays
    vals = support_of_v(betas)
    i = int(np.argmax(vals))
    center = betas[i]
    half = 2.0 * np.pi / n_rays
    y2 = vals[i]
    best = y2
    for _ in range(5):
        y1, y3 = support_of_v(np.array([center - half, center + half]))
        denom = y1 - 2.0 * y2 + y3
        if abs(denom) > 1e-300:
            center += float(np.clip(0.5 * half * (y1 - y3) / denom, -half, half))
        y2 = float(support_of_v(np.array([center]))[0])
        best = max(best, y1, y2, y3)
        half *= 0.25
    return float(best)

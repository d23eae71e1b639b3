"""Canonical angle and volume measures.

The contact volume splits into a normalized angle form on each fiber
(total weight 2*pi) and a volume density on the base.  Each fiber is
parametrized by the frame angle psi of :mod:`finlap.hilbert`, in which a
fixed trapezoid rule is spectrally accurate at every base point, the
sphere poles included.  With f(psi) = F(x, A e(psi)) and F 1-homogeneous,
the contact density is lambda = s f (f + f''), s = sin phi on the sphere
chart and 1 elsewhere: the fiber rule (:func:`_fiber_rule`) takes it, and
the indicatrix points rays / f, from one F call, f'' spectral.  The
Hilbert-form jet (:func:`finlap.hilbert.density_profile`) is its oracle,
and the Holmes-Thompson density, 1/pi times the area of the dual unit
disc (the support search of :mod:`finlap.metrics`, re-exported here),
that of the volume.

Each rule also gives its error estimate for free: the half-rule defect
of :func:`_fiber_block`, the error of the n/2-node rule, so at or above
the rule's own.  At ``DEFAULT_FIBER_N`` = 64, ``(sigma, rho)`` of every
built-in metric is within 1e-13 of the 1024-node rule; a call whose worst
defect exceeds ``FIBER_DEFECT_WARN`` logs one WARNING naming its point.

The base quadratures live here too, with the one walk over their points
(:func:`_over_points`) behind :func:`volume_densities` and
:func:`finlap.laplace.symbol_densities`: it evaluates one point per line
of the coordinates the metric declares invariant.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charts import BOTH_COORDS, ChartPoint, SPHERE, TORUS
from .errors import ConfigError, DomainError
from .fields import coords
from .hilbert import _contact_density, chart_angles
from .metrics import (FinslerMetric2D, _check_counts, _nonempty,
                      dual_norm_sampled,  # noqa: F401 (re-exported)
                      frame_rays, frame_stretch, holmes_thompson_density)

DEFAULT_FIBER_N = 64
#: worst half-rule defect of a fiber rule above which it is logged at WARNING
FIBER_DEFECT_WARN = 1e-6
#: the fewest nodes of a fiber rule
MIN_FIBER_N = 16
#: rays per block of base points evaluated together by :func:`_over_points`:
#: large enough that the Python overhead of a block is small against its
#: arithmetic, small enough that each (P, n, 2) temporary stays at 64 KiB
BLOCK_RAYS = 4096
#: relative volume change at which the adaptive fiber rule stops doubling
ADAPTIVE_RTOL = 1e-9
#: the most nodes of the adaptive fiber rule
ADAPTIVE_MAX_N = 1 << 15

log = logging.getLogger("finlap.measures")


@dataclass(frozen=True)
class FiberQuadrature:
    """Angular nodes (chart angles) and angle-form weights on one fiber
    circle."""

    base: ChartPoint
    nodes: np.ndarray
    weights: np.ndarray
    #: mean contact density over the fiber = volume density at the base.
    volume: float

    def __post_init__(self):
        # positive weights summing to 2*pi (NaN fails both)
        if not abs(self.weights.sum() - 2.0 * np.pi) <= 1e-10:
            raise DomainError("fiber weights must sum to 2*pi")
        if not np.all(self.weights > 0.0):
            raise DomainError("fiber weights must be positive")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise DomainError("fiber nodes must be strictly increasing")

    def integrate(self, values) -> float:
        """Integral of fiber samples against the normalized angle form."""
        return float(self.weights @ np.asarray(values, dtype=float))


def _trapezoid_nodes(n: int) -> np.ndarray:
    """The n trapezoid nodes of a fiber rule; ConfigError unless n is an
    integer of at least ``MIN_FIBER_N``."""
    _check_counts(MIN_FIBER_N, fiber_n=n)
    return 2.0 * np.pi * np.arange(n) / n


def _weights(lam: np.ndarray) -> np.ndarray:
    """Angle-form weights from contact-density samples (last axis)."""
    return 2.0 * np.pi * lam / lam.sum(axis=-1, keepdims=True)


def _density(x, f: np.ndarray) -> np.ndarray:
    """The signed contact density s f (f + f'') of F samples f on the
    trapezoid nodes (last axis), f'' spectral, s = 1 / frame_stretch(x)."""
    n = f.shape[-1]
    k = np.arange(n // 2 + 1)
    lam = f * (f + np.fft.irfft(-k * k * np.fft.rfft(f), n))
    stretch = frame_stretch(x)
    return lam if stretch is None else lam / stretch


def _fiber_rule(metric: FinslerMetric2D, x, n: int) -> tuple:
    """``(rays, f, lam)`` on the n trapezoid nodes in the frame angle, at
    one base point, shapes (n, 2), (n,) and (n,), or over a block of P
    points, (P, n, 2), (P, n) and (P, n): the frame rays, F on them (one
    call) and the contact density lam of :func:`_density`, checked by
    :func:`finlap.hilbert._contact_density`."""
    rays = frame_rays(x, _trapezoid_nodes(n))
    f = metric.f(x, rays)
    return rays, f, np.abs(_contact_density(metric, x, _density(x, f)))


def _moments(V: np.ndarray, lam: np.ndarray) -> tuple:
    """``(sigma, rho)`` of a fiber rule: sigma = (1/pi) Sum_k w_k V_k V_k^T,
    w the angle weights of the contact density lam, and rho its mean."""
    sigma = (V * _weights(lam)[..., None]).swapaxes(-1, -2) @ V / math.pi
    return 0.5 * (sigma + sigma.swapaxes(-1, -2)), lam.mean(axis=-1)


def _fiber_block(metric: FinslerMetric2D, x, n: int) -> tuple:
    """``(sigma, rho, defect, lam)`` at one base point or over a block of P
    points (a leading axis P): :func:`_moments` of :func:`_fiber_rule` and
    the half-rule defect max(|sigma - sigma_h| / max|sigma|, |rho - rho_h|
    / rho), ``(sigma_h, rho_h)`` the moments of the even-indexed half of
    the same F samples with their own f''; NaN for odd n."""
    rays, f, lam = _fiber_rule(metric, x, n)
    V = rays / f[..., None]     # the indicatrix points
    sigma, rho = _moments(V, lam)
    if n % 2:
        return sigma, rho, np.full(np.shape(rho), np.nan), lam
    sigma_h, rho_h = _moments(V[..., ::2, :], np.abs(_density(x, f[..., ::2])))
    defect = np.maximum(np.abs(sigma - sigma_h).max(axis=(-2, -1))
                        / np.abs(sigma).max(axis=(-2, -1)), np.abs(rho - rho_h) / rho)
    return sigma, rho, defect, lam


def _worst_defect(points, defect) -> Optional[float]:
    """The largest half-rule defect at the points, None for an odd fiber
    count; logged at WARNING with its point above ``FIBER_DEFECT_WARN``."""
    defect = np.ravel(defect)
    k = int(np.argmax(defect))
    if defect[k] > FIBER_DEFECT_WARN:
        log.warning("fiber rule at (%s, %s): half-rule defect %.3g above %g; raise fiber_n",
                    points[k].u, points[k].v, defect[k], FIBER_DEFECT_WARN)
    return None if math.isnan(defect[k]) else float(defect[k])


def _quadrature(x: ChartPoint, lam: np.ndarray) -> FiberQuadrature:
    """Quadrature on the trapezoid nodes from contact-density samples."""
    return FiberQuadrature(base=x, nodes=chart_angles(x, _trapezoid_nodes(len(lam))),
                           weights=_weights(lam), volume=float(lam.mean()))


def fiber_quadrature(metric: FinslerMetric2D, x: ChartPoint,
                     n: int = DEFAULT_FIBER_N) -> FiberQuadrature:
    """n trapezoidal nodes in the frame angle, stored as chart angles, with
    weights proportional to the contact density of the fiber rule.

    Normalization Sum(w) = 2*pi holds by construction; the trapezoid rule
    on the periodic fiber is spectrally accurate for smooth metrics.
    """
    _, _, defect, lam = _fiber_block(metric, x, n)
    _worst_defect((x,), defect)
    return _quadrature(x, lam)


def volume_density(metric: FinslerMetric2D, x: ChartPoint,
                   n: int = DEFAULT_FIBER_N) -> float:
    """Density of the canonical volume against du ^ dv: the volume of
    :func:`fiber_quadrature`."""
    return fiber_quadrature(metric, x, n).volume


def volume_density_adaptive(metric: FinslerMetric2D, x: ChartPoint) -> float:
    """The volume of :func:`fiber_quadrature_adaptive`: a test oracle for
    the fixed rule of :func:`volume_density`."""
    return fiber_quadrature_adaptive(metric, x).volume


def fiber_quadrature_adaptive(metric: FinslerMetric2D, x: ChartPoint) -> FiberQuadrature:
    """:func:`fiber_quadrature` on the smallest doubling of
    ``DEFAULT_FIBER_N`` nodes on which the volume moved by less than
    ``ADAPTIVE_RTOL``, at most ``ADAPTIVE_MAX_N`` nodes: a test oracle for
    the fixed rule.  Stopping at the cap unconverged is logged at DEBUG
    on ``finlap.measures``."""
    lam = _fiber_rule(metric, x, DEFAULT_FIBER_N)[2]
    change = math.nan
    while len(lam) < ADAPTIVE_MAX_N:
        coarse, lam = lam.mean(), _fiber_rule(metric, x, 2 * len(lam))[2]
        change = abs(lam.mean() - coarse) / max(abs(lam.mean()), 1e-300)
        if change < ADAPTIVE_RTOL:
            break
    else:
        log.debug("fiber quadrature at %s (%.6g, %.6g) stopped at the cap of %d nodes "
                  "unconverged: last relative volume change %.3g",
                  x.chart, x.u, x.v, len(lam), change)
    return _quadrature(x, lam)


@dataclass(frozen=True)
class BaseQuadrature:
    """Base-manifold quadrature: chart points and cell weights."""

    points: Sequence
    weights: np.ndarray

    def __post_init__(self):
        if not len(self.points):
            raise ConfigError("base quadrature needs at least one point")
        if np.shape(self.weights) != (len(self.points),):
            raise ConfigError(f"base quadrature has {np.size(self.weights)} weights "
                              f"for {len(self.points)} points")


class _TorusGrid(Sequence):
    """The points (i/n, j/n) of the n x n torus grid, row-major, each built
    when read: a position-independent walk reads one, not n^2.  Their
    coordinates come as one array, without building a point."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n * self.n

    @property
    def coords(self) -> np.ndarray:
        """The (u, v) of every point, shape (n^2, 2)."""
        return np.stack(np.divmod(np.arange(len(self)), self.n), axis=-1) / self.n

    def __getitem__(self, k):
        ks = range(len(self))[k]
        if isinstance(ks, range):
            return tuple(self[i] for i in ks)
        i, j = divmod(ks, self.n)
        return ChartPoint(TORUS, i / self.n, j / self.n)


def torus_base(n: int) -> BaseQuadrature:
    """The periodic n x n grid (i/n, j/n), row-major, with equal weights."""
    _check_counts(1, n=n)
    return BaseQuadrature(points=_TorusGrid(n), weights=np.full(n * n, 1.0 / n**2))


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], computed
    once per order and returned read-only."""
    c, w = np.polynomial.legendre.leggauss(n)
    c.flags.writeable = False
    w.flags.writeable = False
    return c, w


class _SphereGrid(Sequence):
    """The points (phi_i, theta_j) of a sphere base, phi-major, built once,
    with their coordinates as one read-only array."""

    def __init__(self, phis: np.ndarray, thetas: np.ndarray):
        self._points = tuple(ChartPoint(SPHERE, p, th) for p in phis for th in thetas)
        self.coords = np.stack(np.meshgrid(phis, thetas, indexing="ij"), axis=-1).reshape(-1, 2)
        self.coords.flags.writeable = False

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, k):
        return self._points[k]


@functools.lru_cache(maxsize=8, typed=True)
def sphere_base(n_phi: int, n_theta: int) -> BaseQuadrature:
    """Gauss-Legendre in phi (pole-free; the cached rule of
    :func:`_gauss_legendre`) times uniform theta, phi-major.  Built once
    per ``(n_phi, n_theta)``, with read-only weights and the points of
    :class:`_SphereGrid`; a size of another type, 2.0 for 2, is not the
    cached one and is refused."""
    _check_counts(1, n_phi=n_phi, n_theta=n_theta)
    t, w = _gauss_legendre(n_phi)
    phis = 0.5 * math.pi * (t + 1.0)
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    wts = np.repeat(0.5 * math.pi * w * (2.0 * math.pi / n_theta), n_theta)
    wts.flags.writeable = False
    return BaseQuadrature(points=_SphereGrid(phis, thetas), weights=wts)


def _over_points(kernel, metric: FinslerMetric2D, points, n: int) -> tuple:
    """``kernel(metric, block, n)`` over the base points, in blocks of
    ``BLOCK_RAYS`` rays each, its per-point arrays concatenated, and
    evaluated once per line of the coordinates it drops: those the metric
    declares invariant (``invariant_coords``), less phi on the sphere
    chart, whose frame depends on it:

    * both: at the first point only, each array a read-only broadcast of
      its value over the points, no coordinate read;
    * one: at one representative per distinct value of the other
      coordinate, the first point with it, in the order the points come,
      and gathered back to every point.  Each point's values are then the
      floats of the full walk, and a failure names the point it names;
    * none: at every point, no coordinate read.

    Logs at DEBUG on ``finlap.measures``, before it evaluates, the points
    it evaluates, the points given and the coordinates dropped.  An empty
    sequence of points, or a fiber count ``n`` that is not an integer of
    at least ``MIN_FIBER_N``, is a ConfigError.
    """
    _nonempty(points)
    _check_counts(MIN_FIBER_N, fiber_n=n)
    dropped = metric.invariant_coords - ({"u"} if metric.chart == SPHERE else set())
    walk, where = points, None
    if dropped == BOTH_COORDS:
        walk = points[:1]
    elif dropped:
        line = coords(points)[0 if "v" in dropped else 1]
        _, first, inverse = np.unique(line, return_index=True, return_inverse=True)
        reps = np.sort(first)
        walk, where = [points[k] for k in reps], np.searchsorted(reps, first[inverse])
    log.debug("base walk evaluates %d of %d points, dropping %s",
              len(walk), len(points), ", ".join(sorted(dropped)) or "no coordinate")
    if dropped == BOTH_COORDS:
        return tuple(np.broadcast_to(a, (len(points),) + a.shape[1:])
                     for a in kernel(metric, walk, n))
    size = max(1, BLOCK_RAYS // n)
    blocks = [kernel(metric, walk[k:k + size], n) for k in range(0, len(walk), size)]
    out = tuple(np.concatenate(arrays) for arrays in zip(*blocks))
    return out if where is None else tuple(a[where] for a in out)


def _densities_block(metric: FinslerMetric2D, xs, n: int) -> tuple:
    return _fiber_block(metric, xs, n)[:3]


def _fiber_densities(metric: FinslerMetric2D, points, n: int) -> tuple:
    """``(sigma, rho)`` of the fiber rule at a sequence of base points,
    shapes (P, 2, 2) and (P,), over blocks of points, and their worst
    half-rule defect (:func:`_worst_defect`)."""
    sigma, rho, defect = _over_points(_densities_block, metric, points, n)
    return sigma, rho, _worst_defect(points, defect)


def volume_densities(metric: FinslerMetric2D, points,
                     n: int = DEFAULT_FIBER_N) -> np.ndarray:
    """:func:`volume_density` at a sequence of base points, shape (P,), from
    the fiber rule over blocks of points."""
    return _fiber_densities(metric, points, n)[1]


def sphere_total_volume(metric: FinslerMetric2D, n_phi: int = 96,
                        n_theta: int = 16) -> float:
    """Total canonical volume of a sphere-chart metric: the volume densities
    of :func:`volume_densities` at ``DEFAULT_FIBER_N`` fiber nodes,
    integrated over :func:`sphere_base`.  A metric that declares theta
    invariant (``kz_sphere``) has its densities evaluated on one meridian,
    n_phi points, and the floats of all n_phi * n_theta."""
    base = sphere_base(n_phi, n_theta)
    return float(base.weights @ volume_densities(metric, base.points))

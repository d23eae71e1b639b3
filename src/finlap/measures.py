"""Canonical angle and volume measures.

The contact volume splits into a normalized angle form on each fiber
(total weight 2*pi) and a volume density on the base.  Each fiber is
parametrized by the frame angle psi of :mod:`finlap.hilbert`, in which
the contact density has no feature finer than the fiber itself at any
base point, the poles of the sphere chart included; a fixed trapezoid
rule in psi is therefore spectrally accurate everywhere.  Its nodes are
stored as the chart angles of their rays, so that consumers evaluate
the indicatrix and the Reeb field at them unchanged.  The volume
density is cross-checked against the Holmes-Thompson construction: 1/pi
times the area of the dual unit disc, found by the support search of
:mod:`finlap.metrics` and re-exported here.

The base quadratures live here too, with the one walk over their points
(:func:`_over_points`) behind :func:`volume_densities` and
:func:`finlap.laplace.symbol_densities`.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .charts import ChartPoint, SPHERE, TORUS
from .errors import ConfigError, DomainError
from .hilbert import chart_angles, density_profile
from .metrics import (FinslerMetric2D, _check_counts, _nonempty,
                      dual_norm_sampled,  # noqa: F401 (re-exported)
                      holmes_thompson_density)

DEFAULT_FIBER_N = 256
#: the fewest nodes of a fiber rule
MIN_FIBER_N = 16
#: rays per block of base points evaluated together by :func:`_over_points`:
#: large enough that the Python overhead of a block is small against its
#: arithmetic, small enough that each (P, n, 2) temporary stays at 64 KiB
BLOCK_RAYS = 4096

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
        _check_weights(self.weights)
        if np.any(np.diff(self.nodes) <= 0.0):
            raise DomainError("fiber nodes must be strictly increasing")

    def integrate(self, values) -> float:
        """Integral of fiber samples against the normalized angle form."""
        return float(self.weights @ np.asarray(values, dtype=float))


def _check_weights(w: np.ndarray):
    """Angle-form weights of one fiber, or of a block of fibers along the
    last axis, must be positive and sum to 2*pi (NaN fails both)."""
    if not np.all(np.abs(w.sum(axis=-1) - 2.0 * np.pi) <= 1e-10):
        raise DomainError("fiber weights must sum to 2*pi")
    if not np.all(w > 0.0):
        raise DomainError("fiber weights must be positive")


def _trapezoid_nodes(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def _weights(lam: np.ndarray) -> np.ndarray:
    """Angle-form weights from contact-density samples (last axis)."""
    return 2.0 * np.pi * lam / lam.sum(axis=-1, keepdims=True)


def _fiber_density(metric: FinslerMetric2D, x, n: int) -> np.ndarray:
    """The fiber rule: the contact density on the n trapezoid nodes in the
    frame angle, at one base point (n,) or over a block (P, n)."""
    _check_counts(MIN_FIBER_N, fiber_n=n)
    return density_profile(metric, x, _trapezoid_nodes(n))


def _quadrature(x: ChartPoint, lam: np.ndarray) -> FiberQuadrature:
    """Quadrature on the trapezoid nodes from contact-density samples."""
    return FiberQuadrature(base=x, nodes=chart_angles(x, _trapezoid_nodes(len(lam))),
                           weights=_weights(lam), volume=float(lam.mean()))


def fiber_quadrature(metric: FinslerMetric2D, x: ChartPoint,
                     n: int = DEFAULT_FIBER_N) -> FiberQuadrature:
    """n trapezoidal nodes in the frame angle, stored as chart angles, with
    weights proportional to the contact density.

    Normalization Sum(w) = 2*pi holds by construction; the trapezoid rule
    on the periodic fiber is spectrally accurate for smooth metrics.
    """
    return _quadrature(x, _fiber_density(metric, x, n))


def fiber_weights(metric: FinslerMetric2D, xs, n: int = DEFAULT_FIBER_N):
    """:func:`fiber_quadrature` over a block of P base points at once.

    Returns ``(nodes, weights, volumes)`` with shapes (n,), (P, n) and
    (P,), equal to the nodes, weights and volumes of the one-point
    quadratures; on the sphere chart, whose frame varies with the base
    point, the nodes have shape (P, n).  The weights are checked as
    :class:`FiberQuadrature` checks them.
    """
    lam = _fiber_density(metric, xs, n)
    weights = _weights(lam)
    _check_weights(weights)
    return chart_angles(xs, _trapezoid_nodes(n)), weights, lam.mean(axis=-1)


def volume_density(metric: FinslerMetric2D, x: ChartPoint,
                   n: int = DEFAULT_FIBER_N) -> float:
    """Density of the canonical volume against du ^ dv: the volume of
    :func:`fiber_quadrature`."""
    return float(_fiber_density(metric, x, n).mean())


def _converged_profile(metric: FinslerMetric2D, x: ChartPoint,
                       n0: int, rtol: float, n_max: int) -> np.ndarray:
    """Contact density on the trapezoid nodes of the smallest doubling of
    n0 on which the fiber volume has converged (at most n_max nodes).

    The nodes of size n are the even nodes of size 2n, so each doubling
    evaluates only the n new odd nodes and interleaves them with the
    samples it has; the result equals a fresh evaluation at the final
    size bit for bit.  Stopping at n_max unconverged is logged at DEBUG.
    """
    _check_counts(1, n0=n0, n_max=n_max)
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
    """Volume density with fiber-node doubling until convergence; a test
    oracle for the fixed rule of :func:`volume_density`.

    Each doubling reuses the samples of the previous size; a fiber that
    stops at ``n_max`` unconverged is logged on ``finlap.measures``.
    """
    return float(_converged_profile(metric, x, n0, rtol, n_max).mean())


def fiber_quadrature_adaptive(metric: FinslerMetric2D, x: ChartPoint,
                              n0: int = DEFAULT_FIBER_N, rtol: float = 1e-9,
                              n_max: int = 1 << 15) -> FiberQuadrature:
    """Fiber quadrature with node count doubled until the volume converges;
    a test oracle for :func:`fiber_quadrature`.

    Equals :func:`fiber_quadrature` at the converged size, nodes and
    weights included; each doubling reuses the samples of the previous
    size and a fiber that stops at ``n_max`` unconverged is logged on
    ``finlap.measures``.
    """
    lam = _converged_profile(metric, x, n0, rtol, n_max)
    _check_counts(MIN_FIBER_N, fiber_n=len(lam))
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


def sphere_base(n_phi: int, n_theta: int) -> BaseQuadrature:
    """Gauss-Legendre in phi (pole-free) times uniform theta, phi-major."""
    _check_counts(1, n_phi=n_phi, n_theta=n_theta)
    t, w = np.polynomial.legendre.leggauss(n_phi)
    phis = 0.5 * math.pi * (t + 1.0)
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    pts = tuple(ChartPoint(SPHERE, p, th) for p in phis for th in thetas)
    wts = np.repeat(0.5 * math.pi * w * (2.0 * math.pi / n_theta), n_theta)
    return BaseQuadrature(points=pts, weights=wts)


def _over_points(kernel, metric: FinslerMetric2D, points, n: int) -> tuple:
    """``kernel(metric, block, n)`` over blocks of the base points of
    ``BLOCK_RAYS`` rays each, its per-point arrays concatenated.

    A position-independent metric is evaluated at the first point only,
    and each array is a read-only broadcast of that value over the points.
    An empty sequence of points, or a fiber count ``n`` that is not an
    integer of at least ``MIN_FIBER_N``, is a ConfigError.
    """
    _nonempty(points)
    _check_counts(MIN_FIBER_N, fiber_n=n)
    if metric.position_independent:
        return tuple(np.broadcast_to(a, (len(points),) + a.shape[1:])
                     for a in kernel(metric, points[:1], n))
    size = max(1, BLOCK_RAYS // n)
    blocks = [kernel(metric, points[k:k + size], n) for k in range(0, len(points), size)]
    return tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def _volume_block(metric: FinslerMetric2D, xs, n: int) -> tuple:
    return (fiber_weights(metric, xs, n)[2],)


def volume_densities(metric: FinslerMetric2D, points,
                     n: int = DEFAULT_FIBER_N) -> np.ndarray:
    """:func:`volume_density` at a sequence of base points, shape (P,), from
    the block kernel of :func:`fiber_weights` (no indicatrix)."""
    return _over_points(_volume_block, metric, points, n)[0]


def sphere_total_volume(metric: FinslerMetric2D, n_phi: int = 96,
                        n_theta: int = 16) -> float:
    """Total canonical volume of a sphere-chart metric: the volume densities
    of :func:`volume_densities` at ``DEFAULT_FIBER_N`` fiber nodes,
    integrated over :func:`sphere_base`."""
    base = sphere_base(n_phi, n_theta)
    return float(base.weights @ volume_densities(metric, base.points))

"""Coordinate charts for the supported surfaces.

Three charts are used throughout:

* ``torus`` -- (u, v) in [0,1)^2, both coordinates reduced mod 1;
* ``sphere`` -- polar coordinates (u, v) = (phi, theta) with phi in
  (0, pi) and theta in [0, 2*pi); the poles are excluded, pointwise
  fiber operations require phi in [PHI_MIN, pi - PHI_MIN];
* ``plane`` -- Cartesian coordinates.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TORUS = "torus"
SPHERE = "sphere"
PLANE = "plane"

CHARTS = (TORUS, SPHERE, PLANE)

#: the invariant coordinates (``invariant_coords``) of a metric or field
#: that depends on neither chart coordinate
BOTH_COORDS = frozenset({"u", "v"})

# Polar-coordinate degeneracy guard: pointwise operations stay inside
# [PHI_MIN, pi - PHI_MIN].
PHI_MIN = 1e-6


@dataclass(frozen=True)
class ChartPoint:
    """A base point on one of the supported charts."""

    chart: str
    u: float
    v: float

    def __post_init__(self):
        if self.chart not in CHARTS:
            raise DomainError(f"unknown chart {self.chart!r}")
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise DomainError("non-finite chart coordinates")
        if self.chart == TORUS:
            object.__setattr__(self, "u", self.u % 1.0)
            object.__setattr__(self, "v", self.v % 1.0)
        elif self.chart == SPHERE:
            if not (PHI_MIN <= self.u <= math.pi - PHI_MIN):
                raise DomainError(
                    f"sphere chart requires phi in [{PHI_MIN}, pi-{PHI_MIN}], got {self.u}"
                )
            object.__setattr__(self, "v", self.v % (2.0 * math.pi))

    def shifted(self, du: float, dv: float) -> "ChartPoint":
        """Point displaced by (du, dv) in chart coordinates (revalidated)."""
        return ChartPoint(self.chart, self.u + du, self.v + dv)


def torus_point(u: float, v: float) -> ChartPoint:
    return ChartPoint(TORUS, u, v)


def sphere_point(phi: float, theta: float) -> ChartPoint:
    return ChartPoint(SPHERE, phi, theta)


def plane_point(x: float, y: float) -> ChartPoint:
    return ChartPoint(PLANE, x, y)


class _Grid(Sequence):
    """The points (us[i], vs[j]) on one chart, row-major: the product of
    two read-only axes.  One point read alone is built alone, so a
    position-independent walk, which reads one, builds one; the first read
    of more than one point, iteration included, builds them all, once, and
    every later read returns those.  ``coords`` holds their coordinates as
    one read-only array, built on first use without building a point."""

    def __init__(self, chart: str, us, vs):
        self.chart, self._points = chart, None
        self.us, self.vs = np.array(us, dtype=float), np.array(vs, dtype=float)
        self.us.flags.writeable = self.vs.flags.writeable = False

    def __len__(self) -> int:
        return len(self.us) * len(self.vs)

    @functools.cached_property
    def coords(self) -> np.ndarray:
        """The (u, v) of every point, shape (len, 2)."""
        uv = np.stack(np.meshgrid(self.us, self.vs, indexing="ij"), axis=-1).reshape(-1, 2)
        uv.flags.writeable = False
        return uv

    def __getitem__(self, k):
        ks = range(len(self))[k]
        if isinstance(ks, range) and len(ks) < 2:
            return tuple(self[i] for i in ks)
        if self._points is None and isinstance(ks, int):
            i, j = divmod(ks, len(self.vs))
            return ChartPoint(self.chart, float(self.us[i]), float(self.vs[j]))
        if self._points is None:
            vs = self.vs.tolist()
            self._points = tuple(ChartPoint(self.chart, u, v) for u in self.us.tolist() for v in vs)
        return self._points[k]

    def __iter__(self):
        return iter(self[:])

"""Coordinate charts for the supported surfaces.

Three charts are used throughout:

* ``torus`` -- (u, v) in [0,1)^2, both coordinates reduced mod 1;
* ``sphere`` -- polar coordinates (u, v) = (phi, theta) with phi in
  (0, pi) and theta in [0, 2*pi); the poles are excluded, pointwise
  fiber operations require phi in [PHI_MIN, pi - PHI_MIN];
* ``plane`` -- Cartesian coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

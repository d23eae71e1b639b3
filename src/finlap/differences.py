"""Finite differences: every step of the library and the stencils of its
pointwise derivatives (the grid stencils of the torus operator live in
:mod:`finlap.laplace`).

Outside the analytic formulas, each derivative of the Hilbert form and of
a scalar field is a central difference with a fixed step from the table
below.  No public function takes a step argument; a route that needs a
different accuracy gets its own row here.
"""

from __future__ import annotations

import numpy as np

# The step table.
#: relative fiber step of the differenced d_vF (a metric without an
#: analytic one): the step is FIBER_REL * |v|
FIBER_REL = 1e-5
#: step in the angle and the base point of the Hilbert-form jet: the
#: contact density, the curl of the Reeb field and the spray derivatives
JET = 1e-5
#: the jet step of a metric whose d_vF is itself differenced: wider, so
#: that the nested difference stays above its roundoff floor
JET_NESTED = 2e-4
#: base step of the gradient of a field without an analytic one
GRADIENT = 1e-5
#: base step of the Hessian of a field without an analytic one
HESSIAN = 1e-4
#: relative fiber step of the Hessian of F^2/2 (the convexity margin)
CONVEXITY_REL = 1e-4
#: base step of the divergence-form drift (1/rho) d_i (rho sigma_ij)
DRIFT = 1e-4
#: geodesic time step of the second difference along each geodesic
GEODESIC = 1e-3


def jet_step(metric) -> float:
    """The jet step of ``metric``: ``JET`` with an analytic d_vF, else
    ``JET_NESTED``."""
    return JET if metric.analytic_fiber_derivative else JET_NESTED


def central(fn, h):
    """(fn(h) - fn(-h)) / (2 h), ``fn(h)`` evaluated first; ``h`` may be
    an array that broadcasts against the values of ``fn``."""
    return (fn(h) - fn(-h)) / (2.0 * h)


def second(fn, f0, h):
    """(fn(h) - 2 f0 + fn(-h)) / h^2, with f0 = fn(0)."""
    return (fn(h) - 2.0 * f0 + fn(-h)) / h**2


def hessian(e, f0, h) -> np.ndarray:
    """2x2 Hessian at the origin of ``e(du, dv)``, with f0 = e(0, 0): the
    second difference on the diagonal and the 4-corner stencil off it."""
    huu = second(lambda t: e(t, 0.0), f0, h)
    hvv = second(lambda t: e(0.0, t), f0, h)
    huv = (e(h, h) - e(h, -h) - e(-h, h) + e(-h, -h)) / (4.0 * h**2)
    return np.array([[huu, huv], [huv, hvv]])

"""The Finsler-Laplace operator.

Pointwise, the operator is the fiber average (against the normalized
angle form) of second derivatives along geodesics:

    Lap f(x) = (1/pi) * Integral_fiber  d^2/dt^2 f(c_t) dAngle

Averaging the spray expansion gives the coefficient form

    Lap f = sigma : Hess f + Z . grad f

with the symbol sigma = (1/pi) * Int V V^T dAngle (V the projected
spray), drift Z from the fiber average of spray derivatives, and the
volume density rho making the operator symmetric.  Symmetry for the
canonical volume forces the divergence form

    Lap f = (1/rho) div(rho sigma grad f)

so the pair (sigma, rho) determines the operator.

Production path: :func:`symbol_densities` computes (sigma, rho) at any
base points, in blocks, from the fiber quadrature and the indicatrix
alone (V equals the indicatrix point of its direction), and
:func:`conservative_pencil` assembles the torus pencil in divergence
form; it is symmetric, negative semidefinite and annihilates constants
by construction.

Oracles: :func:`coefficients_at` (symbol, drift and density from the
Reeb field, in blocks of base points; :func:`operator_coefficients` is
its one-point case, :func:`grid_coefficients` the torus grid), the
coefficient stencil :func:`assemble_torus_operator` and the geodesic
route of :func:`laplacian_apply` are independent evaluations kept for
tests, ``finlap symbol`` and ``finlap verify``;
:func:`weighted_symmetry_residual` checks the stencil against the pencil.
Both routes walk base points with :func:`finlap.measures._over_points`,
the one place that chooses blocks or the position-independent shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .charts import ChartPoint, TORUS
from .differences import DRIFT, GEODESIC, central, jet_step, second
from .errors import ConfigError, NumericError
from .fields import field_gradient, field_gradients, field_hessian, field_hessians, field_values
from .hilbert import _rk4_step, _shifted, reeb_profile
from .measures import (BLOCK_RAYS, DEFAULT_FIBER_N, _over_points, fiber_quadrature,
                       fiber_weights, torus_base)
from .metrics import FinslerMetric2D, indicatrix_point


@dataclass(frozen=True)
class OperatorCoefficients:
    """Pointwise data of the operator: symbol, drift, volume density."""

    sigma: np.ndarray       # 2x2 symmetric positive definite (co-metric)
    drift: np.ndarray       # first-order coefficients
    vol_density: float      # density of the canonical volume vs du^dv

    def __post_init__(self):
        s = 0.5 * (self.sigma + self.sigma.T)
        object.__setattr__(self, "sigma", s)
        _check_symbol(s, self.vol_density)

    def apply(self, grad: np.ndarray, hess: np.ndarray) -> float:
        """sigma : Hess + Z . grad for given derivatives of f."""
        return float(np.sum(self.sigma * hess) + self.drift @ grad)


def _check_symbol(sigma: np.ndarray, rho):
    """Raise :class:`NumericError` unless each symmetric sigma (last two
    axes) is positive definite and each rho positive."""
    # a symmetric 2x2 matrix is positive definite iff s11 > 0 and det > 0
    # (its lower triangle, which eigvalsh reads)
    s11 = sigma[..., 0, 0]
    det = s11 * sigma[..., 1, 1] - sigma[..., 1, 0] ** 2
    if not (np.all(s11 > 0.0) and np.all(det > 0.0)):
        raise NumericError(f"symbol not positive definite: smallest eigenvalue "
                           f"{np.linalg.eigvalsh(sigma)[..., 0].min()}")
    if not np.all(rho > 0.0):
        raise NumericError("volume density must be positive")


def _coefficients(metric: FinslerMetric2D, x, fiber_n: int):
    """``(sigma, drift, rho)`` from the Reeb field at one base point, shapes
    (2, 2), (2,) and (), or over a block of P points, (P, 2, 2), (P, 2)
    and (P,):

        sigma_ij = (1/pi) Sum_k w_k V_i V_j
        drift_i  = (1/pi) Sum_k w_k (V_j dV_i/dx_j + Xphi dV_i/dphi)

    with V, Xphi the Reeb components at the fiber nodes and w the angle
    weights.  The derivatives of V are central differences of the jet
    step, the spatial ones with the block shifted as a block: seven
    Reeb-field calls.
    """
    h = jet_step(metric)
    nodes, w, rho = fiber_weights(metric, x, fiber_n)
    V, Xphi, _ = reeb_profile(metric, x, nodes)
    dV_du = central(lambda t: reeb_profile(metric, _shifted(x, t, 0.0), nodes)[0], h)
    dV_dv = central(lambda t: reeb_profile(metric, _shifted(x, 0.0, t), nodes)[0], h)
    dV_dphi = central(lambda t: reeb_profile(metric, x, nodes + t)[0], h)
    advect = V[..., 0, None] * dV_du + V[..., 1, None] * dV_dv + Xphi[..., None] * dV_dphi

    sigma = (V * w[..., None]).swapaxes(-1, -2) @ V / math.pi
    drift = (w[..., None, :] @ advect)[..., 0, :] / math.pi
    return 0.5 * (sigma + sigma.swapaxes(-1, -2)), drift, rho


def operator_coefficients(metric: FinslerMetric2D, x: ChartPoint,
                          fiber_n: int = DEFAULT_FIBER_N) -> OperatorCoefficients:
    """Symbol, drift and volume density at one base point from the Reeb
    field, the one-point case of :func:`coefficients_at`: one fiber rule
    and seven Reeb-field calls of ``fiber_n`` rays each.  Nothing is kept
    between calls."""
    sigma, drift, rho = _coefficients(metric, x, fiber_n)
    return OperatorCoefficients(sigma=sigma, drift=drift, vol_density=float(rho))


def coefficients_at(metric: FinslerMetric2D, points,
                    fiber_n: int = DEFAULT_FIBER_N):
    """:func:`operator_coefficients` at a sequence of base points of any
    chart: ``(sigma, drift, rho)`` of shapes (P, 2, 2), (P, 2) and (P,),
    in blocks of base points (read-only broadcasts of one point for a
    position-independent metric).  Raises :class:`NumericError` unless
    sigma is positive definite and rho positive everywhere.
    """
    sigma, drift, rho = _over_points(_coefficients, metric, points, fiber_n)
    _check_symbol(sigma, rho)
    return sigma, drift, rho


def coefficient_form(sigma: np.ndarray, drift: np.ndarray, f, points) -> np.ndarray:
    """sigma : Hess f + drift . grad f at P base points, shape (P,), from
    coefficients of shapes (P, 2, 2) and (P, 2)."""
    grad = field_gradients(f, points)
    hess = field_hessians(f, points)
    return (sigma * hess).sum(axis=(-2, -1)) + (drift * grad).sum(axis=-1)


def laplacian_apply(metric: FinslerMetric2D, f, x: ChartPoint,
                    path: str = "coefficient",
                    fiber_n: int = DEFAULT_FIBER_N) -> float:
    """Apply the operator to a scalar field at a point.

    Two routes are exposed and agree to O(h^2), h the geodesic time step
    ``finlap.differences.GEODESIC``:

    * ``"coefficient"`` -- sigma : Hess f + Z . grad f with the field's
      derivatives (analytic when the field provides them);
    * ``"geodesic"`` -- fiber average of the centered second difference
      of f along the geodesic through x in each fiber direction; the
      backward branch is the flow for -h, and each branch is one RK4
      step of the batch of all fiber nodes.
    """
    if path == "coefficient":
        coeffs = operator_coefficients(metric, x, fiber_n)
        return coeffs.apply(field_gradient(f, x), field_hessian(f, x))
    if path == "geodesic":
        quad = fiber_quadrature(metric, x, fiber_n)
        states = np.column_stack([np.full(fiber_n, x.u), np.full(fiber_n, x.v), quad.nodes])

        def f_after(dt):
            ends = _rk4_step(metric, metric.chart, states, dt)
            return field_values(f, [ChartPoint(metric.chart, u, v) for u, v in ends[:, :2]])

        d2f = second(f_after, float(f(x)), GEODESIC)
        return float(quad.weights @ d2f) / math.pi
    raise ConfigError(f"unknown path {path!r}")


def divergence_form_drift(metric: FinslerMetric2D, x: ChartPoint,
                          fiber_n: int = DEFAULT_FIBER_N) -> np.ndarray:
    """Drift implied by symmetry: Z_j = (1/rho) d_i (rho sigma_ij).

    The pair (symbol, volume density) determines the first-order part of
    any operator symmetric in L^2(volume); this is the independent check
    of the quadrature drift.  The sign of the gradient term is the one
    forced by symmetry.  K = rho sigma is differenced with the step
    ``finlap.differences.DRIFT``, its five points in one coefficient call.
    """
    h = DRIFT
    shifts = [(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]
    sigma, _, rho = coefficients_at(metric, [x] + [x.shifted(*s) for s in shifts], fiber_n)
    K = dict(zip(shifts, rho[1:, None, None] * sigma[1:]))
    d_du = central(lambda t: K[t, 0.0], h)
    d_dv = central(lambda t: K[0.0, t], h)
    return (d_du[0, :] + d_dv[1, :]) / rho[0]


def grid_coefficients(metric: FinslerMetric2D, n: int,
                      fiber_n: int = DEFAULT_FIBER_N):
    """Operator coefficients on the periodic n x n torus grid:
    :func:`coefficients_at` over :func:`finlap.measures.torus_base`.

    Returns ``(sigma, drift, vol)`` with shapes (n, n, 2, 2), (n, n, 2)
    and (n, n).  Grid points are (i/n, j/n).
    """
    if metric.chart != TORUS:
        raise ConfigError("grid assembly requires the torus chart")
    if n < 4:
        raise ConfigError(f"grid too coarse: n = {n}")
    sigma, drift, vol = coefficients_at(metric, torus_base(n).points, fiber_n)
    return sigma.reshape(n, n, 2, 2), drift.reshape(n, n, 2), vol.reshape(n, n)


def assemble_torus_operator(metric: FinslerMetric2D, n: int,
                            fiber_n: int = DEFAULT_FIBER_N):
    """Second-order centered discretization of the operator on the torus.

    Returns ``(L, vol)`` with L sparse (n^2 x n^2) acting on row-major
    grid vectors, and vol the (n, n) volume densities.  Stencils:
    centered second differences for sigma_11/sigma_22, the 4-point cross
    for the mixed term, centered first differences for the drift.
    """
    sigma, drift, vol = grid_coefficients(metric, n, fiber_n)
    return _coefficient_stencil(sigma, drift), vol


def _at(a: np.ndarray, du: int, dv: int) -> np.ndarray:
    """a at the neighbour (i + du, j + dv) of every node (i, j) of the
    periodic grid."""
    return np.roll(a, (-du, -dv), axis=(0, 1))


def _stencil_matrix(stencil) -> sp.csr_matrix:
    """The sparse matrix of a periodic stencil on the n x n grid, acting on
    row-major grid vectors: ``stencil`` lists ``((du, dv), values)`` with
    values (n, n), the entry of row (i, j) in the column of its neighbour
    (i + du, j + dv).  Every row holds the same offsets."""
    n = stencil[0][1].shape[0]
    idx = np.arange(n * n).reshape(n, n)
    cols = np.stack([_at(idx, du, dv).ravel() for (du, dv), _ in stencil], axis=1)
    vals = np.stack([v.ravel() for _, v in stencil], axis=1)
    indptr = np.arange(0, vals.size + 1, len(stencil))
    A = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n * n, n * n))
    A.sort_indices()
    return A


def _coefficient_stencil(sigma: np.ndarray, drift: np.ndarray):
    """The sparse L of :func:`assemble_torus_operator` from grid coefficients."""
    h = 1.0 / sigma.shape[0]
    s11 = sigma[..., 0, 0] / h**2
    s22 = sigma[..., 1, 1] / h**2
    s12 = sigma[..., 0, 1] / (2.0 * h**2)   # coefficient of the cross stencil
    du = drift[..., 0] / (2.0 * h)
    dv = drift[..., 1] / (2.0 * h)
    return _stencil_matrix([
        ((0, 0), -2.0 * (s11 + s22)),
        ((1, 0), s11 + du), ((-1, 0), s11 - du), ((0, 1), s22 + dv), ((0, -1), s22 - dv),
        # 2*sigma_12*f_uv with the centered 4-corner stencil
        ((1, 1), s12), ((-1, -1), s12), ((1, -1), -s12), ((-1, 1), -s12),
    ])


def _symbol_density_block(metric: FinslerMetric2D, xs, fiber_n: int):
    """``(sigma, rho)`` over a block of P base points, shapes (P, 2, 2) and
    (P,), in one set of array operations.

    sigma = (1/pi) Sum_k w_k V_k V_k^T over the fiber quadrature and rho
    its volume.  The horizontal Reeb component V is the indicatrix point
    of its direction, so neither the Reeb field nor any base-point
    differencing is needed; the fiber rule checks the contact density.
    """
    nodes, weights, rho = fiber_weights(metric, xs, fiber_n)
    V = indicatrix_point(metric, xs, nodes)
    sigma = (V * weights[..., None]).swapaxes(-1, -2) @ V / math.pi
    return 0.5 * (sigma + sigma.swapaxes(-1, -2)), rho


def symbol_density(metric: FinslerMetric2D, x: ChartPoint,
                   fiber_n: int = DEFAULT_FIBER_N):
    """Symbol and volume density ``(sigma, rho)`` at one base point of any
    chart, without the drift: the one-point case of the block kernel."""
    sigma, rho = _symbol_density_block(metric, (x,), fiber_n)
    return sigma[0], float(rho[0])


def symbol_densities(metric: FinslerMetric2D, points,
                     fiber_n: int = DEFAULT_FIBER_N):
    """``(sigma, rho)`` at a sequence of base points of any chart, shapes
    (P, 2, 2) and (P,), in blocks of base points (read-only broadcasts of
    one point for a position-independent metric)."""
    return _over_points(_symbol_density_block, metric, points, fiber_n)


def grid_symbol_density(metric: FinslerMetric2D, n: int,
                        fiber_n: int = DEFAULT_FIBER_N):
    """(sigma, rho) on the periodic n x n torus grid as read-only arrays of
    shapes (n, n, 2, 2) and (n, n): :func:`symbol_densities` over
    :func:`finlap.measures.torus_base`.  Raises :class:`NumericError`
    unless sigma is positive definite and rho positive everywhere.
    """
    if metric.chart != TORUS:
        raise ConfigError("grid assembly requires the torus chart")
    sigma, rho = symbol_densities(metric, torus_base(n).points, fiber_n)
    sigma, rho = sigma.reshape(n, n, 2, 2), rho.reshape(n, n)
    _check_symbol(sigma, rho)
    return np.broadcast_to(sigma, sigma.shape), np.broadcast_to(rho, rho.shape)


def conservative_pencil(sigma: np.ndarray, rho: np.ndarray):
    """Divergence-form pencil ``(S, M)`` of the operator on the periodic grid.

    With K = rho sigma and h = 1/n, -f^T S f is the discrete energy

        Sum_nodes [ (K11/2)(a+^2 + a-^2) + (K22/2)(b+^2 + b-^2)
                    + (K12/2)(a+ + a-)(b+ + b-) ] h^2

    where a+-, b+- are the one-sided differences of f in u and v at the
    node.  Each node's quadratic form is positive definite when K is, so
    S is symmetric (entry for entry, in floating point), -S is positive
    semidefinite and its kernel is the constants.  Equivalently the u and
    v fluxes use edge-midpoint averages of K11 and K22 and the mixed term
    is D0u K12 D0v + D0v K12 D0u with central differences D0; for
    constant K this is the centered 9-point stencil of
    :func:`assemble_torus_operator`.  M = diag(rho h^2).
    """
    n = rho.shape[0]
    K = rho[..., None, None] * sigma
    k11, k22, k12 = K[..., 0, 0], K[..., 1, 1], K[..., 0, 1]
    e1 = 0.5 * (k11 + _at(k11, 1, 0))    # on the edge (i, j) -- (i+1, j)
    e2 = 0.5 * (k22 + _at(k22, 0, 1))    # on the edge (i, j) -- (i, j+1)
    e1m, e2m = _at(e1, -1, 0), _at(e2, 0, -1)
    S = _stencil_matrix([
        ((0, 0), -(e1 + e1m + e2 + e2m)),
        ((1, 0), e1), ((-1, 0), e1m), ((0, 1), e2), ((0, -1), e2m),
        ((1, 1), 0.25 * (_at(k12, 1, 0) + _at(k12, 0, 1))),
        ((-1, -1), 0.25 * (_at(k12, -1, 0) + _at(k12, 0, -1))),
        ((1, -1), -0.25 * (_at(k12, 0, -1) + _at(k12, 1, 0))),
        ((-1, 1), -0.25 * (_at(k12, 0, 1) + _at(k12, -1, 0))),
    ])
    M = sp.diags(rho.ravel() * (1.0 / n**2)).tocsr()
    return S, M


def _sym_defect(a) -> float:
    """max |a - a^T| / max |a| of a dense or sparse matrix (0 for a zero
    matrix), from the stored entries alone when it is sparse."""
    if sp.issparse(a):
        diff = (a - a.T).tocoo()
        num = np.abs(diff.data).max() if diff.nnz else 0.0
        den = np.abs(a.tocoo().data).max()
    else:
        num = np.abs(a - a.T).max()
        den = np.abs(a).max()
    return float(num / den) if den > 0 else 0.0


@dataclass(frozen=True)
class SymmetryReport:
    """Discrete symmetry and divergence-form defects on a torus grid."""

    symmetry_defect: float      # max |(ML)_ij - (ML)_ji| / scale
    divergence_defect: float    # sup |coeff path - divergence form| / scale
    grid_n: int


def weighted_symmetry_residual(metric: FinslerMetric2D, n: int,
                               f=None, fiber_n: int = DEFAULT_FIBER_N) -> SymmetryReport:
    """Check that the discrete operator is symmetric for the volume weight.

    Assembles L and the diagonal mass M = diag(vol * h^2) on the periodic
    grid and reports the relative asymmetry max |S - S^T| / max |S| of
    S = M L, from the stored entries of the sparse matrices alone (no
    dense n^2 x n^2 copy at any grid size).  Also compares the
    coefficient path against (1/rho) div(rho sigma grad f) of a smooth
    test field f, discretized by :func:`conservative_pencil` as production
    spectra are; that defect decays at second order under refinement.
    """
    from .fields import SeparableTrigField, SumField

    if f is None:
        f = SumField([
            SeparableTrigField(1.0, "cos", 1, "one", 0),
            SeparableTrigField(1.0, "one", 0, "sin", 1),
        ])
    # one coefficient evaluation serves the stencil and the divergence form
    sigma, drift, vol = grid_coefficients(metric, n, fiber_n)
    L = _coefficient_stencil(sigma, drift)
    h = 1.0 / n
    M = sp.diags(vol.ravel() * h**2)
    S = M @ L

    # the divergence form is the conservative pencil's S f / (rho h^2)
    points = torus_base(n).points
    fx = field_values(f, points)
    div_form = (conservative_pencil(sigma, vol)[0] @ fx).reshape(n, n) / (vol * h**2)

    coeff = coefficient_form(sigma.reshape(-1, 2, 2), drift.reshape(-1, 2), f,
                             points).reshape(n, n)
    scale = np.abs(coeff).max()
    div_defect = float(np.abs(coeff - div_form).max() / scale)
    return SymmetryReport(symmetry_defect=_sym_defect(S), divergence_defect=div_defect,
                          grid_n=n)

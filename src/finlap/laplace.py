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
base points, in blocks, from one F call per block, the fiber rule of
:mod:`finlap.measures` (V is the indicatrix point of its direction);
:func:`divergence_form_drift` differences rho sigma over one such call at
a point and its four neighbours, and :func:`conservative_pencil`
assembles the torus pencil in divergence form; it is symmetric, negative
semidefinite and annihilates constants by construction.  Every torus
stencil matrix is built on a sparsity pattern computed once per grid
size, and the symmetry defect of a stencil's matrix is read off its values.

Oracles: :func:`coefficients_at` (symbol, drift and density from the
Reeb field and the Hilbert-form jet, in blocks of base points;
:func:`operator_coefficients` is its one-point case,
:func:`grid_coefficients` the torus grid), the coefficient stencil
:func:`assemble_torus_operator` and the geodesic route of
:func:`laplacian_apply` are independent evaluations kept for tests and
``finlap verify``; :func:`weighted_symmetry_residual` checks the stencil
against the pencil.  The oracles default to ``REEB_FIBER_N`` fiber nodes,
the production path to ``finlap.measures.DEFAULT_FIBER_N``.  Both walk
base points with :func:`finlap.measures._over_points`, the one place that
chooses blocks and the points a metric's invariant coordinates let it skip.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .charts import ChartPoint, PHI_MIN, SPHERE, TORUS
from .differences import DRIFT, GEODESIC, central, jet_step, second
from .errors import ConfigError, DomainError, NumericError
from .fields import (SeparableTrigField, SumField, field_gradient, field_gradients, field_hessian,
                     field_hessians, field_values)
from .hilbert import (_rk4_step, _shifted, _spray, chart_angles, density_profile,
                      reeb_profile)
from .measures import (BLOCK_RAYS, DEFAULT_FIBER_N, _fiber_densities, _moments, _over_points,
                       _trapezoid_nodes, _weights, fiber_quadrature, torus_base)
from .metrics import FinslerMetric2D

#: fiber nodes of the Reeb-route oracle of tests, ``verify`` and criteria
#: 05, 06 and 09: its drift differences the Reeb field over the fiber, which
#: needs more nodes than ``(sigma, rho)`` do (criterion 05 reads 2.07e-6 at 64)
REEB_FIBER_N = 256


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
    weights of one :func:`~finlap.hilbert.density_profile` call on the
    trapezoid nodes.  The derivatives of V are central differences of the
    jet step, the spatial ones with the block shifted as a block: seven
    Reeb-field calls.
    """
    h = jet_step(metric)
    psis = _trapezoid_nodes(fiber_n)
    lam = density_profile(metric, x, psis)
    nodes = chart_angles(x, psis)
    V, Xphi, _ = reeb_profile(metric, x, nodes)
    dV_du = central(lambda t: reeb_profile(metric, _shifted(x, t, 0.0), nodes)[0], h)
    dV_dv = central(lambda t: reeb_profile(metric, _shifted(x, 0.0, t), nodes)[0], h)
    dV_dphi = central(lambda t: reeb_profile(metric, x, nodes + t)[0], h)
    advect = V[..., 0, None] * dV_du + V[..., 1, None] * dV_dv + Xphi[..., None] * dV_dphi

    sigma, rho = _moments(V, lam)
    drift = (_weights(lam)[..., None, :] @ advect)[..., 0, :] / math.pi
    return sigma, drift, rho


def operator_coefficients(metric: FinslerMetric2D, x: ChartPoint,
                          fiber_n: int = REEB_FIBER_N) -> OperatorCoefficients:
    """Symbol, drift and volume density at one base point from the Reeb
    field, the one-point case of :func:`coefficients_at`: one fiber rule
    and seven Reeb-field calls of ``fiber_n`` rays each.  Nothing is kept
    between calls."""
    sigma, drift, rho = _coefficients(metric, x, fiber_n)
    return OperatorCoefficients(sigma=sigma, drift=drift, vol_density=float(rho))


def coefficients_at(metric: FinslerMetric2D, points,
                    fiber_n: int = REEB_FIBER_N):
    """:func:`operator_coefficients` at a sequence of base points of any
    chart: ``(sigma, drift, rho)`` of shapes (P, 2, 2), (P, 2) and (P,),
    from the walk of :func:`finlap.measures._over_points` (one point per
    line of a coordinate the metric declares invariant).  Raises
    :class:`NumericError` unless sigma is positive definite and rho
    positive everywhere.
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
                    fiber_n: int = REEB_FIBER_N) -> float:
    """Apply the operator to a scalar field at a point.

    Two routes are exposed and agree to O(h^2), h the geodesic time step
    ``finlap.differences.GEODESIC``:

    * ``"coefficient"`` -- sigma : Hess f + Z . grad f with the field's
      derivatives (analytic when the field provides them);
    * ``"geodesic"`` -- fiber average of the centered second difference
      of f along the geodesic through x in each fiber direction; the
      backward branch is the flow for -h, and each branch is one RK4
      step of the batch of all fiber nodes.  Both branches start from
      the same states, so they share the first stage, one block Reeb
      call: seven calls in all, and one for a position-independent
      metric (:func:`finlap.hilbert._rk4_step`).
    """
    if path == "coefficient":
        coeffs = operator_coefficients(metric, x, fiber_n)
        return coeffs.apply(field_gradient(f, x), field_hessian(f, x))
    if path == "geodesic":
        quad = fiber_quadrature(metric, x, fiber_n)
        states = np.column_stack([np.full(fiber_n, x.u), np.full(fiber_n, x.v), quad.nodes])
        k1 = _spray(metric, metric.chart, states)

        def f_after(dt):
            ends = _rk4_step(metric, metric.chart, states, dt, k1)
            return field_values(f, [ChartPoint(metric.chart, u, v) for u, v in ends[:, :2]])

        d2f = second(f_after, float(f(x)), GEODESIC)
        return float(quad.weights @ d2f) / math.pi
    raise ConfigError(f"unknown path {path!r}")


def divergence_form_drift(metric: FinslerMetric2D, x: ChartPoint,
                          fiber_n: int = DEFAULT_FIBER_N) -> np.ndarray:
    """Drift implied by symmetry: Z_j = (1/rho) d_i (rho sigma_ij), the
    first-order part that (sigma, rho) fix for any operator symmetric in
    L^2(volume); the drift of :func:`_divergence_form`."""
    return _divergence_form(metric, x, fiber_n)[0].drift


def _divergence_form(metric: FinslerMetric2D, x: ChartPoint, fiber_n: int):
    """``(OperatorCoefficients at x, worst half-rule defect)`` from one
    :func:`finlap.measures._fiber_densities` call over x and its four
    neighbours ``finlap.differences.DRIFT`` away, of which K = rho sigma is
    differenced for the drift.  On the sphere chart x needs phi at least
    ``PHI_MIN + DRIFT`` from a pole, else :class:`DomainError`."""
    h = DRIFT
    if x.chart == SPHERE and not PHI_MIN <= x.u - h <= x.u + h <= math.pi - PHI_MIN:
        raise DomainError(f"the drift at ({x.u}, {x.v}) needs phi in "
                          f"[{PHI_MIN + h}, pi-{PHI_MIN + h}]")
    shifts = [(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]
    sigma, rho, defect = _fiber_densities(metric, [x] + [x.shifted(*s) for s in shifts], fiber_n)
    K = dict(zip(shifts, rho[1:, None, None] * sigma[1:]))
    drift = (central(lambda t: K[t, 0.0], h)[0] + central(lambda t: K[0.0, t], h)[1]) / rho[0]
    return OperatorCoefficients(sigma=sigma[0], drift=drift, vol_density=float(rho[0])), defect


def grid_coefficients(metric: FinslerMetric2D, n: int,
                      fiber_n: int = REEB_FIBER_N):
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
                            fiber_n: int = REEB_FIBER_N):
    """Second-order centered discretization of the operator on the torus.

    Returns ``(L, vol)`` with L sparse (n^2 x n^2) acting on row-major
    grid vectors, and vol the (n, n) volume densities.  Stencils:
    centered second differences for sigma_11/sigma_22, the 4-point cross
    for the mixed term, centered first differences for the drift.
    """
    sigma, drift, vol = grid_coefficients(metric, n, fiber_n)
    return _stencil_matrix(_coefficient_stencil(sigma, drift)), vol


def _at(a: np.ndarray, du: int, dv: int) -> np.ndarray:
    """a at the neighbour (i + du, j + dv) of every node (i, j) of the
    periodic grid."""
    return np.roll(a, (-du, -dv), axis=(0, 1))


@functools.lru_cache(maxsize=4)
def _stencil_pattern(n: int, offsets: tuple):
    """The CSR pattern of a periodic stencil with ``offsets`` on the n x n
    grid, which depends on nothing else: ``(indices, indptr, order, rows,
    perm)``.  ``indices`` lists the columns of each row sorted (int32, as
    scipy stores them).  Sorted by column, the centre node's offsets come
    in ``order``, and so do those of every row except ``rows``, near the
    edges, whose columns the periodic wrap reorders; ``perm[r]`` gives,
    for each sorted entry of ``rows[r]``, its position in ``order``.
    Computed once per ``(n, offsets)``, read-only: 0.66 MiB for the
    9-point stencil at n = 128."""
    k, size = len(offsets), n * n
    idx = np.arange(size).reshape(n, n)
    cols = np.stack([_at(idx, du, dv).ravel() for du, dv in offsets], axis=1)
    rank = np.argsort(cols, axis=1)
    order = rank[(n // 2) * (n + 1)]
    rows = np.flatnonzero((rank != order).any(axis=1))
    perm = np.argsort(order)[rank[rows]]
    indices = np.take_along_axis(cols, rank, axis=1).astype(np.int32).ravel()
    indptr = np.arange(0, size * k + 1, k, dtype=np.int32)
    for arr in (indices, indptr, rows, perm):
        arr.setflags(write=False)
    return indices, indptr, tuple(order.tolist()), rows, perm


def _stencil_matrix(stencil) -> sp.csr_matrix:
    """The sparse matrix of a periodic stencil on the n x n grid, acting on
    row-major grid vectors: ``stencil`` lists ``((du, dv), values)`` with
    values (n, n), the entry of row (i, j) in the column of its neighbour
    (i + du, j + dv).  Every row holds the same offsets, so the sorted
    column indices come from :func:`_stencil_pattern`, computed once per
    grid size; the values are stacked in the centre node's order and
    permuted in the few rows that the periodic wrap reorders.  The matrix
    gets its own copy of the index arrays."""
    n = stencil[0][1].shape[0]
    indices, indptr, order, rows, perm = _stencil_pattern(n, tuple(d for d, _ in stencil))
    data = np.stack([stencil[j][1].ravel() for j in order], axis=1)
    data[rows] = np.take_along_axis(data[rows], perm, axis=1)
    A = sp.csr_matrix((data.ravel(), indices.copy(), indptr.copy()), shape=(n * n, n * n))
    A.has_sorted_indices = True
    return A


def _stencil_defect(stencil) -> float:
    """:func:`_sym_defect` of the matrix of a periodic stencil, from its
    values: its entries (p, p + d) and (p + d, p) are ``A_d(p)`` and
    ``A_-d(p + d)``, so the defect is

        max_d |A_d - A_-d(. + d)| / max_d |A_d|

    (0 for a zero stencil), the same float as from the matrix.  The
    offsets must come in pairs d, -d; as |x - y| = |y - x| in floating
    point, each pair is read once."""
    vals = dict(stencil)
    num = np.max([np.abs(a - _at(vals[-du, -dv], du, dv)).max()
                  for (du, dv), a in stencil if (du, dv) >= (-du, -dv)])
    den = np.max([np.abs(a).max() for _, a in stencil])
    return float(num / den) if den > 0 else 0.0


def _coefficient_stencil(sigma: np.ndarray, drift: np.ndarray):
    """The stencil of the L of :func:`assemble_torus_operator` from grid
    coefficients, for :func:`_stencil_matrix`."""
    h = 1.0 / sigma.shape[0]
    s11 = sigma[..., 0, 0] / h**2
    s22 = sigma[..., 1, 1] / h**2
    s12 = sigma[..., 0, 1] / (2.0 * h**2)   # coefficient of the cross stencil
    du = drift[..., 0] / (2.0 * h)
    dv = drift[..., 1] / (2.0 * h)
    return [
        ((0, 0), -2.0 * (s11 + s22)),
        ((1, 0), s11 + du), ((-1, 0), s11 - du), ((0, 1), s22 + dv), ((0, -1), s22 - dv),
        # 2*sigma_12*f_uv with the centered 4-corner stencil
        ((1, 1), s12), ((-1, -1), s12), ((1, -1), -s12), ((-1, 1), -s12),
    ]


def symbol_density(metric: FinslerMetric2D, x: ChartPoint,
                   fiber_n: int = DEFAULT_FIBER_N):
    """Symbol and volume density ``(sigma, rho)`` at one base point of any
    chart, without the drift: the one-point case of the block kernel."""
    sigma, rho = symbol_densities(metric, (x,), fiber_n)
    return sigma[0], float(rho[0])


def symbol_densities(metric: FinslerMetric2D, points,
                     fiber_n: int = DEFAULT_FIBER_N):
    """``(sigma, rho)`` at a sequence of base points of any chart, shapes
    (P, 2, 2) and (P,), from the walk of :func:`finlap.measures._over_points`
    (one point per line of a coordinate the metric declares invariant): the
    moments of the fiber rule (:func:`finlap.measures._fiber_densities`),
    in which the horizontal Reeb component is the indicatrix point
    rays / F, so neither the Reeb field nor any base-point differencing is
    needed."""
    return _fiber_densities(metric, points, fiber_n)[:2]


def grid_symbol_density(metric: FinslerMetric2D, n: int,
                        fiber_n: int = DEFAULT_FIBER_N):
    """(sigma, rho) on the periodic n x n torus grid as read-only arrays of
    shapes (n, n, 2, 2) and (n, n): :func:`symbol_densities` over
    :func:`finlap.measures.torus_base`.  Raises :class:`NumericError`
    unless sigma is positive definite and rho positive everywhere.
    """
    if metric.chart != TORUS:
        raise ConfigError("grid assembly requires the torus chart")
    return _on_grid(n, *symbol_densities(metric, torus_base(n).points, fiber_n))


def _on_grid(n: int, sigma: np.ndarray, rho: np.ndarray):
    """``(sigma, rho)`` of the n^2 grid points as read-only (n, n, 2, 2)
    and (n, n) arrays, checked by :func:`_check_symbol`."""
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
    :func:`assemble_torus_operator`.  M = diag(rho h^2).  S is built by
    :func:`_stencil_matrix` on the grid's pattern, computed once per n.
    """
    return _pencil(_conservative_stencil(sigma, rho), rho)


def _conservative_stencil(sigma: np.ndarray, rho: np.ndarray):
    """The stencil of the S of :func:`conservative_pencil`."""
    # the entries of K = rho sigma that the stencil reads
    k11, k22, k12 = rho * sigma[..., 0, 0], rho * sigma[..., 1, 1], rho * sigma[..., 0, 1]
    e1 = 0.5 * (k11 + _at(k11, 1, 0))    # on the edge (i, j) -- (i+1, j)
    e2 = 0.5 * (k22 + _at(k22, 0, 1))    # on the edge (i, j) -- (i, j+1)
    e1m, e2m = _at(e1, -1, 0), _at(e2, 0, -1)
    return [
        ((0, 0), -(e1 + e1m + e2 + e2m)),
        ((1, 0), e1), ((-1, 0), e1m), ((0, 1), e2), ((0, -1), e2m),
        ((1, 1), 0.25 * (_at(k12, 1, 0) + _at(k12, 0, 1))),
        ((-1, -1), 0.25 * (_at(k12, -1, 0) + _at(k12, 0, -1))),
        ((1, -1), -0.25 * (_at(k12, 0, -1) + _at(k12, 1, 0))),
        ((-1, 1), -0.25 * (_at(k12, 0, 1) + _at(k12, -1, 0))),
    ]


def _pencil(stencil, rho: np.ndarray):
    """``(S, M)``: the matrices of a conservative stencil and of
    diag(rho h^2), the one-offset stencil."""
    n = rho.shape[0]
    return _stencil_matrix(stencil), _stencil_matrix([((0, 0), rho * (1.0 / n**2))])


def _sym_defect(a: np.ndarray) -> float:
    """max |a - a^T| / max |a| of a dense matrix (0 for a zero matrix);
    :func:`_stencil_defect` is the same for the matrix of a stencil."""
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
                               f=None, fiber_n: int = REEB_FIBER_N) -> SymmetryReport:
    """Check that the discrete operator is symmetric for the volume weight.

    Reports the relative asymmetry max |S - S^T| / max |S| of S = M L,
    with L the coefficient stencil and M = diag(vol * h^2) the mass on
    the periodic grid, from the stencil's values alone: each entry of S
    is the one product of L's entry and its row's mass that ``M @ L``
    forms, and :func:`_stencil_defect` reads the defect off those values
    without assembling L or S.  Also compares the
    coefficient path against (1/rho) div(rho sigma grad f) of a smooth
    test field f, discretized by :func:`conservative_pencil` as production
    spectra are; that defect decays at second order under refinement.
    """
    if f is None:
        f = SumField([
            SeparableTrigField(1.0, "cos", 1, "one", 0),
            SeparableTrigField(1.0, "one", 0, "sin", 1),
        ])
    # one coefficient evaluation serves the stencil and the divergence form
    sigma, drift, vol = grid_coefficients(metric, n, fiber_n)
    h = 1.0 / n
    mass = vol * h**2
    sym_defect = _stencil_defect([(d, mass * a) for d, a in _coefficient_stencil(sigma, drift)])

    # the divergence form is the conservative pencil's S f / (rho h^2)
    points = torus_base(n).points
    fx = field_values(f, points)
    div_form = (conservative_pencil(sigma, vol)[0] @ fx).reshape(n, n) / (vol * h**2)

    coeff = coefficient_form(sigma.reshape(-1, 2, 2), drift.reshape(-1, 2), f,
                             points).reshape(n, n)
    scale = np.abs(coeff).max()
    div_defect = float(np.abs(coeff - div_form).max() / scale)
    return SymmetryReport(symmetry_defect=sym_defect, divergence_defect=div_defect,
                          grid_n=n)

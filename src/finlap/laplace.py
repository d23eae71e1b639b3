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

Production path: :func:`symbol_density` computes (sigma, rho) from the
fiber quadrature and the indicatrix alone (V equals the indicatrix point
of its direction), and :func:`conservative_pencil` assembles the torus
pencil in divergence form; it is symmetric, negative semidefinite and
annihilates constants by construction.

Oracles: :func:`operator_coefficients` (symbol and drift from the Reeb
field), the coefficient stencil :func:`assemble_torus_operator`, the
geodesic route of :func:`laplacian_apply` and
:func:`weighted_symmetry_residual` are independent evaluations kept for
tests, ``finlap symbol`` and ``finlap verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .charts import ChartPoint, TORUS
from .errors import ConfigError, DegenerateContactError, NumericError
from .fields import field_gradient, field_hessian
from .hilbert import DENSITY_FLOOR, _rk4_step, reeb_profile
from .measures import DEFAULT_FIBER_N, chart_fiber_quadrature, fiber_quadrature
from .metrics import FinslerMetric2D, indicatrix_point

GEODESIC_STEP = 1e-3
_COEFF_CACHE_ATTR = "_finlap_coeff_cache"


@dataclass(frozen=True)
class OperatorCoefficients:
    """Pointwise data of the operator: symbol, drift, volume density."""

    sigma: np.ndarray       # 2x2 symmetric positive definite (co-metric)
    drift: np.ndarray       # first-order coefficients
    vol_density: float      # density of the canonical volume vs du^dv

    def __post_init__(self):
        s = 0.5 * (self.sigma + self.sigma.T)
        object.__setattr__(self, "sigma", s)
        ev = np.linalg.eigvalsh(s)
        if ev[0] <= 0.0:
            raise NumericError(f"symbol not positive definite: eigenvalues {ev}")
        if not self.vol_density > 0.0:
            raise NumericError("volume density must be positive")

    def apply(self, grad: np.ndarray, hess: np.ndarray) -> float:
        """sigma : Hess + Z . grad for given derivatives of f."""
        return float(np.sum(self.sigma * hess) + self.drift @ grad)


def operator_coefficients(metric: FinslerMetric2D, x: ChartPoint,
                          fiber_n: int = DEFAULT_FIBER_N,
                          h_x=None, h_phi=None) -> OperatorCoefficients:
    """Symbol, drift and volume density at a base point.

    sigma_ij  = (1/pi) Sum_k w_k V_i V_j
    drift_i   = (1/pi) Sum_k w_k (V_j dV_i/dx_j + Xphi dV_i/dphi)

    with V, Xphi the Reeb components at the fiber nodes and w the angle
    weights.  Spatial and fiber derivatives of V are central differences.
    Position-independent metrics are computed once and cached.
    """
    from .hilbert import _steps

    cache = getattr(metric, _COEFF_CACHE_ATTR, None)
    if metric.position_independent and cache is not None and cache[0] == fiber_n:
        return cache[1]

    h_phi, h_x = _steps(metric, h_phi, h_x)
    quad = chart_fiber_quadrature(metric, x, fiber_n)
    w = quad.weights
    V, Xphi, _ = reeb_profile(metric, x, quad.nodes, h_phi, h_x)

    sigma = np.einsum("k,ki,kj->ij", w, V, V) / math.pi

    Vpu, _, _ = reeb_profile(metric, x.shifted(h_x, 0.0), quad.nodes, h_phi, h_x)
    Vmu, _, _ = reeb_profile(metric, x.shifted(-h_x, 0.0), quad.nodes, h_phi, h_x)
    Vpv, _, _ = reeb_profile(metric, x.shifted(0.0, h_x), quad.nodes, h_phi, h_x)
    Vmv, _, _ = reeb_profile(metric, x.shifted(0.0, -h_x), quad.nodes, h_phi, h_x)
    dV_du = (Vpu - Vmu) / (2.0 * h_x)
    dV_dv = (Vpv - Vmv) / (2.0 * h_x)
    Vpp, _, _ = reeb_profile(metric, x, quad.nodes + h_phi, h_phi, h_x)
    Vmp, _, _ = reeb_profile(metric, x, quad.nodes - h_phi, h_phi, h_x)
    dV_dphi = (Vpp - Vmp) / (2.0 * h_phi)

    advect = V[:, 0, None] * dV_du + V[:, 1, None] * dV_dv + Xphi[:, None] * dV_dphi
    drift = w @ advect / math.pi

    coeffs = OperatorCoefficients(sigma=sigma, drift=drift, vol_density=quad.volume)
    if metric.position_independent:
        setattr(metric, _COEFF_CACHE_ATTR, (fiber_n, coeffs))
    return coeffs


def laplacian_apply(metric: FinslerMetric2D, f, x: ChartPoint,
                    path: str = "coefficient",
                    fiber_n: int = DEFAULT_FIBER_N,
                    h_geo: float = GEODESIC_STEP) -> float:
    """Apply the operator to a scalar field at a point.

    Two routes are exposed and agree to O(h_geo^2):

    * ``"coefficient"`` -- sigma : Hess f + Z . grad f with the field's
      derivatives (analytic when the field provides them);
    * ``"geodesic"`` -- fiber average of the centered second difference
      of f along the geodesic through x in each fiber direction; the
      backward branch is the flow for -h_geo.
    """
    if path == "coefficient":
        coeffs = operator_coefficients(metric, x, fiber_n)
        return coeffs.apply(field_gradient(f, x), field_hessian(f, x))
    if path == "geodesic":
        quad = fiber_quadrature(metric, x, fiber_n)
        f0 = float(f(x))
        acc = 0.0
        for phi, wk in zip(quad.nodes, quad.weights):
            state = np.array([x.u, x.v, phi])
            sp_ = _rk4_step(metric, metric.chart, state, h_geo)
            sm_ = _rk4_step(metric, metric.chart, state, -h_geo)
            fp = float(f(ChartPoint(metric.chart, sp_[0], sp_[1])))
            fm = float(f(ChartPoint(metric.chart, sm_[0], sm_[1])))
            acc += wk * (fp - 2.0 * f0 + fm) / h_geo**2
        return acc / math.pi
    raise ConfigError(f"unknown path {path!r}")


def divergence_form_drift(metric: FinslerMetric2D, x: ChartPoint,
                          fiber_n: int = DEFAULT_FIBER_N,
                          h: float = 1e-4) -> np.ndarray:
    """Drift implied by symmetry: Z_j = (1/rho) d_i (rho sigma_ij).

    The pair (symbol, volume density) determines the first-order part of
    any operator symmetric in L^2(volume); this is the independent check
    of the quadrature drift.  The sign of the gradient term is the one
    forced by symmetry.
    """
    def rho_sigma(pt):
        c = operator_coefficients(metric, pt, fiber_n)
        return c.vol_density * c.sigma

    c0 = operator_coefficients(metric, x, fiber_n)
    d_du = (rho_sigma(x.shifted(h, 0.0)) - rho_sigma(x.shifted(-h, 0.0))) / (2.0 * h)
    d_dv = (rho_sigma(x.shifted(0.0, h)) - rho_sigma(x.shifted(0.0, -h))) / (2.0 * h)
    return (d_du[0, :] + d_dv[1, :]) / c0.vol_density


def grid_coefficients(metric: FinslerMetric2D, n: int,
                      fiber_n: int = DEFAULT_FIBER_N):
    """Operator coefficients on the periodic n x n torus grid.

    Returns ``(sigma, drift, vol)`` with shapes (n, n, 2, 2), (n, n, 2)
    and (n, n).  Grid points are (i/n, j/n).
    """
    if metric.chart != TORUS:
        raise ConfigError("grid assembly requires the torus chart")
    if n < 4:
        raise ConfigError(f"grid too coarse: n = {n}")
    sigma = np.empty((n, n, 2, 2))
    drift = np.empty((n, n, 2))
    vol = np.empty((n, n))
    if metric.position_independent:
        c = operator_coefficients(metric, ChartPoint(TORUS, 0.0, 0.0), fiber_n)
        sigma[...] = c.sigma
        drift[...] = c.drift
        vol[...] = c.vol_density
        return sigma, drift, vol
    for i in range(n):
        for j in range(n):
            c = operator_coefficients(metric, ChartPoint(TORUS, i / n, j / n), fiber_n)
            sigma[i, j] = c.sigma
            drift[i, j] = c.drift
            vol[i, j] = c.vol_density
    return sigma, drift, vol


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


def _coefficient_stencil(sigma: np.ndarray, drift: np.ndarray):
    """The sparse L of :func:`assemble_torus_operator` from grid coefficients."""
    n = sigma.shape[0]
    h = 1.0 / n
    idx = np.arange(n * n).reshape(n, n)
    ip = np.roll(idx, -1, axis=0)
    im = np.roll(idx, 1, axis=0)
    jp = np.roll(idx, -1, axis=1)
    jm = np.roll(idx, 1, axis=1)

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(v.ravel())

    s11 = sigma[..., 0, 0] / h**2
    s22 = sigma[..., 1, 1] / h**2
    s12 = sigma[..., 0, 1] / (2.0 * h**2)   # coefficient of the cross stencil
    du = drift[..., 0] / (2.0 * h)
    dv = drift[..., 1] / (2.0 * h)

    add(idx, idx, -2.0 * (s11 + s22))
    add(idx, ip, s11 + du)
    add(idx, im, s11 - du)
    add(idx, jp, s22 + dv)
    add(idx, jm, s22 - dv)
    # 2*sigma_12*f_uv with the centered 4-corner stencil
    ipjp = np.roll(jp, -1, axis=0)
    ipjm = np.roll(jm, -1, axis=0)
    imjp = np.roll(jp, 1, axis=0)
    imjm = np.roll(jm, 1, axis=0)
    add(idx, ipjp, s12)
    add(idx, imjm, s12)
    add(idx, ipjm, -s12)
    add(idx, imjp, -s12)

    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    )


def symbol_density(metric: FinslerMetric2D, x: ChartPoint,
                   fiber_n: int = DEFAULT_FIBER_N):
    """Symbol and volume density at a torus-chart point, without the drift.

    Returns ``(sigma, rho)`` with sigma = (1/pi) Sum_k w_k V_k V_k^T over
    the fiber quadrature and rho its volume.  The horizontal Reeb
    component V is the indicatrix point of its direction, so neither the
    Reeb solve nor any base-point differencing is needed.
    """
    quad = fiber_quadrature(metric, x, fiber_n)
    # the weights are the contact density normalized to total 2*pi
    lam_min = quad.weights.min() * quad.volume * len(quad.nodes) / (2.0 * math.pi)
    if lam_min < DENSITY_FLOOR:
        raise DegenerateContactError(
            f"contact density below {DENSITY_FLOOR} at ({x.u}, {x.v})"
        )
    V = indicatrix_point(metric, x, quad.nodes)
    sigma = (V * quad.weights[:, None]).T @ V / math.pi
    return 0.5 * (sigma + sigma.T), quad.volume


def grid_symbol_density(metric: FinslerMetric2D, n: int,
                        fiber_n: int = DEFAULT_FIBER_N):
    """(sigma, rho) on the periodic n x n torus grid as read-only arrays of
    shapes (n, n, 2, 2) and (n, n); grid points are (i/n, j/n).

    Position-independent metrics are evaluated at one point.  Raises
    :class:`NumericError` unless sigma is positive definite and rho
    positive everywhere.
    """
    if metric.chart != TORUS:
        raise ConfigError("grid assembly requires the torus chart")
    if metric.position_independent:
        s, r = symbol_density(metric, ChartPoint(TORUS, 0.0, 0.0), fiber_n)
        sigma, rho = s[None, None], np.array([[r]])
    else:
        sigma = np.empty((n, n, 2, 2))
        rho = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                sigma[i, j], rho[i, j] = symbol_density(
                    metric, ChartPoint(TORUS, i / n, j / n), fiber_n)
    ev = np.linalg.eigvalsh(sigma)
    if not np.all(ev[..., 0] > 0.0):
        raise NumericError(f"symbol not positive definite: smallest eigenvalue "
                           f"{ev[..., 0].min()}")
    if not np.all(rho > 0.0):
        raise NumericError("volume density must be positive")
    return np.broadcast_to(sigma, (n, n, 2, 2)), np.broadcast_to(rho, (n, n))


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

    def at(a, du, dv):
        """a at the neighbour (i + du, j + dv) of every node (i, j)."""
        return np.roll(a, (-du, -dv), axis=(0, 1))

    e1 = 0.5 * (k11 + at(k11, 1, 0))    # on the edge (i, j) -- (i+1, j)
    e2 = 0.5 * (k22 + at(k22, 0, 1))    # on the edge (i, j) -- (i, j+1)
    e1m, e2m = at(e1, -1, 0), at(e2, 0, -1)
    stencil = [
        ((0, 0), -(e1 + e1m + e2 + e2m)),
        ((1, 0), e1), ((-1, 0), e1m), ((0, 1), e2), ((0, -1), e2m),
        ((1, 1), 0.25 * (at(k12, 1, 0) + at(k12, 0, 1))),
        ((-1, -1), 0.25 * (at(k12, -1, 0) + at(k12, 0, -1))),
        ((1, -1), -0.25 * (at(k12, 0, -1) + at(k12, 1, 0))),
        ((-1, 1), -0.25 * (at(k12, 0, 1) + at(k12, -1, 0))),
    ]
    # every row holds the same nine offsets
    idx = np.arange(n * n).reshape(n, n)
    cols = np.stack([at(idx, du, dv).ravel() for (du, dv), _ in stencil], axis=1)
    vals = np.stack([v.ravel() for _, v in stencil], axis=1)
    indptr = np.arange(0, vals.size + 1, len(stencil))
    S = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n * n, n * n))
    S.sort_indices()
    M = sp.diags(rho.ravel() * (1.0 / n**2)).tocsr()
    return S, M


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
    coefficient path against the conservative (divergence-form)
    discretization (1/rho) div(rho sigma grad f) applied to a smooth test
    field f; that defect decays at second order under refinement.
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
    diff = S - S.T
    sym_defect = float(np.abs(diff.data).max() / np.abs(S.data).max()) if diff.nnz else 0.0

    a = vol * sigma[..., 0, 0]
    b = vol * sigma[..., 0, 1]
    c22 = vol * sigma[..., 1, 1]
    fx = np.array([[float(f(ChartPoint(TORUS, i / n, j / n))) for j in range(n)]
                   for i in range(n)])

    def up(arr):
        return np.roll(arr, -1, axis=0)

    def dn(arr):
        return np.roll(arr, 1, axis=0)

    def rt(arr):
        return np.roll(arr, -1, axis=1)

    def lt(arr):
        return np.roll(arr, 1, axis=1)

    # compact conservative fluxes with midpoint coefficient averages
    flux_u = 0.5 * (a + up(a)) * (up(fx) - fx) / h
    flux_v = 0.5 * (c22 + rt(c22)) * (rt(fx) - fx) / h
    div = (flux_u - dn(flux_u)) / h + (flux_v - lt(flux_v)) / h
    # mixed terms d_u(b d_v f) + d_v(b d_u f)
    dv_half_u = (rt(fx) + rt(up(fx)) - lt(fx) - lt(up(fx))) / (4.0 * h)
    cross_u = 0.5 * (b + up(b)) * dv_half_u
    du_half_v = (up(fx) + up(rt(fx)) - dn(fx) - dn(rt(fx))) / (4.0 * h)
    cross_v = 0.5 * (b + rt(b)) * du_half_v
    div += (cross_u - dn(cross_u)) / h + (cross_v - lt(cross_v)) / h
    div_form = div / vol

    coeff = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            x = ChartPoint(TORUS, i / n, j / n)
            c = OperatorCoefficients(sigma=sigma[i, j], drift=drift[i, j],
                                     vol_density=vol[i, j])
            coeff[i, j] = c.apply(field_gradient(f, x), field_hessian(f, x))
    scale = np.abs(coeff).max()
    div_defect = float(np.abs(coeff - div_form).max() / scale)
    return SymmetryReport(symmetry_defect=sym_defect, divergence_defect=div_defect,
                          grid_n=n)

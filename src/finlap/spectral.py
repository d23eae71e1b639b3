"""Energy, Rayleigh quotients and generalized eigenproblems.

The energy Int rho grad u . sigma grad u and the volume norms are sums
over a base quadrature (:func:`finlap.measures.torus_base`,
:func:`finlap.measures.sphere_base`) of the pair ``(sigma, rho)`` or of
``rho`` alone, evaluated in blocks of base points by
:func:`finlap.laplace.symbol_densities` and
:func:`finlap.measures.volume_densities`.

Eigenvalues of the negative operator are computed from the symmetric
pencil (S, M): S the volume-weighted discrete operator form, M the
volume mass matrix.  Torus grids assemble S in divergence form from the
symbol and volume density alone (:func:`finlap.laplace.conservative_pencil`),
so it is symmetric with the constants in its kernel by construction;
sphere sectors use the Galerkin matrices.  ``solve_eigen(method="auto")``
picks the solver.  When ``(sigma, rho)`` is the same at every grid node,
every row of S is the same 9-point stencil, shifted: the pencil is
block-circulant, and the 2-D DFT of that stencil gives its eigenvalues
exactly.  Other pencils of dimension up to 200 go through one LAPACK
generalized symmetric solve (``scipy.linalg.eigh``), and larger ones
through shift-invert Lanczos (deterministic start vector).
:func:`jacobi_eigh` is an independent dense eigensolver kept as a test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .charts import SPHERE, TORUS
from .errors import ConfigError, DomainError, NumericError
from .fields import field_gradients, field_values
from .laplace import _sym_defect, conservative_pencil, grid_symbol_density, symbol_densities
from .measures import (DEFAULT_FIBER_N, BaseQuadrature, sphere_base, torus_base,
                       volume_densities)
from .metrics import FinslerMetric2D, KatokZillerMetric

MERGE_TOL = 1e-9
#: largest dimension that ``method="auto"`` solves densely (the name
#: predates the LAPACK dense solver; perfbench/tracer.py reads it)
JACOBI_MAX_DENSE = 200


@dataclass(frozen=True)
class TorusGridBasis:
    """Periodic n x n finite-difference grid (n >= 16)."""

    n: int
    fiber_n: int = DEFAULT_FIBER_N


@dataclass(frozen=True)
class SphereHarmonicBasis:
    """Spherical-harmonic sector of azimuthal order m, degrees |m| .. lmax."""

    lmax: int
    m: int
    nquad: Optional[int] = None


@dataclass
class SpectralProblem:
    """Assembled symmetric pencil for the generalized eigenproblem."""

    basis: Union[TorusGridBasis, SphereHarmonicBasis]
    stiffness: Union[np.ndarray, sp.spmatrix]
    mass: Union[np.ndarray, sp.spmatrix]
    metric_tag: str
    sym_defect: float
    #: ||S 1||_inf / max|S| for torus grid pencils (None for sphere sectors)
    zero_mode_residual: Optional[float] = None
    #: True for a torus grid pencil whose (sigma, rho) is equal at every
    #: node, so that S commutes with the grid translations
    translation_invariant: bool = False

    def __post_init__(self):
        if sp.issparse(self.mass):
            d = self.mass.diagonal()
            if self.mass.nnz != np.count_nonzero(d) or np.any(d <= 0.0):
                raise NumericError("sparse mass matrix must be positive diagonal")
        else:
            try:
                np.linalg.cholesky(self.mass)
            except np.linalg.LinAlgError as exc:
                raise NumericError("mass matrix not positive definite") from exc

    @property
    def dim(self) -> int:
        return self.stiffness.shape[0]


@dataclass
class SpectrumResult:
    """Sorted eigenvalues of the negative operator with multiplicities."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, values, meta=None, merge_tol: float = MERGE_TOL):
        values = np.sort(np.asarray(values, dtype=float))
        scale = max(1.0, float(np.abs(values).max(initial=0.0)))
        if values.size and values[0] < -1e-9 * scale:
            raise NumericError(f"negative eigenvalue {values[0]} in a nonnegative spectrum")
        reps: List[float] = []
        counts: List[int] = []
        for v in values:
            tol = merge_tol * max(1.0, abs(v))
            if reps and v - reps[-1] <= tol:
                counts[-1] += 1
                reps[-1] += (v - reps[-1]) / counts[-1]
            else:
                reps.append(float(v))
                counts.append(1)
        return cls(np.array(reps), np.array(counts, dtype=int), dict(meta or {}))

    def expand(self) -> np.ndarray:
        """Eigenvalues repeated according to multiplicity."""
        return np.repeat(self.eigenvalues, self.multiplicities)


def energy(metric: FinslerMetric2D, u, base: BaseQuadrature,
           fiber_n: int = DEFAULT_FIBER_N) -> float:
    """Dirichlet-type energy Int rho grad u . sigma grad u over the base.

    sigma is the fiber average (1/pi) Int V V^T dAngle, so this is
    (1/pi) Int (grad u . V)^2 over the fiber bundle, and it equals
    -<u, Lap u> against the canonical volume up to discretization (the
    Green identity).  ``(sigma, rho)`` come from
    :func:`finlap.laplace.symbol_densities` at the base points.
    """
    sigma, rho = symbol_densities(metric, base.points, fiber_n)
    du = field_gradients(u, base.points)
    return float((base.weights * rho) @ np.einsum("pi,pij,pj->p", du, sigma, du))


def omega_norm_sq(metric: FinslerMetric2D, u, base: BaseQuadrature,
                  fiber_n: int = DEFAULT_FIBER_N) -> float:
    """Integral of u^2 against the canonical volume."""
    w = base.weights * volume_densities(metric, base.points, fiber_n)
    vals = field_values(u, base.points)
    return float(w @ vals**2)


def omega_mean(metric: FinslerMetric2D, u, base: BaseQuadrature,
               fiber_n: int = DEFAULT_FIBER_N) -> float:
    """Volume-weighted mean of u (for projecting out constants)."""
    w = base.weights * volume_densities(metric, base.points, fiber_n)
    vals = field_values(u, base.points)
    return float(w @ vals / w.sum())


def rayleigh(metric: FinslerMetric2D, u, base: BaseQuadrature,
             fiber_n: int = DEFAULT_FIBER_N) -> float:
    """Rayleigh quotient: energy over the volume-weighted L^2 norm."""
    nsq = omega_norm_sq(metric, u, base, fiber_n)
    if nsq <= 1e-300:
        raise DomainError("Rayleigh quotient undefined: zero volume-weighted norm")
    return energy(metric, u, base, fiber_n) / nsq


def assemble_eigenproblem(metric: FinslerMetric2D, basis) -> SpectralProblem:
    """Assemble the symmetric pencil for a torus grid or a sphere sector.

    On the torus only the symbol and the volume density are computed at
    the grid points; the stiffness is the conservative divergence-form
    stencil, symmetric and annihilating constants as assembled.  Its
    asymmetry defect and zero-mode residual are recorded, and whether
    ``(sigma, rho)`` is exactly equal at every node.  Sphere sectors
    use the Galerkin matrices, whose quadrature roundoff asymmetry is
    recorded and averaged away.
    """
    if isinstance(basis, TorusGridBasis):
        if metric.chart != TORUS:
            raise ConfigError("torus grid basis needs a torus metric")
        if basis.n < 16:
            raise ConfigError(f"torus grid needs n >= 16, got {basis.n}")
        sigma, rho = grid_symbol_density(metric, basis.n, basis.fiber_n)
        S, M = conservative_pencil(sigma, rho)
        zero_mode = float(np.abs(S @ np.ones(S.shape[0])).max() / np.abs(S.data).max())
        uniform = bool(np.all(sigma == sigma[0, 0]) and np.all(rho == rho[0, 0]))
        return SpectralProblem(basis=basis, stiffness=S, mass=M,
                               metric_tag=f"{metric.kind} on torus",
                               sym_defect=_sym_defect(S), zero_mode_residual=zero_mode,
                               translation_invariant=uniform)
    if isinstance(basis, SphereHarmonicBasis):
        from .katok_ziller import galerkin_matrices

        if not isinstance(metric, KatokZillerMetric) or metric.chart != SPHERE:
            raise ConfigError("sphere harmonic basis requires a Katok-Ziller sphere metric")
        if basis.lmax < max(4, abs(basis.m)):
            raise ConfigError(f"lmax = {basis.lmax} too small")
        A, M = galerkin_matrices(metric.eps, basis.m, basis.lmax, basis.nquad)
        defect = _sym_defect(A)
        S = 0.5 * (A + A.T)
        return SpectralProblem(basis=basis, stiffness=S, mass=M,
                               metric_tag=f"katok-ziller sphere eps={metric.eps}",
                               sym_defect=defect)
    raise ConfigError(f"unknown basis spec {basis!r}")


def jacobi_eigh(B: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps rotate away off-diagonal entries until the off-diagonal
    Frobenius norm falls below ``tol`` times the matrix norm.  Returns
    ``(eigenvalues ascending, eigenvectors as columns)``.
    """
    B = np.array(B, dtype=float)
    n = B.shape[0]
    V = np.eye(n)
    scale = max(np.linalg.norm(B), 1e-300)
    for _ in range(max_sweeps):
        off = math.sqrt(max(np.sum(B**2) - np.sum(np.diag(B) ** 2), 0.0))
        if off <= tol * scale:
            break
        thresh = off / (n * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = B[p, q]
                if abs(apq) <= 0.1 * thresh:
                    continue
                tau = (B[q, q] - B[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp, rq = B[p, :].copy(), B[q, :].copy()
                B[p, :] = c * rp - s * rq
                B[q, :] = s * rp + c * rq
                cp, cq = B[:, p].copy(), B[:, q].copy()
                B[:, p] = c * cp - s * cq
                B[:, q] = s * cp + c * cq
                B[p, q] = B[q, p] = 0.0
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    w = np.diag(B).copy()
    order = np.argsort(w)
    return w[order], V[:, order]


def _circulant_eigenvalues(problem: SpectralProblem) -> np.ndarray:
    """Sorted eigenvalues of -S x = lambda M x for a translation-invariant
    n x n torus pencil: the 2-D DFT of the first row of S (the stencil at
    node (0, 0), laid out on the grid) over the constant diagonal of M.
    The stencil is symmetric under (du, dv) -> (-du, -dv), so the DFT is
    real up to roundoff."""
    n = problem.basis.n
    stencil = problem.stiffness.getrow(0).toarray().reshape(n, n)
    symbol = np.fft.fft2(stencil).real.ravel()
    return np.sort(-symbol / problem.mass.diagonal()[0])


def solve_eigen(problem: SpectralProblem, k: int,
                method: str = "auto") -> SpectrumResult:
    """Lowest k eigenvalues of the negative operator for the pencil.

    ``method="dense"`` solves the generalized symmetric problem with
    LAPACK (``scipy.linalg.eigh``; dimensions up to a few hundred);
    ``method="lanczos"`` uses shift-invert Lanczos with a fixed start
    vector, and the dense solve when k >= dim - 1, which ARPACK cannot
    do.  ``"auto"`` takes the eigenvalues of a translation-invariant torus
    pencil from the 2-D DFT of its stencil (``meta["solver"] ==
    "fourier"``, any k), and otherwise solves densely for dim <= 200 and
    by Lanczos above.  A solver that fails to converge or breaks down
    raises :class:`NumericError`.
    """
    if k < 1 or k > problem.dim:
        raise ConfigError(f"k = {k} outside 1..{problem.dim}")
    if method == "auto":
        if problem.translation_invariant:
            method = "fourier"
        else:
            method = "dense" if problem.dim <= JACOBI_MAX_DENSE else "lanczos"
    elif method not in ("dense", "lanczos"):
        raise ConfigError(f"unknown solver method {method!r}")
    S = problem.stiffness
    M = problem.mass
    meta = {
        "solver": method,
        "basis": type(problem.basis).__name__,
        "dim": problem.dim,
        "metric": problem.metric_tag,
        "sym_defect": problem.sym_defect,
    }
    if problem.zero_mode_residual is not None:
        meta["zero_mode_residual"] = problem.zero_mode_residual

    try:
        if method == "fourier":
            vals = _circulant_eigenvalues(problem)[:k]
        elif method == "dense" or k >= problem.dim - 1:
            Sd = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
            Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
            vals = sla.eigh(-Sd, Md, eigvals_only=True)[:k]
        else:
            Ss = sp.csr_matrix(S) if not sp.issparse(S) else S
            Ms = sp.csr_matrix(M) if not sp.issparse(M) else M
            v0 = np.full(problem.dim, 1.0 / math.sqrt(problem.dim))
            vals = np.sort(spla.eigsh(-Ss, k=k, M=Ms, sigma=-1.0, which="LM",
                                      v0=v0, return_eigenvectors=False))
    except spla.ArpackNoConvergence as exc:
        raise NumericError(f"Lanczos solve did not converge: {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{method} eigensolve failed: {exc}") from exc
    return SpectrumResult.from_values(vals, meta=meta)


def sphere_spectrum(eps: float, lmax: int, k: int,
                    nquad: Optional[int] = None,
                    method: str = "auto") -> SpectrumResult:
    """The lowest k of the (lmax + 1)^2 values of the union of the sector
    spectra over |m| <= lmax (each |m| > 0 twice); ConfigError unless
    lmax >= 4 and 1 <= k <= (lmax + 1)^2."""
    from .metrics import kz_sphere

    if lmax < 4 or not 1 <= k <= (lmax + 1) ** 2:
        raise ConfigError(f"need lmax >= 4 and 1 <= k <= (lmax + 1)^2, got lmax = {lmax}, k = {k}")
    metric = kz_sphere(eps)
    values: List[float] = []
    for m in range(0, lmax + 1):
        prob = assemble_eigenproblem(metric, SphereHarmonicBasis(lmax=lmax, m=m, nquad=nquad))
        res = solve_eigen(prob, k=prob.dim, method=method)
        vals = res.expand()
        values.extend(vals.tolist())
        if m > 0:
            values.extend(vals.tolist())
    values = np.sort(values)[:k]
    return SpectrumResult.from_values(values, meta={
        "solver": "galerkin-union", "lmax": lmax, "eps": eps,
    })

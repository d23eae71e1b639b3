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
sphere sectors assemble the same energy form as Gram matrices
(:func:`finlap.katok_ziller.galerkin_matrices`), which are too.
:func:`solve_eigen` picks the solver.  When ``(sigma, rho)`` is the same
at every grid node, every row of S is the same 9-point stencil, shifted,
so the stencil is computed at one node and repeated: the pencil is
block-circulant, and the 2-D DFT of that stencil gives its eigenvalues
exactly.  Other pencils of dimension up to 200, or with a dense mass, go
through one LAPACK generalized symmetric solve (``scipy.linalg.eigh``),
and larger ones, whose mass is diagonal, through shift-invert Lanczos on
the mass-scaled standard problem (deterministic start vector).
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
from .katok_ziller import _sector_floor, galerkin_matrices, torus_eigenvalue
from .laplace import (_conservative_stencil, _on_grid, _pencil, _stencil_defect, _sym_defect,
                      symbol_densities)
from .measures import (DEFAULT_FIBER_N, BaseQuadrature, _fiber_densities, sphere_base,
                       torus_base, volume_densities)
from .metrics import FinslerMetric2D, KatokZillerMetric, _check_counts, kz_sphere

#: relative gap below which two eigenvalues are merged into one with multiplicity
MERGE_TOL = 1e-9
#: largest dimension that :func:`solve_eigen` solves densely (the name
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
    #: worst half-rule defect of the fiber rule over a torus grid (None for
    #: sphere sectors and odd fiber counts; see :mod:`finlap.measures`)
    fiber_defect: Optional[float] = None

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
    def from_values(cls, values, meta=None):
        values = np.sort(np.asarray(values, dtype=float))
        scale = max(1.0, float(np.abs(values).max(initial=0.0)))
        if values.size and values[0] < -1e-9 * scale:
            raise NumericError(f"negative eigenvalue {values[0]} in a nonnegative spectrum")
        reps: List[float] = []
        counts: List[int] = []
        for v in values:
            tol = MERGE_TOL * max(1.0, abs(v))
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
    return _energy(*symbol_densities(metric, base.points, fiber_n), u, base)


def _energy(sigma: np.ndarray, rho: np.ndarray, u, base: BaseQuadrature) -> float:
    du = field_gradients(u, base.points)
    return float((base.weights * rho) @ np.einsum("pi,pij,pj->p", du, sigma, du))


def omega_norm_sq(metric: FinslerMetric2D, u, base: BaseQuadrature,
                  fiber_n: int = DEFAULT_FIBER_N) -> float:
    """Integral of u^2 against the canonical volume."""
    return _norm_sq(volume_densities(metric, base.points, fiber_n), u, base)


def _norm_sq(rho: np.ndarray, u, base: BaseQuadrature) -> float:
    return float((base.weights * rho) @ field_values(u, base.points) ** 2)


def omega_mean(metric: FinslerMetric2D, u, base: BaseQuadrature,
               fiber_n: int = DEFAULT_FIBER_N) -> float:
    """Volume-weighted mean of u (for projecting out constants)."""
    w = base.weights * volume_densities(metric, base.points, fiber_n)
    vals = field_values(u, base.points)
    return float(w @ vals / w.sum())


def rayleigh(metric: FinslerMetric2D, u, base: BaseQuadrature,
             fiber_n: int = DEFAULT_FIBER_N) -> float:
    """Rayleigh quotient: energy over the volume-weighted L^2 norm, both
    from one walk of the fiber rule over the base."""
    sigma, rho = symbol_densities(metric, base.points, fiber_n)
    nsq = _norm_sq(rho, u, base)
    if nsq <= 1e-300:
        raise DomainError("Rayleigh quotient undefined: zero volume-weighted norm")
    return _energy(sigma, rho, u, base) / nsq


def assemble_eigenproblem(metric: FinslerMetric2D, basis) -> SpectralProblem:
    """Assemble the symmetric pencil for a torus grid or a sphere sector.

    On the torus only the symbol and the volume density are computed at
    the grid points; the stiffness is the conservative divergence-form
    stencil of :func:`finlap.laplace.conservative_pencil`, symmetric and
    annihilating constants as assembled, built on the grid's sparsity
    pattern (computed once per grid size).  Its asymmetry defect, read
    off the stencil's values without transposing S, and its zero-mode
    residual are recorded, whether ``(sigma, rho)`` is exactly equal at
    every node (so by construction for a position-independent metric,
    whose values are computed at one point), and the worst half-rule
    defect of their fiber rule.  When it is equal, the stencil and its
    defect are computed at node (0, 0) alone, the same floats as at every
    node, and repeated over the grid; S is still assembled, as the DFT
    solve and the zero-mode residual read it.  Sphere sectors use the
    Galerkin matrices of the same energy form, Gram matrices that are
    symmetric as assembled; their defect is recorded too.
    """
    if isinstance(basis, TorusGridBasis):
        if metric.chart != TORUS:
            raise ConfigError("torus grid basis needs a torus metric")
        if basis.n < 16:
            raise ConfigError(f"torus grid needs n >= 16, got {basis.n}")
        sigma, rho, fiber_defect = _fiber_densities(metric, torus_base(basis.n).points,
                                                    basis.fiber_n)
        sigma, rho = _on_grid(basis.n, sigma, rho)
        # a position-independent metric's values are those of one point
        uniform = metric.position_independent or bool(
            np.all(sigma == sigma[0, 0]) and np.all(rho == rho[0, 0]))
        # a uniform grid has the stencil of node (0, 0) at every node
        k = 1 if uniform else basis.n
        stencil = _conservative_stencil(sigma[:k, :k], rho[:k, :k])
        defect = _stencil_defect(stencil)
        S, M = _pencil([(d, np.broadcast_to(a, rho.shape)) for d, a in stencil], rho)
        zero_mode = float(np.abs(S @ np.ones(S.shape[0])).max() / np.abs(S.data).max())
        return SpectralProblem(basis=basis, stiffness=S, mass=M,
                               metric_tag=f"{metric.kind} on torus",
                               sym_defect=defect, zero_mode_residual=zero_mode,
                               translation_invariant=uniform, fiber_defect=fiber_defect)
    if isinstance(basis, SphereHarmonicBasis):
        if not isinstance(metric, KatokZillerMetric) or metric.chart != SPHERE:
            raise ConfigError("sphere harmonic basis requires a Katok-Ziller sphere metric")
        if basis.lmax < max(4, abs(basis.m)):
            raise ConfigError(f"lmax = {basis.lmax} too small")
        S, M = galerkin_matrices(metric.eps, basis.m, basis.lmax)
        return SpectralProblem(basis=basis, stiffness=S, mass=M,
                               metric_tag=f"katok-ziller sphere eps={metric.eps}",
                               sym_defect=_sym_defect(S))
    raise ConfigError(f"unknown basis spec {basis!r}")


def jacobi_eigh(B: np.ndarray):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps rotate away off-diagonal entries until the off-diagonal
    Frobenius norm falls below 1e-12 times the matrix norm, at most 100
    sweeps.  Returns ``(eigenvalues ascending, eigenvectors as columns)``.
    """
    B = np.array(B, dtype=float)
    n = B.shape[0]
    V = np.eye(n)
    scale = max(np.linalg.norm(B), 1e-300)
    for _ in range(100):
        off = math.sqrt(max(np.sum(B**2) - np.sum(np.diag(B) ** 2), 0.0))
        if off <= 1e-12 * scale:
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


def solve_eigen(problem: SpectralProblem, k: int) -> SpectrumResult:
    """Lowest k eigenvalues of the negative operator for the pencil.

    A translation-invariant torus pencil's eigenvalues are the 2-D DFT of
    its stencil (``meta["solver"] == "fourier"``, any k).  Other pencils
    of dimension up to ``JACOBI_MAX_DENSE``, or with a dense mass, are
    solved as one generalized symmetric problem by LAPACK
    (``scipy.linalg.eigh``, ``"dense"``).  Larger ones, whose mass M is
    positive diagonal, are the standard problem C = D(-S)D, D = M^(-1/2),
    solved by shift-invert Lanczos at -1 from one sparse LU of C + I with
    a fixed start vector (``"lanczos"``; the dense solve when k >= dim - 1,
    which ARPACK cannot do).  A solver that fails to converge or breaks
    down raises :class:`NumericError`.  Torus grid pencils record
    ``fiber_n`` and ``fiber_defect``.
    """
    _check_counts(1, k=k)
    if k > problem.dim:
        raise ConfigError(f"k = {k} outside 1..{problem.dim}")
    S = problem.stiffness
    M = problem.mass
    if problem.translation_invariant:
        method = "fourier"
    else:
        method = "dense" if problem.dim <= JACOBI_MAX_DENSE or not sp.issparse(M) else "lanczos"
    meta = {
        "solver": method,
        "basis": type(problem.basis).__name__,
        "dim": problem.dim,
        "metric": problem.metric_tag,
        "sym_defect": problem.sym_defect,
    }
    if problem.zero_mode_residual is not None:
        meta["zero_mode_residual"] = problem.zero_mode_residual
    if isinstance(problem.basis, TorusGridBasis):
        meta.update(fiber_n=problem.basis.fiber_n, fiber_defect=problem.fiber_defect)

    try:
        if method == "fourier":
            vals = _circulant_eigenvalues(problem)[:k]
        elif method == "dense" or k >= problem.dim - 1:
            Sd = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
            Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
            vals = sla.eigh(-Sd, Md, eigvals_only=True)[:k]
        else:
            d = 1.0 / np.sqrt(M.diagonal())
            C = -sp.coo_matrix(S)
            C.data *= d[C.row] * d[C.col]     # C_ij = C_ji in floating point
            lu = spla.splu(sp.csc_matrix(C + sp.identity(problem.dim)), permc_spec="MMD_AT_PLUS_A")
            v0 = np.full(problem.dim, 1.0 / math.sqrt(problem.dim))
            vals = np.sort(spla.eigsh(C.tocsr(), k=k, sigma=-1.0, which="LM", v0=v0,
                                      OPinv=spla.LinearOperator(C.shape, lu.solve, dtype=float),
                                      return_eigenvectors=False))
    except spla.ArpackNoConvergence as exc:
        raise NumericError(f"Lanczos solve did not converge: {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{method} eigensolve failed: {exc}") from exc
    return SpectrumResult.from_values(vals, meta=meta)


def torus_spectrum(eps: float, pmax: int, qmax: int) -> SpectrumResult:
    """Sorted closed-form Katok-Ziller torus spectrum over |p| <= pmax,
    |q| <= qmax (:func:`finlap.katok_ziller.torus_eigenvalue`)."""
    _check_counts(0, pmax=pmax, qmax=qmax)
    values = [
        torus_eigenvalue(eps, p, q)
        for p in range(-pmax, pmax + 1)
        for q in range(-qmax, qmax + 1)
    ]
    return SpectrumResult.from_values(
        np.sort(values),
        meta={"solver": "closed-form", "eps": eps, "pmax": pmax, "qmax": qmax},
    )


def sphere_spectrum(eps: float, lmax: int, k: int) -> SpectrumResult:
    """The lowest k of the (lmax + 1)^2 values of the union of the sector
    spectra over |m| <= lmax (each |m| > 0 twice); ConfigError unless
    lmax >= 4 and 1 <= k <= (lmax + 1)^2, both integers.

    Sectors are solved in order m = 0, 1, ... and the walk stops before
    sector m once m^2 c_min > lambda_k (1 + MERGE_TOL), lambda_k the k-th
    smallest value found so far and c_min the least c_theta2 at the
    sector quadrature's nodes (:func:`finlap.katok_ziller._sector_floor`).
    This is safe: -S_m = B_phi B_phi^T + m^2 P diag(w rho c_theta2) P^T
    >= m^2 c_min P diag(w rho) P^T = m^2 c_min M_m, so every value of
    sector m, and of every later one, is at least m^2 c_min, above the
    k values already found; the margin makes a tie at rounding level be
    solved, never skipped.  The result is the exhaustive union's to the
    bit.  Each sector solved is assembled and checked as by
    :func:`assemble_eigenproblem` and :func:`solve_eigen`; ``meta``
    records their number in ``sectors``.
    """
    _check_counts(1, lmax=lmax, k=k)
    if lmax < 4 or not 1 <= k <= (lmax + 1) ** 2:
        raise ConfigError(f"need lmax >= 4 and 1 <= k <= (lmax + 1)^2, got lmax = {lmax}, k = {k}")
    metric = kz_sphere(eps)
    floor = _sector_floor(eps, lmax)
    values: List[float] = []
    sectors = 0
    for m in range(lmax + 1):
        if len(values) >= k:
            lambda_k = np.partition(values, k - 1)[k - 1]
            if m * m * floor > lambda_k * (1.0 + MERGE_TOL):
                break
        prob = assemble_eigenproblem(metric, SphereHarmonicBasis(lmax=lmax, m=m))
        values.extend(solve_eigen(prob, k=prob.dim).expand().tolist() * (1 if m == 0 else 2))
        sectors += 1
    return SpectrumResult.from_values(np.sort(values)[:k], meta={
        "solver": "galerkin-union", "lmax": lmax, "eps": eps, "sectors": sectors,
    })

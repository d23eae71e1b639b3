"""Katok-Ziller metrics and their explicit operators and spectra.

The construction deforms a Riemannian metric g along a Killing field V
through the dual Hamiltonian H_eps = H_0 + eps * H_1.  In coordinates

    F_eps(x, v) = [sqrt(g(v,v) (1 - eps^2 |V|^2) + eps^2 g(V,v)^2)
                   - eps g(V,v)] / (1 - eps^2 |V|^2).

On the flat torus (V = d/dx) the operator has constant coefficients and
an explicit Fourier spectrum; on the round sphere (V the rotation field,
|V|^2 = sin^2 phi) the operator acts on spherical harmonics through
coefficient functions of E(phi) = eps^2 sin^2 phi, and the first
nonzero eigenvalue of the negative operator is exactly 2 - 2 eps^2.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError
from .fields import ArrayField, _gradient, _hessian, coords
from .metrics import _check_eps


def torus_closed_form(eps: float, xi) -> float:
    """Specialized flat-torus formula, for cross-checking the general
    :class:`~finlap.metrics.KatokZillerMetric` of :func:`~finlap.metrics.kz_torus`."""
    xi = np.asarray(xi, dtype=float)
    return float(
        (math.sqrt(xi[0] ** 2 + (1.0 - eps**2) * xi[1] ** 2) - eps * xi[0])
        / (1.0 - eps**2)
    )


def sphere_closed_form(eps: float, phi: float, xi) -> float:
    """Specialized round-sphere formula with E(phi) = eps^2 sin^2 phi."""
    xi = np.asarray(xi, dtype=float)
    s2 = math.sin(phi) ** 2
    E = eps**2 * s2
    return float(
        (math.sqrt((1.0 - E) * xi[0] ** 2 + s2 * xi[1] ** 2) - eps * s2 * xi[1])
        / (1.0 - E)
    )


def torus_operator(eps: float) -> Tuple[float, float]:
    """Constant coefficients (a, b) of the flat-torus operator
    a d^2/dx^2 + b d^2/dy^2."""
    _check_eps(eps)
    s = math.sqrt(1.0 - eps**2)
    a = 2.0 * (1.0 - eps**2) ** 1.5 / (1.0 + s)
    b = 2.0 * (1.0 - eps**2) / (1.0 + s)
    return a, b


def torus_eigenvalue(eps: float, p: int, q: int) -> float:
    """Closed-form eigenvalue of the negative operator for mode (p, q)."""
    a, b = torus_operator(eps)
    return 4.0 * math.pi**2 * (a * p**2 + b * q**2)


def torus_spectrum(eps: float, pmax: int, qmax: int) -> "SpectrumResult":
    """Sorted closed-form spectrum over |p| <= pmax, |q| <= qmax."""
    from .spectral import SpectrumResult  # deferred: spectral assembles from here

    if pmax < 0 or qmax < 0:
        raise ConfigError("pmax and qmax must be nonnegative")
    values = [
        torus_eigenvalue(eps, p, q)
        for p in range(-pmax, pmax + 1)
        for q in range(-qmax, qmax + 1)
    ]
    return SpectrumResult.from_values(
        np.sort(values),
        meta={"solver": "closed-form", "eps": eps, "pmax": pmax, "qmax": qmax},
    )


@dataclass(frozen=True)
class SphereOperator:
    """Coefficient functions of the sphere operator.

    c_theta2 multiplies d^2/dtheta^2, c_phi2 multiplies d^2/dphi^2 and
    c_phi multiplies d/dphi; all are functions of phi with
    E(phi) = eps^2 sin^2 phi.  At eps = 0 they reduce to the round
    Laplace-Beltrami coefficients (1/sin^2, 1, cot).  eps must be in
    [0, 1).
    """

    eps: float

    def __post_init__(self):
        _check_eps(self.eps)

    def _e(self, phi):
        return self.eps**2 * np.sin(np.asarray(phi, dtype=float)) ** 2

    def c_theta2(self, phi):
        E = self._e(phi)
        return 2.0 * (1.0 - E) ** 1.5 / ((1.0 + np.sqrt(1.0 - E)) * np.sin(phi) ** 2)

    def c_phi2(self, phi):
        E = self._e(phi)
        return 2.0 * (1.0 - E) / (1.0 + np.sqrt(1.0 - E))

    def c_phi(self, phi):
        E = self._e(phi)
        s = np.sqrt(1.0 - E)
        return 2.0 * (E + s) / (1.0 + s) * np.cos(phi) / np.sin(phi)

    def apply_harmonic(self, l: int, m: int, c: np.ndarray,
                       P: np.ndarray, dP_dphi: np.ndarray) -> np.ndarray:
        """Pointwise action on Y = P(cos phi) e^{i m theta}, phi part only.

        P'' is eliminated through the Legendre equation
        P'' = -cot(phi) P' - (l(l+1) - m^2/sin^2) P, so no numerical
        differentiation enters.
        """
        s2 = 1.0 - c * c
        E = self.eps**2 * s2
        sq = np.sqrt(1.0 - E)
        pref = 2.0 / (1.0 + sq)
        ctt = pref * (1.0 - E) ** 1.5 / s2
        cpp = pref * (1.0 - E)
        cp = pref * (E + sq) * c / np.sqrt(s2)
        zeroth = -m * m * ctt + cpp * (m * m / s2 - l * (l + 1))
        first = cp - cpp * c / np.sqrt(s2)
        return zeroth * P + first * dP_dphi


def sphere_operator(eps: float) -> SphereOperator:
    return SphereOperator(eps)


def _seed_norm(m: int) -> float:
    # normalized P_m^m: sqrt((2m+1)/2 * prod (2k-1)/(2k))
    acc = (2 * m + 1) / 2.0
    for k in range(1, m + 1):
        acc *= (2 * k - 1) / (2 * k)
    return math.sqrt(acc)


def legendre_block(m: int, lmax: int, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized associated Legendre functions and phi-derivatives.

    Returns ``(P, dP)`` of shape ``(lmax - m + 1, len(c))`` where row
    ``l - m`` holds P~_l^m(c) normalized to Int_-1^1 P~^2 dc = 1, and dP
    holds d/dphi P~_l^m(cos phi).  Upward three-term recurrence in l at
    fixed m (stable); Condon-Shortley phase.
    """
    if m < 0 or lmax < m:
        raise ConfigError(f"need 0 <= m <= lmax, got m={m}, lmax={lmax}")
    c = np.asarray(c, dtype=float)
    s = np.sqrt(1.0 - c * c)
    n = lmax - m + 1
    P = np.zeros((n, len(c)))
    P[0] = (-1.0) ** m * _seed_norm(m) * s**m

    def a(l):
        return math.sqrt((l - m) * (l + m) / ((2.0 * l - 1.0) * (2.0 * l + 1.0)))

    if n > 1:
        P[1] = c * P[0] / a(m + 1)
    for i in range(2, n):
        l = m + i
        P[i] = (c * P[i - 1] - a(l - 1) * P[i - 2]) / a(l)

    dP = np.zeros_like(P)
    for i in range(n):
        l = m + i
        if i == 0:
            # sin(phi) dP/dphi = l c P_l (no lower neighbor at l = m)
            dP[i] = l * c * P[i] / s if l > 0 else 0.0
        else:
            beta = (2.0 * l + 1.0) * a(l)
            dP[i] = (l * c * P[i] - beta * P[i - 1]) / s
    return P, dP


def _quad_order(lmax: int, nquad: Optional[int]) -> int:
    required = 2 * lmax + 8
    if nquad is None:
        return max(required + 16, 80)
    if nquad < required:
        warnings.warn(
            f"quadrature order {nquad} below 2*lmax+8 = {required}; "
            "Galerkin entries may lose accuracy",
            stacklevel=3,
        )
    return nquad


@functools.lru_cache(maxsize=32)
def _gauss_legendre(nq: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order nq, computed once per
    order and returned read-only."""
    c, w = leggauss(nq)
    c.flags.writeable = False
    w.flags.writeable = False
    return c, w


def galerkin_matrices(eps: float, m: int, lmax: int,
                      nquad: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Stiffness and mass for the harmonic sector e^{i m theta}.

    Basis: normalized spherical-harmonic profiles l = |m| .. lmax.  The
    inner product is weighted by the canonical volume density
    (1 - E)^{-3/2} sin(phi); Gauss-Legendre quadrature in cos(phi), all
    nodes interior.  Returns ``(A, M)`` with
    A_kl = <Y_k, Lap Y_l>, M_kl = <Y_k, Y_l>.
    """
    m = abs(m)
    if lmax < m:
        raise ConfigError(f"lmax = {lmax} below |m| = {m}")
    nq = _quad_order(lmax, nquad)
    c, w = _gauss_legendre(nq)
    P, dP = legendre_block(m, lmax, c)
    op = SphereOperator(eps)
    rho = (1.0 - eps**2 * (1.0 - c * c)) ** (-1.5)
    n = lmax - m + 1
    G = np.empty_like(P)
    for i in range(n):
        G[i] = op.apply_harmonic(m + i, m, c, P[i], dP[i])
    wr = w * rho
    A = (P * wr) @ G.T
    M = (P * wr) @ P.T
    M = 0.5 * (M + M.T)
    return A, M


def harmonic_action(eps: float, l: int, m: int, lmax: int,
                    nquad: Optional[int] = None) -> np.ndarray:
    """Expansion of Lap Y_l^m over the basis {Y_k^m, k = |m| .. lmax}.

    The action preserves the azimuthal order m; the returned vector c
    satisfies Lap Y_l^m = Sum_k c_k Y_k^m up to truncation.  At eps = 0
    this is -l(l+1) e_l exactly.
    """
    m = abs(m)
    if not m <= l <= lmax:
        raise ConfigError(f"need |m| <= l <= lmax, got l={l}, m={m}, lmax={lmax}")
    A, M = galerkin_matrices(eps, m, lmax, nquad)
    return np.linalg.solve(M, A[:, l - m])


def perturbation_eigenvalue(l: int, m: int, eps: float) -> float:
    """Second-order eigenvalue of the sphere operator near -l(l+1).

    lambda(l, m; eps) = -l(l+1) + eps^2 * [ m^2 (7l^2+7l+6) / (2 D)
                        + (3/2) l(l-1)(l+1)(l+2) / D ],  D = (2l+3)(2l-1),

    with remainder O(eps^4).  Exact for l <= 1 (Y_1^{+-1} and Y_1^0 are
    eigenfunctions for every eps).  Derived from the exact operator by
    first-order perturbation of the volume-weighted Rayleigh quotient;
    validated against the Galerkin eigenvalues (the remainder scales as
    eps^4).
    """
    m = abs(m)
    if m > l:
        raise ConfigError(f"need |m| <= l, got l={l}, m={m}")
    D = (2.0 * l + 3.0) * (2.0 * l - 1.0)
    coef = m * m * (7.0 * l * l + 7.0 * l + 6.0) / (2.0 * D) \
        + 1.5 * l * (l - 1.0) * (l + 1.0) * (l + 2.0) / D
    return -l * (l + 1.0) + eps**2 * coef


class SphereHarmonicField(ArrayField):
    """Real spherical harmonic on the sphere chart, with analytic derivatives.

    value = P~_l^m(cos phi) * cos(m theta) (or sin); normalized so the
    round L^2 norm is 1.  Second phi-derivatives use the Legendre
    equation, so all derivatives are exact.  Has the array form of
    :mod:`finlap.fields`: one point or a block of points.
    """

    def __init__(self, l: int, m: int, kind: str = "cos"):
        if m < 0 or m > l:
            raise ConfigError(f"need 0 <= m <= l, got l={l}, m={m}")
        if kind not in ("cos", "sin"):
            raise ConfigError("kind must be 'cos' or 'sin'")
        if kind == "sin" and m == 0:
            raise ConfigError("sin-type harmonic needs m >= 1")
        self.l, self.m, self.kind = l, m, kind
        self._az_norm = 1.0 / math.sqrt(2.0 * math.pi) if m == 0 else 1.0 / math.sqrt(math.pi)

    def _parts(self, x):
        phi, theta = coords(x)
        P, dP = legendre_block(self.m, self.l, np.atleast_1d(np.cos(phi)))
        t = self.m * theta
        trig = np.cos(t) if self.kind == "cos" else np.sin(t)
        dtrig = -self.m * np.sin(t) if self.kind == "cos" else self.m * np.cos(t)
        ddtrig = -self.m**2 * trig
        shape = np.shape(phi)
        return phi, P[-1].reshape(shape), dP[-1].reshape(shape), trig, dtrig, ddtrig

    def values(self, x) -> np.ndarray:
        _, P, _, trig, _, _ = self._parts(x)
        return self._az_norm * P * trig

    def gradients(self, x) -> np.ndarray:
        _, P, dP, trig, dtrig, _ = self._parts(x)
        return self._az_norm * _gradient(dP * trig, P * dtrig)

    def hessians(self, x) -> np.ndarray:
        phi, P, dP, trig, dtrig, ddtrig = self._parts(x)
        cot = np.cos(phi) / np.sin(phi)
        lam = self.l * (self.l + 1.0) - self.m**2 / np.sin(phi) ** 2
        ddP = -cot * dP - lam * P
        return self._az_norm * _hessian(ddP * trig, dP * dtrig, P * ddtrig)

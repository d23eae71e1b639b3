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
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, DomainError
from .fields import ArrayField, _gradient, _hessian, coords
from .measures import _gauss_legendre
from .metrics import _check_counts, _check_eps


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

    def _profiles(self, c, s2):
        """(c_theta2, c_phi2, c_phi) at c = cos phi, s2 = sin^2 phi."""
        E = self.eps**2 * s2
        sq = np.sqrt(1.0 - E)
        pref = 2.0 / (1.0 + sq)
        return pref * (1.0 - E) ** 1.5 / s2, pref * (1.0 - E), pref * (E + sq) * c / np.sqrt(s2)

    def c_theta2(self, phi):
        return self._profiles(np.cos(phi), np.sin(phi) ** 2)[0]

    def c_phi2(self, phi):
        return self._profiles(np.cos(phi), np.sin(phi) ** 2)[1]

    def c_phi(self, phi):
        return self._profiles(np.cos(phi), np.sin(phi) ** 2)[2]

    def apply_harmonic(self, l, m: int, c: np.ndarray,
                       P: np.ndarray, dP_dphi: np.ndarray) -> np.ndarray:
        """Pointwise action on Y = P(cos phi) e^{i m theta}, phi part only.

        The strong form, drift c_phi included, kept as the oracle of the
        energy-form Galerkin matrices (:func:`galerkin_matrices`).  P'' is
        eliminated through the Legendre equation
        P'' = -cot(phi) P' - (l(l+1) - m^2/sin^2) P, so no numerical
        differentiation enters.
        """
        s2 = 1.0 - c * c
        ctt, cpp, cp = self._profiles(c, s2)
        zeroth = -m * m * ctt + cpp * (m * m / s2 - l * (l + 1))
        first = cp - cpp * c / np.sqrt(s2)
        return zeroth * P + first * dP_dphi


def _seed_norm(m: int) -> float:
    # normalized P_m^m: sqrt((2m+1)/2 * prod (2k-1)/(2k))
    acc = (2 * m + 1) / 2.0
    for k in range(1, m + 1):
        acc *= (2 * k - 1) / (2 * k)
    return math.sqrt(acc)


def _recurrence_coefficient(l, m):
    """a_l^m = sqrt((l - m)(l + m) / ((2l - 1)(2l + 1))), elementwise over
    integer arrays: c P_{l-1} = a_l P_l + a_{l-1} P_{l-2} at fixed m."""
    return np.sqrt((l - m) * (l + m) / ((2.0 * l - 1.0) * (2.0 * l + 1.0)))


def _legendre_rows(ms: np.ndarray, lmax: int, c: np.ndarray) -> np.ndarray:
    """Normalized P~_l^m(c) for every order m of the ascending integer
    array ``ms`` and l = m .. lmax, stacked order by order: the rows of
    order ms[k] start at sum_{j<k} (lmax - ms[j] + 1).

    One upward three-term recurrence in i = l - m (stable), run over all
    orders at once: step i updates the orders with m <= lmax - i, so the
    whole triangle takes lmax - ms[0] + 1 array steps.  Condon-Shortley
    phase.
    """
    counts = lmax - ms + 1
    starts = np.cumsum(counts) - counts
    steps = np.arange(counts[0])
    # a[k, i] = a_{m+i}^m for m = ms[k]; active[i] orders still run at step i
    a = _recurrence_coefficient(ms[:, None] + steps, ms[:, None])
    active = np.searchsorted(ms, lmax - steps, side="right")
    s = np.sqrt(1.0 - c * c)
    P = np.empty((int(counts.sum()), len(c)))
    cur = np.array([(-1.0) ** m * _seed_norm(m) * s**m for m in ms.tolist()])
    prev = np.zeros_like(cur)
    P[starts] = cur
    for i in range(1, len(steps)):
        k = active[i]
        cur, prev = (c * cur[:k] - a[:k, i - 1, None] * prev[:k]) / a[:k, i, None], cur[:k]
        P[starts[:k] + i] = cur
    return P


def _legendre_dphi(m: int, P: np.ndarray, c: np.ndarray) -> np.ndarray:
    """d/dphi of the rows P~_l^m(cos phi), l = m .. m + len(P) - 1, all
    at once: sin(phi) dP_l/dphi = l c P_l - (2l + 1) a_l^m P_{l-1}, with
    no lower neighbor at l = m."""
    s = np.sqrt(1.0 - c * c)
    l = np.arange(m, m + len(P))[:, None]
    lower = np.zeros_like(P)
    lower[1:] = (2.0 * l[1:] + 1.0) * _recurrence_coefficient(l[1:], m) * P[:-1]
    return (l * c * P - lower) / s


def legendre_block(m: int, lmax: int, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized associated Legendre functions and phi-derivatives.

    Returns ``(P, dP)`` of shape ``(lmax - m + 1, len(c))`` where row
    ``l - m`` holds P~_l^m(c) normalized to Int_-1^1 P~^2 dc = 1, and dP
    holds d/dphi P~_l^m(cos phi).  The one-order case of the recurrence
    that builds every sector's table at once (:func:`_legendre_rows`);
    Condon-Shortley phase.  ``c`` must be finite and in (-1, 1)
    (DomainError).
    """
    _check_counts(0, m=m, lmax=lmax)
    if lmax < m:
        raise ConfigError(f"need 0 <= m <= lmax, got m={m}, lmax={lmax}")
    c = np.asarray(c, dtype=float)
    if not np.all(np.abs(c) < 1.0):
        raise DomainError("Legendre arguments must be finite and in (-1, 1)")
    P = _legendre_rows(np.array([m]), lmax, c)
    return P, _legendre_dphi(m, P, c)


def _quad_order(lmax: int) -> int:
    """Gauss-Legendre order of the sector matrices up to degree lmax."""
    return max(2 * lmax + 24, 80)


@functools.lru_cache(maxsize=8)
def _legendre_table(lmax: int, nq: int) -> np.ndarray:
    """P~_l^m at the order-nq Gauss-Legendre nodes for every 0 <= m <= l
    <= lmax, stacked order by order as in :func:`_legendre_rows` (the
    triangle only: order m starts at row m (lmax + 1) - m (m - 1) / 2);
    computed once per (lmax, nq) and returned read-only.  It depends on
    neither eps nor the metric."""
    table = _legendre_rows(np.arange(lmax + 1), lmax, _gauss_legendre(nq)[0])
    table.flags.writeable = False
    return table


def galerkin_matrices(eps: float, m: int, lmax: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stiffness and mass for the harmonic sector e^{i m theta}.

    Basis: normalized spherical-harmonic profiles l = |m| .. lmax.  The
    inner product is weighted by the canonical volume density
    rho = (1 - E)^{-3/2} sin(phi); Gauss-Legendre quadrature in cos(phi),
    all nodes interior.  The profiles are the sector's rows of the
    Legendre table shared by every sector and every eps
    (:func:`_legendre_table`).  Returns ``(S, M)``: S_kl = -Int rho
    (c_phi2 dY_k dY_l + m^2 c_theta2 Y_k Y_l), the negative energy form,
    and M_kl = <Y_k, Y_l>, both Gram matrices of the quadrature rows, so
    they are symmetric to the bit, -S is positive semidefinite and at
    m = 0 the row and column of Y_0 are exactly zero.  Non-integer counts
    are a ConfigError.
    """
    _check_counts(0, lmax=lmax)
    _check_counts(-lmax, m=m)
    m = abs(m)
    if lmax < m:
        raise ConfigError(f"lmax = {lmax} below |m| = {m}")
    nq = _quad_order(lmax)
    c, w = _gauss_legendre(nq)
    start = m * (lmax + 1) - m * (m - 1) // 2
    P = _legendre_table(lmax, nq)[start:start + lmax - m + 1]
    s2 = 1.0 - c * c
    c_theta2, c_phi2 = SphereOperator(eps)._profiles(c, s2)[:2]
    wr = w * (1.0 - eps**2 * s2) ** (-1.5)
    B_phi = _legendre_dphi(m, P, c) * np.sqrt(wr * c_phi2)
    B_theta = m * P * np.sqrt(wr * c_theta2)
    B = P * np.sqrt(wr)
    return -(B_phi @ B_phi.T + B_theta @ B_theta.T), B @ B.T


def harmonic_action(eps: float, l: int, m: int, lmax: int) -> np.ndarray:
    """Expansion of Lap Y_l^m over the basis {Y_k^m, k = |m| .. lmax}.

    The action preserves the azimuthal order m; the returned vector c
    satisfies Lap Y_l^m = Sum_k c_k Y_k^m up to truncation.  At eps = 0
    this is -l(l+1) e_l exactly.
    """
    _check_counts(0, l=l)
    _check_counts(-l, m=m)
    m = abs(m)
    if not m <= l <= lmax:
        raise ConfigError(f"need |m| <= l <= lmax, got l={l}, m={m}, lmax={lmax}")
    S, M = galerkin_matrices(eps, m, lmax)
    return np.linalg.solve(M, S[:, l - m])


def perturbation_eigenvalue(l: int, m: int, eps: float) -> float:
    """Second-order eigenvalue of the sphere operator near -l(l+1).

    lambda(l, m; eps) = -l(l+1) + eps^2 * [ m^2 (7l^2+7l+6) / (2 D)
                        + (3/2) l(l-1)(l+1)(l+2) / D ],  D = (2l+3)(2l-1),

    with remainder O(eps^4).  Exact for l <= 1 (Y_1^{+-1} and Y_1^0 are
    eigenfunctions for every eps).  Derived from the exact operator by
    first-order perturbation of the volume-weighted Rayleigh quotient;
    validated against the Galerkin eigenvalues (the remainder scales as
    eps^4).  eps must be in [0, 1).
    """
    _check_eps(eps)
    _check_counts(0, l=l)
    _check_counts(-l, m=m)
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
        _check_counts(0, l=l, m=m)
        if m > l:
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

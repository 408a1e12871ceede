"""Complete elliptic integrals and Jacobi elliptic functions.

One descending Landen sequence (DLMF 22.20(ii)) gives K = pi/(2 a_n), the
deficit 1 - E/K of the cosine series of sn**2, and sn, cn, dn at real
arguments; purely imaginary arguments go through the Jacobi imaginary
transformation, DLMF 22.6(iv), so every returned quantity is real.  The
Taylor series of tau**2 ns(tau, k')**2 comes from the Laurent recurrence of
the Weierstrass function, ns**2 = P - e3 (DLMF 23.6(ii), 23.9.6-23.9.7).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleError

_EPS = float(np.finfo(float).eps)
POLE_GUARD = 1e-10  # arguments closer than this to a pole raise PoleError
MIN_MODULUS = 1e-150  # a smaller k is refused: a = 1/k^2 would pass 1e300, near overflow
_MAX_AGM = 32


def _landen(k: float, kc: float) -> tuple[list[float], list[float]]:
    """Descending Landen sequence of modulus k with complement kc: a_0 = 1,
    b_0 = kc, c_0 = k, then a_(j+1) = (a_j + b_j)/2, b_(j+1) = sqrt(a_j b_j),
    c_(j+1) = (a_j - b_j)/2 until c_n <= eps a_n.  Returns (a, c)."""
    a, b, c = [1.0], kc, [k]
    while abs(c[-1]) > _EPS * a[-1] and len(a) < _MAX_AGM:
        c.append(0.5 * (a[-1] - b))
        a.append(0.5 * (a[-1] + b))
        b = math.sqrt(a[-2] * b)
    return a, c


def complete_k(k: float) -> float:
    """Complete elliptic integral of the first kind K(k), modulus convention."""
    if not 0.0 <= k < 1.0:
        raise DomainError(f"complete_k requires 0 <= k < 1, got {k!r}")
    return math.pi / (2.0 * _landen(k, math.sqrt((1.0 - k) * (1.0 + k)))[0][-1])


class Modulus(NamedTuple("Modulus", [("k", float), ("k_prime", float), ("quarter_K", float),
                                     ("quarter_Kp", float)])):
    """Elliptic modulus k with the derived quantities k', K(k), K(k')."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    def __new__(cls, k: float, k_prime: float, quarter_K: float, quarter_Kp: float):
        if not 0.0 < k < 1.0:
            raise DomainError(f"modulus must satisfy 0 < k < 1, got {k!r}")
        if k < MIN_MODULUS:
            raise DomainError(f"modulus k = {k!r} is below {MIN_MODULUS!r}: a = 1/k^2 > 1e300")
        if abs(k * k + k_prime * k_prime - 1.0) > 1e-14:
            raise DomainError("k and k_prime are inconsistent")
        if not (quarter_K > 0.0 and quarter_Kp > 0.0):
            raise DomainError("quarter periods must be positive")
        return super().__new__(cls, k, k_prime, quarter_K, quarter_Kp)

    @classmethod
    def from_k(cls, k: float) -> "Modulus":
        if not 0.0 < k < 1.0:
            raise DomainError(f"modulus must satisfy 0 < k < 1, got {k!r}")
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        # K' from the sequence of (k', k); complete_k(k') loses the digits of 1 - k' at small k
        return cls(k=k, k_prime=kp, quarter_K=complete_k(k),
                   quarter_Kp=math.pi / (2.0 * _landen(kp, k)[0][-1]))

    @property
    def a(self) -> float:
        """Algebraic coordinate parameter a = 1/k**2."""
        return 1.0 / (self.k * self.k)

    @property
    def b_ring(self) -> float:
        """Inner radius b = (1-k)/k' of the focal annulus."""
        return (1.0 - self.k) / self.k_prime


class JacobiTriple(NamedTuple):
    """Values (sn, cn, dn) at a common real argument and modulus."""

    sn: float
    cn: float
    dn: float


class JacobiImag(NamedTuple):
    """Real representatives on the imaginary axis.

    For u = i*t: sn(it,k) = i*sn_im, cn(it,k) = cn, dn(it,k) = dn, with
    sn_im = sc(t,k'), cn = nc(t,k'), dn = dc(t,k').  The Pythagorean
    identities become cn**2 - sn_im**2 = 1 and dn**2 - k**2*sn_im**2 = 1.
    """

    sn_im: float
    cn: float
    dn: float


def _sncndn(u, k: float, kc: float | None = None):
    """Jacobi sn, cn, dn of real u (a float or an array) at modulus k in [0, 1).

    kc is the complementary modulus sqrt(1 - k**2).  Callers on the
    imaginary axis, where k is the k' of a Modulus, pass its k: formed here
    from k', 1 - k'**2 would lose the digits of k**2 at small k.
    """
    scalar = isinstance(u, (int, float))
    xp, asin = (math, math.asin) if scalar else (np, np.arcsin)
    u = u if scalar else np.asarray(u, dtype=float)
    if k == 0.0:
        return xp.sin(u), xp.cos(u), 1.0 if scalar else np.ones_like(u)
    kp2 = 1.0 - k * k if kc is None else kc * kc
    a, c = _landen(k, math.sqrt(kp2))
    n = len(a) - 1

    # reduce by the full period 4K for phase accuracy at large |u|
    period = 2.0 * math.pi / a[n]  # 4K
    u = u - period * (round(u / period) if scalar else np.round(u / period))

    phi = (2.0 ** n) * a[n] * u
    for i in range(n, 0, -1):
        # c[i] < a[i], so the argument never leaves [-1, 1]
        phi = 0.5 * (phi + asin(c[i] / a[i] * xp.sin(phi)))
    sn, cn = xp.sin(phi), xp.cos(phi)
    # dn**2 = cn**2 + k'**2 sn**2 avoids cancellation in 1 - k**2 sn**2
    dn = xp.sqrt(cn * cn + kp2 * sn * sn)
    return sn, cn, dn


def jacobi_real(u: float, m: Modulus) -> JacobiTriple:
    """sn, cn, dn at real argument u and modulus m.k."""
    if not math.isfinite(u):
        raise DomainError("jacobi_real requires finite u")
    return JacobiTriple(*_sncndn(u, m.k))


def jacobi_imag(t, m: Modulus) -> JacobiImag:
    """Real representatives of sn, cn, dn at the purely imaginary argument it
    (arrays for an array t).  Poles sit at t = +-K'; arguments inside the
    guard band raise PoleError."""
    scalar = np.ndim(t) == 0
    t = float(t) if scalar else np.asarray(t, dtype=float)
    x = abs(t)
    top = x if scalar else float(x.max(initial=0.0))
    if not math.isfinite(top):
        raise DomainError("jacobi_imag requires finite t")
    kp = m.quarter_Kp
    if top >= kp - POLE_GUARD:
        raise PoleError(f"jacobi_imag pole at |t| = K' = {kp!r}, got t = {t!r}")
    where = (lambda c, a, b: a if c else b) if scalar else np.where  # floats stay floats
    far = x > 0.5 * kp
    # past K'/2, where cn(t, k') is small, read sn, cn, dn at tau = K' - |t|
    # and use the reflections (DLMF 22.4.3): sc = cn/(k sn), nc = dn/(k sn), dc = ns
    sn, cn, dn = _sncndn(where(far, kp - x, x), m.k_prime, m.k)
    den = where(far, m.k * sn, cn)
    sc = where(far, cn, sn) / den
    return JacobiImag(sn_im=where(t < 0.0, -sc, sc), cn=where(far, dn, 1.0) / den,
                      dn=where(far, m.k, dn) / den)


def sn2_fourier_coeffs(m: Modulus, count: int) -> np.ndarray:
    """Cosine coefficients of sn(s, k)**2 = sum a[n] cos(n pi s / K), n < count.

    DLMF 22.11.13: a[0] = (1 - E/K)/k**2 and, for n >= 1,
    a[n] = -(2 pi**2 / (k**2 K**2)) n q**n / (1 - q**(2n)) with nome
    q = exp(-pi K'/K).  1 - E/K is the sum of 2**(j-1) c_j**2 over the
    Landen sequence (DLMF 19.8.6), which has no cancellation at small k.
    """
    k, k_big = m.k, m.quarter_K
    deficit = 0.0
    for j, c in enumerate(_landen(k, m.k_prime)[1]):
        deficit += math.ldexp(c * c, j - 1)
    q = math.exp(-math.pi * m.quarter_Kp / k_big)
    n = np.arange(1, count)
    out = np.empty(count)
    out[0] = deficit / (k * k)
    out[1:] = -(2.0 * math.pi ** 2 / (k * k * k_big * k_big)) * n * q ** n / (1.0 - q ** (2 * n))
    return out


_NS2_MAX_ORDER = 64


def ns2_series_coeffs(m: Modulus, count: int) -> np.ndarray:
    """Taylor coefficients of tau**2 ns(tau, k')**2 = sum r[p] tau**(2p), p < count <= 64.

    With kappa = k', ns**2 = P - e3 for the Weierstrass P with roots
    e1 = (2 - kappa**2)/3, e2 = (2 kappa**2 - 1)/3, e3 = -(1 + kappa**2)/3
    (DLMF 23.6(ii)): r[0] = 1, r[1] = -e3, r[2] = g2/20, r[3] = g3/28 with
    g2 = 2 sum e_i**2, g3 = 4 e1 e2 e3, and
    r[n] = 3/((2n+1)(n-3)) sum_(j=2..n-2) r[j] r[n-j] (DLMF 23.9.6-23.9.7).
    Against a 100-digit reference, each term r[p] R**(2p) at the radius
    R = 2 min(K, K') is within 1.1e-14 of the largest (k sampled in
    [1e-8, 1 - 1e-9]), and each r[p] within 1.1e-14 of itself except near
    k = 1/sqrt(2), where g3 and every odd-p coefficient vanish.
    """
    if not 1 <= count <= _NS2_MAX_ORDER:
        raise DomainError(f"ns2_series_coeffs takes 1 to {_NS2_MAX_ORDER} terms, got {count!r}")
    kp2 = m.k_prime * m.k_prime
    e1, e2, e3 = (2.0 - kp2) / 3.0, (2.0 * kp2 - 1.0) / 3.0, -(1.0 + kp2) / 3.0
    r = np.zeros(max(count, 4))
    r[:4] = 1.0, -e3, 0.1 * (e1 * e1 + e2 * e2 + e3 * e3), e1 * e2 * e3 / 7.0
    for n in range(4, count):
        r[n] = 3.0 / ((2 * n + 1) * (n - 3)) * (r[2:n - 1] @ r[n - 2:1:-1])
    return r[:count]

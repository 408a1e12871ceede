"""Internal and external flat-ring harmonics, toroidal harmonics, the
double-series expansions of 1/|r - r*|, the half-integer addition theorem,
the Lame integral relations, and the small-k comparison of flat-ring and
toroidal expansion terms.

Harmonics are evaluated in the real-representative convention of the lame
module, so every quadruple product of Lame factors appearing in an expansion
is real; azimuthal pairing of +-m terms is folded into cosine sums.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammasgn

from .coords import (
    CartesianPoint,
    FlatRingPoint,
    ToroidalPoint,
    Variant,
    cartesian_to_flatring,
    cartesian_to_toroidal,
    flatring_chi,
    metric_h,
)
from .elliptic import Modulus
from .errors import DomainError, OrderingError
from .lame import LameBasis, LameFamily, basis, basis_for, family_of_superscript
from .legendre import gamma_ratio, legendre_q, toroidal_tables

_AXIS_GUARD = 1e-28  # on x^2 + y^2; external harmonics stay bounded near the axis


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on (-1, 1), read-only:
    computed once per n and shared by every caller."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


class HarmonicKind(enum.Enum):
    GC = "Gc"  # internal, cosine family
    GS = "Gs"  # internal, sine family
    HC = "Hc"  # external, cosine family
    HS = "Hs"  # external, sine family

    @property
    def internal(self) -> bool:
        return self in (HarmonicKind.GC, HarmonicKind.GS)

    @property
    def lame_kind(self) -> str:
        return "c" if self in (HarmonicKind.GC, HarmonicKind.HC) else "s"


@dataclass(frozen=True)
class HarmonicIndex:
    """Azimuthal order m, superscript n, and harmonic kind.

    The sine families carry superscripts >= 1; the stored n is the
    superscript itself, and the degree parameter is nu = |m| - 1/2.
    """

    m: int
    n: int
    kind: HarmonicKind

    def __post_init__(self):
        if self.kind.lame_kind == "s" and self.n < 1:
            raise DomainError("sine-family harmonics require superscript n >= 1")
        if self.kind.lame_kind == "c" and self.n < 0:
            raise DomainError("cosine-family harmonics require superscript n >= 0")

    @property
    def nu(self) -> float:
        return abs(self.m) - 0.5

    @property
    def family(self) -> LameFamily:
        return family_of_superscript(self.kind.lame_kind, self.n)[0]

    @property
    def zero_count(self) -> int:
        return family_of_superscript(self.kind.lame_kind, self.n)[1]


@dataclass(frozen=True)
class Truncation:
    """Double-series limits: orders |m| <= m_max and shells n <= n_max."""

    m_max: int
    n_max: int

    def __post_init__(self):
        if self.m_max < 0 or self.n_max < 0:
            raise DomainError("truncation limits must be non-negative")


def _flatring_of(q: CartesianPoint, m: Modulus) -> tuple[FlatRingPoint, np.ndarray]:
    """V1 coordinates of a point (or of arrays of points) and (x^2+y^2)^(-1/4)."""
    x, y = np.asarray(q.x, dtype=float), np.asarray(q.y, dtype=float)
    r2 = x * x + y * y
    if np.any(r2 <= _AXIS_GUARD):
        raise DomainError("harmonic undefined on the z-axis")
    return cartesian_to_flatring(q, m, Variant.V1), r2 ** -0.25


def _harmonic(idx: HarmonicIndex, q: CartesianPoint, m: Modulus):
    """E(s) W(t) (internal) or E(s) F(t) (external) times (x^2+y^2)^(-1/4) e^{i m phi}."""
    p, pref = _flatring_of(q, m)
    b, cols = basis_for([(idx.family, idx.zero_count)], idx.nu, m)
    radial = b.imag(p.t, cols=cols) if idx.kind.internal else b.second(p.t, cols=cols)
    val = (b.real(p.s, cols=cols) * radial)[:, 0].reshape(np.shape(p.s))
    val = pref * val * np.exp(1j * idx.m * np.asarray(p.phi))
    return complex(val) if val.ndim == 0 else val


def internal_harmonic(idx: HarmonicIndex, q: CartesianPoint, m: Modulus):
    """Internal flat-ring harmonic Gc/Gs at a Cartesian point (a complex), or
    at a CartesianPoint of arrays (a complex array).

    Real-representative convention: for odd-parity Lame factors the returned
    value differs from the complex-convention one by a constant factor i,
    which cancels in every internal/external pairing.
    """
    if not idx.kind.internal:
        raise DomainError("internal_harmonic requires a Gc or Gs index")
    return _harmonic(idx, q, m)


def external_harmonic(idx: HarmonicIndex, q: CartesianPoint, m: Modulus):
    """External flat-ring harmonic Hc/Hs at a Cartesian point (or a
    CartesianPoint of arrays) off the closed focal annulus
    b^2 <= x^2 + y^2 <= 1/b^2, z = 0."""
    if idx.kind.internal:
        raise DomainError("external_harmonic requires an Hc or Hs index")
    r = np.hypot(q.x, q.y)
    b = m.b_ring
    if np.any((np.abs(q.z) < 1e-10) & (b - 1e-10 <= r) & (r <= 1.0 / b + 1e-10)):
        raise DomainError("external harmonic undefined on the focal annulus")
    return _harmonic(idx, q, m)


def _lame_products(b: LameBasis, s, s_star, t, t_star, cols=slice(None)) -> np.ndarray:
    """E(s) E(s*) W(t) F(t*) for the columns cols of a basis, one row per
    point pair: (pairs x columns)."""
    n = np.size(s)
    e = b.real(np.concatenate([np.ravel(s), np.ravel(s_star)]), cols=cols)
    return e[:n] * e[n:] * b.imag(t, cols=cols) * b.second(t_star, cols=cols)


def _cosine_weights(count: int, angle) -> np.ndarray:
    """eps_j cos(j angle), eps_0 = 1 and eps_j = 2, which fold the +-j terms of
    a cosine series into one: one row per 0 <= j < count, then angle's axes."""
    j = np.arange(count).reshape((-1,) + (1,) * np.ndim(angle))
    return np.where(j == 0, 1.0, 2.0) * np.cos(j * angle)


def _geometric_tail(mags: np.ndarray) -> np.ndarray:
    """Geometric extrapolation past the last of mags (first axis) with the
    largest ratio of consecutive entries, capped at 0.95."""
    ratios = np.divide(mags[1:], mags[:-1], out=np.zeros_like(mags[1:]), where=mags[:-1] > 0.0)
    p = np.minimum(ratios.max(axis=0, initial=0.0), 0.95)
    return mags[-1] * p / (1.0 - p)


def _double_series(terms: np.ndarray, dphi: np.ndarray, scale: np.ndarray, shape: tuple):
    """Sum of scale * eps_m cos(m dphi) * terms[m, pair, n] over m <= m_max and
    n <= n_max: (value, tail, shells), floats and a list for shape (), else
    arrays of that shape.  The tail estimate is a heuristic, not a bound:
    the extrapolation of the last three shells plus, shell by shell, that of
    the last two orders."""
    m1, _, n1 = terms.shape
    if m1 < 2 or n1 < 2:
        raise DomainError("the tail estimate needs m_max >= 1 and n_max >= 1; "
                          f"got m_max = {m1 - 1}, n_max = {n1 - 1}")
    shells = scale * np.einsum("op,opn->np", _cosine_weights(m1, dphi), terms)  # (n, pairs)
    total = shells.sum(axis=0)
    tail = (_geometric_tail(np.abs(shells[-3:]))  # every order past m_max has eps_m = 2
            + np.sum(scale[:, None] * 2.0 * _geometric_tail(np.abs(terms[-2:])), axis=1))
    if shape:
        return total.reshape(shape), tail.reshape(shape), list(shells.reshape((n1,) + shape))
    return float(total[0]), float(tail[0]), shells[:, 0].tolist()


def green_expansion(r: CartesianPoint, r_star: CartesianPoint, tr: Truncation, m: Modulus):
    """Partial double series for 1/|r - r*| in flat-ring harmonics: (value,
    tail, shells) as `_double_series` gives them.  Requires t(r) < t(r*) (the
    inner point first); CartesianPoints of arrays give one pair per element."""
    p, pref = _flatring_of(r, m)
    p_star, pref_star = _flatring_of(r_star, m)
    if not np.all(p.t < p_star.t):
        raise OrderingError(f"expansion requires t < t*; got t = {p.t!r}, t* = {p_star.t!r}")
    s, s_star, t, t_star, dphi, scale = (np.ravel(v) for v in np.broadcast_arrays(
        p.s, p_star.s, p.t, p_star.t, p.phi - p_star.phi, 0.5 * pref * pref_star))
    n1 = tr.n_max + 1
    # terms[order, pair, n]: the (|m|, n) block Ec^n Ec^n Wc Fc + Es^(n+1) Es^(n+1) Ws Fs
    terms = np.array([_lame_products(basis(order - 0.5, m, tr.n_max), s, s_star, t, t_star)
                      for order in range(tr.m_max + 1)])
    return _double_series(terms[..., :n1] + terms[..., n1:], dphi, scale,
                          np.broadcast_shapes(np.shape(p.s), np.shape(p_star.s)))


def toroidal_harmonic(m_order: int, n: int, p: ToroidalPoint, external: bool = False) -> complex:
    """Toroidal harmonic sqrt(cosh tau - cos psi) X(cosh tau) e^{i n psi} e^{i m phi},
    with X = Q (internal) or P (external) of half-integer degree |n| - 1/2."""
    d = math.cosh(p.tau) - math.cos(p.psi)
    mu, nn = abs(m_order), abs(n)
    p_tab, q_tab = toroidal_tables(math.cosh(p.tau), mu, nn)
    x_val = float((p_tab if external else q_tab)[mu, nn])
    if m_order < 0:  # X^{-m}_nu = Gamma(nu - m + 1) / Gamma(nu + m + 1) X^m_nu
        x_val *= gamma_ratio(nn - mu + 0.5, nn + mu + 0.5)
    phase = n * p.psi + m_order * p.phi
    return math.sqrt(d) * x_val * complex(math.cos(phase), math.sin(phase))


def _toroidal_terms(tau: float, tau_star: float, m_max: int, n_max: int) -> np.ndarray:
    """Gamma-weighted radial products (-1)^m Gamma(n-m+1/2) / Gamma(n+m+1/2)
    Q^m_{n-1/2}(cosh tau) P^m_{n-1/2}(cosh tau*) for m <= m_max, n <= n_max.

    The weight's sign and size come from gammasgn/gammaln; the product of the
    three factors is of moderate size even where each factor is not.
    """
    p, q = toroidal_tables(np.cosh([tau, tau_star]), m_max, n_max)
    m = np.arange(m_max + 1)[:, None]
    diff = np.arange(n_max + 1) - m + 0.5
    weights = (np.where(m % 2, -1.0, 1.0) * gammasgn(diff)
               * np.exp(gammaln(diff) - gammaln(diff + 2 * m)))
    return weights * q[..., 0] * p[..., 1]


def toroidal_summand(m_order: int, n: int, tau: float, tau_star: float) -> float:
    """Gamma-weighted radial product of one (m, n) toroidal expansion term;
    the -m and m terms are equal, as are the -n and n terms."""
    return float(_toroidal_terms(tau, tau_star, abs(m_order), abs(n))[-1, -1])


def _toroidal_table(tau: float, tau_star: float, psi: float, psi_star: float,
                    m_max: int, n_max: int) -> np.ndarray:
    """Toroidal expansion terms, +-n folded: sqrt(d d*) / pi * eps_n cos(n (psi - psi*))
    * `_toroidal_terms`, d = cosh tau - cos psi; (m_max + 1, n_max + 1)."""
    d, d_star = math.cosh(tau) - math.cos(psi), math.cosh(tau_star) - math.cos(psi_star)
    return (math.sqrt(d * d_star) / math.pi * _cosine_weights(n_max + 1, psi - psi_star)
            * _toroidal_terms(tau, tau_star, m_max, n_max))


def toroidal_green_expansion(r: CartesianPoint, r_star: CartesianPoint, tr: Truncation):
    """Partial double series for 1/|r - r*| in toroidal harmonics: (value,
    tail, shells) as `_double_series` gives them.  Requires tau(r) > tau(r*).
    The +-m and +-n quadrants fold into cosine sums; the Gamma-ratio weight
    makes the folding exact."""
    p = cartesian_to_toroidal(r)
    p_star = cartesian_to_toroidal(r_star)
    if not p.tau > p_star.tau:
        raise OrderingError(
            f"toroidal expansion requires tau > tau*; got {p.tau!r} <= {p_star.tau!r}")
    table = _toroidal_table(p.tau, p_star.tau, p.psi, p_star.psi, tr.m_max, tr.n_max)
    return _double_series(table[:, None, :], np.array([p.phi - p_star.phi]), np.ones(1), ())


def addition_theorem_rhs(
    m_order: int,
    s: float,
    s_star: float,
    t: float,
    t_star: float,
    n_max: int,
    m: Modulus,
) -> float:
    """Lame product series whose limit is Q_{m-1/2}(chi), for 0 < t < t* < K'."""
    if m_order < 0:
        raise DomainError("azimuthal order must be >= 0")
    if not 0.0 < t < t_star < m.quarter_Kp:
        raise OrderingError("addition theorem requires 0 < t < t* < K'")
    terms = _lame_products(basis(m_order - 0.5, m, n_max), s, s_star, t, t_star)
    return 0.5 * math.pi * float(np.sum(terms))


def integral_relation_check(
    nu: float,
    superscript: int,
    kind: str,
    s_star: float,
    t: float,
    t_star: float,
    m: Modulus,
    n_quad: int = 512,
) -> tuple[float, float]:
    """Both sides of the Lame integral relation.

    lhs = integral over (-2K, 2K) of Q_nu(chi(s)) E(s) ds by Gauss-Legendre;
    rhs = 2 pi E(s*) E(it) F(it*), all in real-representative form.  kind is
    'c' or 's'; nu may be any real >= -1/2 (half-integer nu = m - 1/2 gives
    the azimuthal Fourier coefficients of the reciprocal distance).  For
    half-integer nu, Q_nu(chi) comes from `toroidal_tables`, which covers
    every chi > 1; other nu use the `legendre_q` series (chi >= 1.05).
    """
    if not 0.0 < t < t_star < m.quarter_Kp:
        raise OrderingError("integral relation requires 0 < t < t* < K'")
    b, cols = basis_for([family_of_superscript(kind, superscript)], nu, m)
    k_big = m.quarter_K
    x, w = _gauss_legendre(n_quad)
    nodes = 2.0 * k_big * x
    chi = flatring_chi(nodes, t, s_star, t_star, m)
    n = nu + 0.5
    if n >= 0.0 and n == round(n):  # half-integer degree: the toroidal table's m = 0 column
        q_chi = toroidal_tables(chi, 0, int(n))[1][0, -1]
    else:
        q_chi = [legendre_q(nu, 0.0, c) for c in chi.tolist()]
    lhs = float(np.dot(2.0 * k_big * w * b.real(nodes, cols=cols)[:, 0], q_chi))
    rhs = 2.0 * math.pi * float(b.real(s_star, cols=cols)[0, 0] * b.imag(t, cols=cols)[0, 0]
                                * b.second(t_star, cols=cols)[0, 0])
    return lhs, rhs


def flatring_summand(
    m_order: int,
    n: int,
    tau: float,
    tau_star: float,
    psi: float,
    psi_star: float,
    m: Modulus,
) -> float:
    """Flat-ring expansion term A_{m,n} in the toroidal-limit parametrization
    s = 2K - psi, t = K' - tau; requires tau > tau* > 0 and psi, psi* in
    (0, 4K).  The prefactor (T T*)^(1/2) / 2 takes T = 1/h_phi from metric_h."""
    kp = m.quarter_Kp
    if not 0.0 < tau_star < tau < kp:
        raise OrderingError("flat-ring summand requires 0 < tau* < tau < K'")
    k_big = m.quarter_K
    s, s_star = 2.0 * k_big - psi, 2.0 * k_big - psi_star
    t, t_star = kp - tau, kp - tau_star
    h_phi = metric_h(FlatRingPoint(s=np.array([s, s_star]), t=np.array([t, t_star]),
                                   phi=0.0, modulus=m))[2]
    pref = 0.5 / math.sqrt(h_phi[0] * h_phi[1])
    specs = [family_of_superscript("c", n)] + ([family_of_superscript("s", n)] if n >= 1 else [])
    b, cols = basis_for(specs, abs(m_order) - 0.5, m)
    return pref * float(np.sum(_lame_products(b, s, s_star, t, t_star, cols)))


def toroidal_limit_summand(
    m_order: int, n: int, tau: float, tau_star: float, psi: float, psi_star: float
) -> float:
    """Toroidal expansion term B_{m,n} (the k -> 0 limit of A_{m,n})."""
    return float(_toroidal_table(tau, tau_star, psi, psi_star, abs(m_order), abs(n))[-1, -1])


def limit_comparison(
    m_order: int,
    n: int,
    tau: float,
    tau_star: float,
    psi: float,
    psi_star: float,
    k_values: list[float],
) -> list[dict]:
    """Table of |A_{m,n}(k) - B_{m,n}| along a sequence of moduli k -> 0."""
    b_val = toroidal_limit_summand(m_order, n, tau, tau_star, psi, psi_star)
    rows = []
    for k in k_values:
        mk = Modulus.from_k(k)
        a_val = flatring_summand(m_order, n, tau, tau_star, psi, psi_star, mk)
        rows.append({"k": k, "A": a_val, "B": b_val, "abs_diff": abs(a_val - b_val)})
    return rows

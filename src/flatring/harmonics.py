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
from typing import NamedTuple

import numpy as np

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
from .lame import LameFamily, OrderSet, basis, basis_for, family_of_superscript, order_set
from .legendre import gamma_ratio, legendre_q, toroidal_p_table, toroidal_q_table


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


class HarmonicIndex(NamedTuple("HarmonicIndex", [("m", int), ("n", int),
                                                 ("kind", HarmonicKind)])):
    """Azimuthal order m, superscript n, and harmonic kind.

    The sine families carry superscripts >= 1; the stored n is the
    superscript itself, and the degree parameter is nu = |m| - 1/2.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    def __new__(cls, m: int, n: int, kind: HarmonicKind):
        family_of_superscript(kind.lame_kind, n)  # refuses n below the family's least
        return super().__new__(cls, m, n, kind)

    @property
    def nu(self) -> float:
        return abs(self.m) - 0.5

    @property
    def family(self) -> LameFamily:
        return family_of_superscript(self.kind.lame_kind, self.n)[0]

    @property
    def zero_count(self) -> int:
        return family_of_superscript(self.kind.lame_kind, self.n)[1]


class Truncation(NamedTuple("Truncation", [("m_max", int), ("n_max", int)])):
    """Double-series limits: orders |m| <= m_max and shells n <= n_max."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    def __new__(cls, m_max: int, n_max: int):
        if m_max < 0 or n_max < 0:
            raise DomainError("truncation limits must be non-negative")
        return super().__new__(cls, m_max, n_max)


def _flatring_of(q: CartesianPoint, m: Modulus) -> tuple[FlatRingPoint, np.ndarray]:
    """V1 coordinates of a point (or of arrays of points) and (x^2+y^2)^(-1/4);
    the inversion refuses the z-axis and far points before the factor is taken."""
    x, y = np.asarray(q.x, dtype=float), np.asarray(q.y, dtype=float)
    return cartesian_to_flatring(q, m, Variant.V1), (x * x + y * y) ** -0.25


def _stacked(r: CartesianPoint, r_star: CartesianPoint) -> CartesianPoint:
    """r and r* broadcast to one shape and stacked on a new first axis."""
    both = np.broadcast_arrays(*r, *r_star)  # x, y, z, x*, y*, z*
    return CartesianPoint(*np.array([both[i::3] for i in range(3)], dtype=float))


def _harmonic(idx: HarmonicIndex, q: CartesianPoint, m: Modulus):
    """E(s) W(t) (internal) or E(s) F(t) (external) times (x^2+y^2)^(-1/4) e^{i m phi}."""
    p, pref = _flatring_of(q, m)
    b, cols = basis_for([(idx.family, idx.zero_count)], idx.nu, m)
    radial = b.imag(p.t, cols=cols) if idx.kind.internal else b.second(p.t, cols=cols)
    val = (b.real(p.s, cols=cols) * radial)[:, 0, 0].reshape(np.shape(p.s))
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
    CartesianPoint of arrays) off the V1 cut {z = 0, x^2 + y^2 >= b^2}: the
    focal annulus and the plane past it, which the inversion refuses."""
    if idx.kind.internal:
        raise DomainError("external_harmonic requires an Hc or Hs index")
    return _harmonic(idx, q, m)


def _lame_products(bases: OrderSet, s, s_star, t, t_star, cols=slice(None)) -> np.ndarray:
    """E(s) E(s*) W(t) F(t*) for the columns cols of each basis of the set,
    one row per point pair: (bases x pairs x columns), in one elementwise
    product.  E at s and s* comes from one read, W from another and F from
    a third."""
    n = np.size(s)
    e = bases.real(np.concatenate([np.ravel(s), np.ravel(s_star)]), cols=cols)
    products = e[:n] * e[n:] * bases.imag(t, cols=cols) * bases.second(t_star, cols=cols)
    return np.ascontiguousarray(products.transpose(1, 0, 2))


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


def _check_series_limits(tr: Truncation) -> None:
    """Refuse a truncation too short for the tail estimate of `_double_series`;
    each expansion calls this before it builds a basis or a table."""
    if tr.m_max < 1 or tr.n_max < 1:
        raise DomainError("the tail estimate needs m_max >= 1 and n_max >= 1; "
                          f"got m_max = {tr.m_max}, n_max = {tr.n_max}")


def _double_series(terms: np.ndarray, dphi: np.ndarray, scale: np.ndarray, shape: tuple):
    """Sum of scale * eps_m cos(m dphi) * terms[m, pair, n] over m <= m_max and
    n <= n_max (both >= 1, see `_check_series_limits`): (value, tail, shells),
    floats and a list for shape (), else arrays of that shape.  The tail
    estimate is a heuristic, not a bound: the extrapolation of the last three
    shells plus, shell by shell, that of the last two orders."""
    m1, _, n1 = terms.shape
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
    _check_series_limits(tr)
    p, pref = _flatring_of(_stacked(r, r_star), m)  # [r, r*] on the first axis
    if not np.all(p.t[0] < p.t[1]):
        raise OrderingError(f"expansion requires t < t*; got [t, t*] = {p.t.tolist()!r}")
    (s, s_star), (t, t_star), (phi, phi_star), (pref, pref_star) = (
        v.reshape(2, -1) for v in (p.s, p.t, p.phi, pref))
    n1 = tr.n_max + 1
    # terms[order, pair, n]: the (|m|, n) block Ec^n Ec^n Wc Fc + Es^(n+1) Es^(n+1) Ws Fs
    terms = _lame_products(order_set(m, tr.m_max, tr.n_max), s, s_star, t, t_star)
    return _double_series(terms[..., :n1] + terms[..., n1:], phi - phi_star,
                          0.5 * pref * pref_star, p.s.shape[1:])


def toroidal_harmonic(m_order: int, n: int, p: ToroidalPoint, external: bool = False) -> complex:
    """Toroidal harmonic sqrt(cosh tau - cos psi) X(cosh tau) e^{i n psi} e^{i m phi},
    with X = Q (internal) or P (external) of half-integer degree |n| - 1/2."""
    d = math.cosh(p.tau) - math.cos(p.psi)
    mu, nn = abs(m_order), abs(n)
    table = toroidal_p_table if external else toroidal_q_table
    x_val = float(table(math.cosh(p.tau), mu, nn)[mu, nn])
    if m_order < 0:  # X^{-m}_nu = Gamma(nu - m + 1) / Gamma(nu + m + 1) X^m_nu
        x_val *= gamma_ratio(nn - mu + 0.5, nn + mu + 0.5)
    phase = n * p.psi + m_order * p.phi
    return math.sqrt(d) * x_val * complex(math.cos(phase), math.sin(phase))


@functools.lru_cache(maxsize=1)  # one shape per op: an expansion's (m_max, n_max)
def _toroidal_weights(m_max: int, n_max: int) -> np.ndarray:
    """(-1)^m Gamma(n-m+1/2) / Gamma(n+m+1/2), m <= m_max, n <= n_max, as the
    product over j < m of -1/((n-j-1/2)(n+j+1/2)), to a few roundings; read-only,
    since the cache hands it to every caller."""
    half = np.arange(n_max + 1) + 0.5  # n + 1/2
    j = np.arange(m_max)[:, None]
    steps = np.vstack([np.ones_like(half), -1.0 / ((half - j - 1.0) * (half + j))])
    weights = np.cumprod(steps, axis=0)
    weights.flags.writeable = False
    return weights


def _toroidal_terms(tau: float, tau_star: float, m_max: int, n_max: int) -> np.ndarray:
    """`_toroidal_weights` * Q^m_{n-1/2}(cosh tau) P^m_{n-1/2}(cosh tau*), m <=
    m_max, n <= n_max, from a Q table at cosh tau alone and a P table at cosh
    tau* alone: of moderate size even where a factor is not."""
    z, z_star = np.cosh([tau, tau_star])
    q, p = toroidal_q_table(z, m_max, n_max), toroidal_p_table(z_star, m_max, n_max)
    return _toroidal_weights(m_max, n_max) * q * p


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
    _check_series_limits(tr)
    p = cartesian_to_toroidal(r)
    p_star = cartesian_to_toroidal(r_star)
    if not p.tau > p_star.tau:
        raise OrderingError(
            f"toroidal expansion requires tau > tau*; got {p.tau!r} <= {p_star.tau!r}")
    table = _toroidal_table(p.tau, p_star.tau, p.psi, p_star.psi, tr.m_max, tr.n_max)
    return _double_series(table[:, None, :], np.array([p.phi - p_star.phi]), np.ones(1), ())


def addition_theorem_rhs(m_order: int, s: float, s_star: float, t: float, t_star: float,
                         n_max: int, m: Modulus) -> float:
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
    the azimuthal Fourier coefficients of the reciprocal distance).
    Q_nu(chi) comes from one `legendre_q` call on every node, chi > 1.
    """
    if not 0.0 < t < t_star < m.quarter_Kp:
        raise OrderingError("integral relation requires 0 < t < t* < K'")
    b, cols = basis_for([family_of_superscript(kind, superscript)], nu, m)
    k_big = m.quarter_K
    x, w = _gauss_legendre(n_quad)
    nodes = 2.0 * k_big * x
    chi = flatring_chi(nodes, t, s_star, t_star, m)
    lhs = float(np.dot(2.0 * k_big * w * b.real(nodes, cols=cols)[:, 0, 0],
                       legendre_q(nu, 0.0, chi)))
    rhs = 2.0 * math.pi * float(b.real(s_star, cols=cols)[0, 0, 0] * b.imag(t, cols=cols)[0, 0, 0]
                                * b.second(t_star, cols=cols)[0, 0, 0])
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


def limit_comparison(m_order: int, n: int, tau: float, tau_star: float, psi: float,
                     psi_star: float, k_values: list[float]) -> list[dict]:
    """Table of |A_{m,n}(k) - B_{m,n}| along a sequence of moduli k -> 0."""
    b_val = toroidal_limit_summand(m_order, n, tau, tau_star, psi, psi_star)
    rows = []
    for k in k_values:
        mk = Modulus.from_k(k)
        a_val = flatring_summand(m_order, n, tau, tau_star, psi, psi_star, mk)
        rows.append({"k": k, "A": a_val, "B": b_val, "abs_diff": abs(a_val - b_val)})
    return rows

"""Coordinate systems: algebraic and transcendental flat-ring, cylindrical,
toroidal; metric coefficients; the cross-point quantity chi.

The transcendental coordinates (s, t, phi) use Jacobi elliptic functions of
modulus k.  Three chart variants cover the half-plane x > 0 minus different
cuts along the z = 0 axis; variant 1 is the default throughout the package.
All imaginary-argument elliptic factors are reduced to real quantities, so
every formula here is evaluated in real arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elliptic import JacobiImag, Modulus, _sncndn, jacobi_imag
from .errors import DomainError

CUT_GUARD = 1e-10  # distance to a chart cut below which inversion refuses


class CartesianPoint(NamedTuple):
    x: float
    y: float
    z: float


class Variant(enum.Enum):
    """Chart variants for the transcendental coordinates."""

    V1 = 1  # s in (-2K, 2K), t in (0, K');   cut {z=0, x >= b}
    V2 = 2  # s in (0, 2K),  t in (-K', K');  cuts {z=0, 0 < x <= b} and {z=0, x >= 1/b}
    V3 = 3  # s in (0, 4K),  t in (0, K');    cut {z=0, 0 < x <= 1/b}


@dataclass(frozen=True)
class AlgebraicFlatRing:
    """Algebraic coordinates (mu, rho, phi) with parameter a > 1."""

    mu: float
    rho: float
    phi: float
    a: float

    def __post_init__(self):
        if not self.a > 1.0:
            raise DomainError(f"parameter a must exceed 1, got {self.a!r}")
        if not self.mu < 0.0:
            raise DomainError(f"mu must be negative, got {self.mu!r}")
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (0, 1), got {self.rho!r}")


@dataclass(frozen=True)
class FlatRingPoint:
    """Transcendental coordinates (s, t, phi) at a fixed modulus; the fields
    may be arrays of broadcastable shapes, one point per element."""

    s: float
    t: float
    phi: float
    modulus: Modulus
    variant: Variant = Variant.V1

    def __post_init__(self):
        k_big = self.modulus.quarter_K
        kp = self.modulus.quarter_Kp
        s, t = self.s, self.t
        if self.variant is Variant.V1:
            ok = (-2.0 * k_big < s) & (s < 2.0 * k_big) & (0.0 < t) & (t < kp)
        elif self.variant is Variant.V2:
            ok = (0.0 < s) & (s < 2.0 * k_big) & (-kp < t) & (t < kp)
        else:
            ok = (0.0 < s) & (s < 4.0 * k_big) & (0.0 < t) & (t < kp)
        if not np.all(ok):
            raise DomainError(
                f"(s, t) = ({s!r}, {t!r}) outside the {self.variant.name} ranges"
            )


@dataclass(frozen=True)
class ToroidalPoint:
    """Toroidal coordinates (tau, psi, phi), tau > 0."""

    tau: float
    psi: float
    phi: float

    def __post_init__(self):
        if not self.tau > 0.0:
            raise DomainError(f"tau must be positive, got {self.tau!r}")


def algebraic_to_cartesian(p: AlgebraicFlatRing) -> CartesianPoint:
    """Forward map of the algebraic coordinates, positive square roots."""
    a, mu, rho = p.a, p.mu, p.rho
    t_big = math.sqrt((a - mu) * (a - rho) / (a * (a - 1.0))) + math.sqrt(
        (1.0 - mu) * (1.0 - rho) / (a - 1.0)
    )
    r = 1.0 / t_big
    z = r * math.sqrt(-mu * rho / a)
    return CartesianPoint(r * math.cos(p.phi), r * math.sin(p.phi), z)


def coordinate_line_residual(x: float, z: float, a: float, tau: float) -> float:
    """Residual of the planar coordinate-line equation at parameter tau."""
    u = x * x + z * z
    return (u + 1.0) ** 2 / (tau - a) - (u - 1.0) ** 2 / (tau - 1.0) - 4.0 * z * z / tau


def _quadratic_roots(x: float, z: float, a: float) -> tuple[float, float]:
    """Roots (mu, rho) of the inversion quadratic for a planar point in Q."""
    u = x * x + z * z
    f0 = -4.0 * a * z * z
    f1 = (a - 1.0) * (u - 1.0) ** 2
    if not f0 < 0.0:
        raise DomainError("inversion requires z != 0 (F(0) < 0 fails)")
    if not f1 > 0.0:
        raise DomainError("inversion requires x^2 + z^2 != 1 (F(1) > 0 fails)")
    a2 = 4.0 * x * x
    b = a * (u - 1.0) ** 2 - (u + 1.0) ** 2 + 4.0 * (1.0 + a) * z * z
    c = f0
    disc = b * b - 4.0 * a2 * c
    if disc <= 0.0:
        raise DomainError("inversion quadratic has no real roots")
    root1 = (-b - math.copysign(math.sqrt(disc), b)) / (2.0 * a2)
    root2 = c / (a2 * root1)
    mu, rho = (root1, root2) if root1 < root2 else (root2, root1)
    return mu, rho


def cartesian_to_algebraic(q: CartesianPoint, a: float) -> AlgebraicFlatRing:
    """Inverse of the algebraic map for points with (r, z) in the quarter disc Q."""
    if not a > 1.0:
        raise DomainError(f"parameter a must exceed 1, got {a!r}")
    r = math.hypot(q.x, q.y)
    z = q.z
    if not (r > 0.0 and z > 0.0 and r * r + z * z < 1.0):
        raise DomainError(f"point (r, z) = ({r!r}, {z!r}) outside the quarter disc Q")
    mu, rho = _quadratic_roots(r, z, a)
    if not (mu < 0.0 < rho < 1.0):
        raise DomainError(f"inversion produced (mu, rho) = ({mu!r}, {rho!r}) outside A")
    return AlgebraicFlatRing(mu=mu, rho=rho, phi=math.atan2(q.y, q.x), a=a)


def _t_factor(cn_s, dn_s, im: JacobiImag, m: Modulus):
    """T = dn(s) dn(it)/k' + k cn(s) cn(it)/k', all factors real."""
    return (dn_s * im.dn + m.k * cn_s * im.cn) / m.k_prime


def flatring_to_cartesian(p: FlatRingPoint) -> CartesianPoint:
    """Forward transcendental map; valid for every variant.  A point of
    arrays maps to a CartesianPoint of arrays in one pass."""
    m = p.modulus
    sn_s, cn_s, dn_s = _sncndn(p.s, m.k)
    im = jacobi_imag(p.t, m)
    r = 1.0 / _t_factor(cn_s, dn_s, im, m)
    z = m.k * sn_s * im.sn_im * r
    if isinstance(p.phi, (int, float)):
        return CartesianPoint(r * math.cos(p.phi), r * math.sin(p.phi), z)
    return CartesianPoint(*np.broadcast_arrays(r * np.cos(p.phi), r * np.sin(p.phi), z))


def _invert_rho_to_s(rho: float, m: Modulus) -> float:
    """Solve sn(s, k)**2 = rho for s in [0, K]; monotone, safeguarded Newton."""
    if rho <= 0.0:
        return 0.0
    target = math.sqrt(min(rho, 1.0))
    lo, hi = 0.0, m.quarter_K
    s = math.asin(target) / (0.5 * math.pi) * m.quarter_K
    for _ in range(80):
        sn, cn, dn = _sncndn(s, m.k)
        f = sn - target
        if f > 0.0:
            hi = s
        else:
            lo = s
        df = cn * dn
        step = f / df if df > 1e-100 else math.inf
        s_new = s - step
        if not lo <= s_new <= hi:
            s_new = 0.5 * (lo + hi)
        if abs(s_new - s) <= 1e-16 * m.quarter_K:
            return s_new
        s = s_new
    return s


def _invert_mu_to_t(mu: float, m: Modulus) -> float:
    """Solve sc(t, k')**2 = -mu for t in [0, K'); monotone, safeguarded Newton.

    Uses the well-scaled form f(t) = X cn(t,k') - sn(t,k') with X = sqrt(-mu),
    which decreases from X to -1 with no poles.
    """
    if mu >= 0.0:
        return 0.0
    x_t = math.sqrt(-mu)
    kp = m.k_prime
    lo, hi = 0.0, m.quarter_Kp
    t = math.atan(x_t) / (0.5 * math.pi) * m.quarter_Kp
    for _ in range(80):
        sn, cn, dn = _sncndn(t, kp, m.k)
        f = x_t * cn - sn
        if f < 0.0:
            hi = t
        else:
            lo = t
        df = -dn * (x_t * sn + cn)
        step = f / df if abs(df) > 1e-100 else math.inf
        t_new = t - step
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-16 * m.quarter_Kp:
            return t_new
        t = t_new
    return t


def _check_cut(r: float, z: float, m: Modulus, variant: Variant) -> None:
    b = m.b_ring
    if abs(z) >= CUT_GUARD:
        return
    on_cut = False
    if variant is Variant.V1:
        on_cut = r >= b - CUT_GUARD
    elif variant is Variant.V2:
        on_cut = r <= b + CUT_GUARD or r >= 1.0 / b - CUT_GUARD
    else:
        on_cut = r <= 1.0 / b + CUT_GUARD
    if on_cut:
        raise DomainError(
            f"point (r, z) = ({r!r}, {z!r}) lies on (or within {CUT_GUARD} of) "
            f"the {variant.name} cut"
        )


def cartesian_to_flatring(
    q: CartesianPoint, m: Modulus, variant: Variant = Variant.V1
) -> FlatRingPoint:
    """Inverse transcendental map with quadrant and cut bookkeeping."""
    r = math.hypot(q.x, q.y)
    z = q.z
    if r <= 0.0:
        raise DomainError("cartesian_to_flatring undefined on the z-axis")
    phi = math.atan2(q.y, q.x)
    _check_cut(r, z, m, variant)

    zeta = abs(z)
    reflected = z < 0.0
    u = r * r + zeta * zeta
    inverted = u > 1.0
    if inverted:
        r_b, zeta_b = r / u, zeta / u
    else:
        r_b, zeta_b = r, zeta

    u_b = r_b * r_b + zeta_b * zeta_b
    if zeta_b == 0.0:
        # z = 0 segments: one quadratic root degenerates to 0; the other tells
        # which segment we are on (rho = 0 for r < b, mu = 0 for b < r <= 1)
        a2 = 4.0 * r_b * r_b
        b_coef = m.a * (u_b - 1.0) ** 2 - (u_b + 1.0) ** 2
        other = -b_coef / a2
        if other < 0.0:
            mu, rho = other, 0.0
        elif 0.0 < other <= 1.0:
            mu, rho = 0.0, other
        else:
            raise DomainError("z = 0 point outside the chart segments")
    elif abs(u_b - 1.0) < 1e-14:
        # on the unit sphere rho = 1 (s = K) and the product root gives mu
        mu, rho = -m.a * zeta_b * zeta_b / (r_b * r_b), 1.0
    else:
        mu, rho = _quadratic_roots(r_b, zeta_b, m.a)

    s0 = _invert_rho_to_s(rho, m)
    t0 = _invert_mu_to_t(mu, m)
    k_big = m.quarter_K

    s, t = (2.0 * k_big - s0, t0) if inverted else (s0, t0)
    if reflected:
        if variant is Variant.V1:
            s = -s
        elif variant is Variant.V2:
            t = -t
        else:
            s = 4.0 * k_big - s
    if variant is not Variant.V1 and s == 0.0:
        raise DomainError("s = 0 is outside this variant's range")
    return FlatRingPoint(s=s, t=t, phi=phi, modulus=m, variant=variant)


def coordinate_surface_residual(
    q: CartesianPoint, m: Modulus, which: str, value: float
) -> float:
    """Scaled residual of the s- or t-coordinate-surface equation at q.

    Vanishes iff q lies on the surface {s = value} ("s") or {t = value} ("t").
    The raw left-hand side is divided by the sum of absolute term magnitudes.
    """
    u3 = q.x * q.x + q.y * q.y + q.z * q.z
    k2 = m.k * m.k
    if which == "s":
        if not 0.0 < value < 2.0 * m.quarter_K:
            raise DomainError("s-surface parameter must lie in (0, 2K)")
        sn, cn, dn = _sncndn(value, m.k)
        sn2, cn2, dn2 = sn * sn, cn * cn, dn * dn
        terms = (
            k2 * (u3 + 1.0) ** 2 / dn2,
            -((u3 - 1.0) ** 2) / cn2,
            4.0 * q.z * q.z / sn2,
        )
    elif which == "t":
        if not 0.0 < value < m.quarter_Kp:
            raise DomainError("t-surface parameter must lie in (0, K')")
        im = jacobi_imag(value, m)
        terms = (
            k2 * (u3 + 1.0) ** 2 / (im.dn * im.dn),
            -((u3 - 1.0) ** 2) / (im.cn * im.cn),
            -4.0 * q.z * q.z / (im.sn_im * im.sn_im),
        )
    else:
        raise DomainError(f"which must be 's' or 't', got {which!r}")
    scale = sum(abs(t) for t in terms)
    return sum(terms) / scale if scale > 0.0 else 0.0


def metric_h(p: FlatRingPoint) -> tuple[float, float, float]:
    """Metric coefficients (h_s, h_t, h_phi); h_s and h_t coincide."""
    m = p.modulus
    sn_s, cn_s, dn_s = _sncndn(p.s, m.k)
    im = jacobi_imag(p.t, m)
    t_big = _t_factor(cn_s, dn_s, im, m)
    # sn(it)^2 = -sn_im^2 <= 0, so the radicand never goes negative
    h_st = m.k / t_big * math.sqrt(sn_s * sn_s + im.sn_im * im.sn_im)
    return h_st, h_st, 1.0 / t_big


def toroidal_to_cartesian(p: ToroidalPoint) -> CartesianPoint:
    d = math.cosh(p.tau) - math.cos(p.psi)
    r = math.sinh(p.tau) / d
    return CartesianPoint(r * math.cos(p.phi), r * math.sin(p.phi), math.sin(p.psi) / d)


def cartesian_to_toroidal(q: CartesianPoint) -> ToroidalPoint:
    r = math.hypot(q.x, q.y)
    z = q.z
    if r <= 0.0:
        raise DomainError("toroidal coordinates undefined on the z-axis (tau = 0)")
    d_plus = (r + 1.0) ** 2 + z * z
    d_minus = (r - 1.0) ** 2 + z * z
    if d_minus <= 0.0:
        raise DomainError("toroidal coordinates undefined on the unit circle (tau = inf)")
    tau = 0.5 * math.log(d_plus / d_minus)
    if tau <= 0.0:
        raise DomainError("point maps to tau <= 0")
    psi = math.atan2(2.0 * z, r * r + z * z - 1.0)
    return ToroidalPoint(tau=tau, psi=psi, phi=math.atan2(q.y, q.x))


def cylindrical_of(p: FlatRingPoint) -> tuple[float, float]:
    """(R, z) of a flat-ring point."""
    c = flatring_to_cartesian(p)
    return math.hypot(c.x, c.y), c.z


def chi_cylindrical(r1: float, z1: float, r2: float, z2: float) -> float:
    """chi = (R^2 + R*^2 + (z - z*)^2) / (2 R R*), >= 1 away from the axis."""
    if r1 <= 0.0 or r2 <= 0.0:
        raise DomainError("chi undefined on the rotation axis (R = 0)")
    return (r1 * r1 + r2 * r2 + (z1 - z2) ** 2) / (2.0 * r1 * r2)


def flatring_chi(s, t, s_star, t_star, m: Modulus):
    """chi of two flat-ring coordinate pairs (any of them arrays) via the elliptic
    product form: stable when the two cylindrical radii nearly coincide, and equal
    to chi_cylindrical to roundoff."""
    k2 = m.k * m.k
    kp2 = m.k_prime * m.k_prime
    sn1, cn1, dn1 = _sncndn(s, m.k)
    sn2, cn2, dn2 = _sncndn(s_star, m.k)
    i1 = jacobi_imag(t, m)
    i2 = jacobi_imag(t_star, m)
    return (
        -k2 * sn1 * sn2 * i1.sn_im * i2.sn_im
        - k2 / kp2 * cn1 * cn2 * i1.cn * i2.cn
        + dn1 * dn2 * i1.dn * i2.dn / kp2
    )


def chi_flatring(p: FlatRingPoint, q: FlatRingPoint) -> float:
    """chi of two flat-ring points (see flatring_chi)."""
    if q.modulus != p.modulus:
        raise DomainError("chi_flatring requires a common modulus")
    return flatring_chi(p.s, p.t, q.s, q.t, p.modulus)

"""Coordinate systems: algebraic and transcendental flat-ring, cylindrical,
toroidal; metric coefficients; the cross-point quantity chi.

The transcendental coordinates (s, t, phi) use Jacobi elliptic functions of
modulus k.  Three chart variants cover the half-plane x > 0 minus different
cuts along the z = 0 axis; variant 1 is the default throughout the package.
All imaginary-argument elliptic factors are reduced to real quantities, so
every formula here is evaluated in real arithmetic.  Both directions of the
transcendental map are closed forms on arrays: the forward map is a product
of Jacobi functions, the inverse takes the algebraic coordinates from the
inversion quadratic and s, t from Carlson's R_F, with no iteration.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np
from scipy.special import elliprf

from .elliptic import JacobiImag, Modulus, _sncndn, jacobi_imag
from .errors import DomainError

CUT_GUARD = 1e-10  # distance to a chart cut below which inversion refuses
# inversion refuses |q| >= FAR_GUARD k (toroidal: FAR_GUARD), past which its squares,
# up to a |q|^2 = (|q| / k)^2 on the flat ring, near the double range
FAR_GUARD = 1e150


class CartesianPoint(NamedTuple):
    """Cartesian point; the fields may be arrays of broadcastable shapes."""

    x: float
    y: float
    z: float


class Variant(enum.Enum):
    """Chart variants for the transcendental coordinates."""

    V1 = 1  # s in (-2K, 2K), t in (0, K');   cut {z=0, x >= b}
    V2 = 2  # s in (0, 2K),  t in (-K', K');  cuts {z=0, 0 < x <= b} and {z=0, x >= 1/b}
    V3 = 3  # s in (0, 4K),  t in (0, K');    cut {z=0, 0 < x <= 1/b}


class AlgebraicFlatRing(NamedTuple("AlgebraicFlatRing", [("mu", float), ("rho", float),
                                                         ("phi", float), ("a", float)])):
    """Algebraic coordinates (mu, rho, phi) with parameter a > 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    def __new__(cls, mu: float, rho: float, phi: float, a: float):
        if not a > 1.0:
            raise DomainError(f"parameter a must exceed 1, got {a!r}")
        if not mu < 0.0:
            raise DomainError(f"mu must be negative, got {mu!r}")
        if not 0.0 < rho < 1.0:
            raise DomainError(f"rho must lie in (0, 1), got {rho!r}")
        return super().__new__(cls, mu, rho, phi, a)


class FlatRingPoint(NamedTuple("FlatRingPoint", [("s", float), ("t", float), ("phi", float),
                                                 ("modulus", Modulus), ("variant", Variant)])):
    """Transcendental coordinates (s, t, phi), phi finite, at a fixed modulus;
    the fields may be arrays of broadcastable shapes, one point per element."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    def __new__(cls, s: float, t: float, phi: float, modulus: Modulus,
                variant: Variant = Variant.V1):
        k_big = modulus.quarter_K
        kp = modulus.quarter_Kp
        if variant is Variant.V1:
            ok = (-2.0 * k_big < s) & (s < 2.0 * k_big) & (0.0 < t) & (t < kp)
        elif variant is Variant.V2:
            ok = (0.0 < s) & (s < 2.0 * k_big) & (-kp < t) & (t < kp)
        else:
            ok = (0.0 < s) & (s < 4.0 * k_big) & (0.0 < t) & (t < kp)
        if not np.all(ok):
            raise DomainError(f"(s, t) = ({s!r}, {t!r}) outside the {variant.name} ranges")
        if not np.all(np.isfinite(phi)):
            raise DomainError(f"phi must be finite, got {phi!r}")
        return super().__new__(cls, s, t, phi, modulus, variant)


class ToroidalPoint(NamedTuple("ToroidalPoint", [("tau", float), ("psi", float),
                                                 ("phi", float)])):
    """Toroidal coordinates (tau, psi, phi), finite, tau > 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    def __new__(cls, tau: float, psi: float, phi: float):
        if not (tau > 0.0 and all(map(math.isfinite, (tau, psi, phi)))):
            raise DomainError(f"tau must be positive and each field finite: {(tau, psi, phi)!r}")
        return super().__new__(cls, tau, psi, phi)


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


def _quadratic_roots(r, z, w, a: float):
    """Roots mu <= 0 <= rho of the inversion quadratic
    F(sigma) = 4r^2 sigma^2 + B sigma - 4a z^2 of a planar point (r, z) with
    u = r^2 + z^2 = 1 + w <= 1; floats or arrays.  The root of larger size
    comes from the formula, the other from the product -a z^2 / r^2."""
    quad = 4.0 * r * r
    lin = a * w * w - (w + 2.0) ** 2 + 4.0 * (1.0 + a) * z * z
    const = -4.0 * a * z * z
    big = -0.5 * (lin + np.copysign(np.sqrt(lin * lin - 4.0 * quad * const), lin)) / quad
    small = const / (quad * big)
    return np.minimum(big, small), np.maximum(big, small)


def cartesian_to_algebraic(q: CartesianPoint, a: float) -> AlgebraicFlatRing:
    """Inverse of the algebraic map for points with (r, z) in the quarter disc Q."""
    if not a > 1.0:
        raise DomainError(f"parameter a must exceed 1, got {a!r}")
    r = math.hypot(q.x, q.y)
    z = q.z
    if not (r > 0.0 and z > 0.0 and r * r + z * z < 1.0):
        raise DomainError(f"point (r, z) = ({r!r}, {z!r}) outside the quarter disc Q")
    mu, rho = (float(v) for v in _quadratic_roots(r, z, r * r + z * z - 1.0, a))
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


def _check_far(dist: float, bound: float) -> None:
    """Refuse a distance |q| from the origin (the largest of a point of arrays) past bound."""
    if dist >= bound:
        raise DomainError(f"point at |q| = {dist!r} is too far from the origin: "
                          f"inversion needs |q| < {bound!r}")


def _check_cut(r, z, m: Modulus, variant: Variant) -> None:
    b = m.b_ring
    if variant is Variant.V1:
        on_cut = r >= b - CUT_GUARD
    elif variant is Variant.V2:
        on_cut = (r <= b + CUT_GUARD) | (r >= 1.0 / b - CUT_GUARD)
    else:
        on_cut = r <= 1.0 / b + CUT_GUARD
    bad = np.flatnonzero(on_cut & (np.abs(z) < CUT_GUARD))
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"point (r, z) = ({float(r.flat[i])!r}, {float(z.flat[i])!r}) lies on (or within "
            f"{CUT_GUARD} of) the {variant.name} cut"
        )


def cartesian_to_flatring(
    q: CartesianPoint, m: Modulus, variant: Variant = Variant.V1
) -> FlatRingPoint:
    """Inverse transcendental map in closed form, with quadrant and cut
    bookkeeping.  A point of arrays maps to a FlatRingPoint of arrays in one
    pass; a point of floats gives floats.

    Reflected to z >= 0 and inverted through the unit sphere into u = r^2 +
    z^2 <= 1, a point has algebraic coordinates mu <= 0 <= rho <= 1, the roots
    of F(sigma) = 4r^2 sigma^2 + B sigma - 4a z^2.  The root product
    F(1) = (a - 1)(u - 1)^2 = 4r^2 (1 - mu)(1 - rho) gives 1 - rho without
    cancellation next to the unit sphere.  With sn(s, k)^2 = rho and
    sc(t, k')^2 = -mu = X^2, Carlson's R_F (DLMF 19.25.5) gives
    s = sqrt(rho) R_F(1 - rho, 1 - k^2 rho, 1) and t = X R_F(1, 1 + k^2 X^2, 1 + X^2).
    On z = 0 one root vanishes and on the unit sphere 1 - rho does, so
    neither needs a branch of its own.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in q))
    r = np.hypot(x, y)
    if not np.all(r > 0.0):
        raise DomainError("cartesian_to_flatring undefined on the z-axis")
    _check_far(float(np.max(np.hypot(r, z), initial=0.0)), FAR_GUARD * m.k)
    _check_cut(r, z, m, variant)

    u = r * r + z * z
    inverted = u > 1.0
    r_b = np.where(inverted, r / u, r)
    zeta = np.abs(np.where(inverted, z / u, z))
    w = np.where(inverted, (1.0 - u) / u, u - 1.0)  # u - 1 after the inversion
    mu, rho = _quadratic_roots(r_b, zeta, w, m.a)
    gap = (m.a - 1.0) * w * w / (4.0 * r_b * r_b * (1.0 - mu))  # 1 - rho
    k2 = m.k * m.k
    s = np.sqrt(rho) * elliprf(gap, m.k_prime * m.k_prime + k2 * gap, 1.0)
    t = np.sqrt(-mu) * elliprf(1.0, 1.0 - k2 * mu, 1.0 - mu)

    k_big = m.quarter_K
    s = np.where(inverted, 2.0 * k_big - s, s)
    below = z < 0.0
    if variant is Variant.V1:
        s = np.where(below, -s, s)
    elif variant is Variant.V2:
        t = np.where(below, -t, t)
    else:
        s = np.where(below, 4.0 * k_big - s, s)
    phi = np.arctan2(y, x)
    if s.ndim == 0:
        s, t, phi = float(s), float(t), float(phi)
    return FlatRingPoint(s=s, t=t, phi=phi, modulus=m, variant=variant)


def coordinate_surface_residual(
    q: CartesianPoint, m: Modulus, which: str, value: float
) -> float:
    """Scaled residual of the s- or t-coordinate-surface equation at q.

    Vanishes iff q lies on the surface {s = value} ("s") or {t = value} ("t").
    The raw left-hand side is divided by the sum of absolute term magnitudes;
    each term is taken over (|q|^2 + 1)^2 first.  Those terms are the same at
    q and at its inverse q/|q|^2, so a point with |q| > 1 is read at its
    inverse, formed as (q/|q|)/|q|: no far point is squared.
    """
    r = math.hypot(q.x, q.y, q.z)
    if r > 1.0:
        q = CartesianPoint(*(c / r / r for c in q))
    u3 = q.x * q.x + q.y * q.y + q.z * q.z
    k2 = m.k * m.k
    ratio, z = (u3 - 1.0) / (u3 + 1.0), q.z / (u3 + 1.0)
    if which == "s":
        if not 0.0 < value < 2.0 * m.quarter_K:
            raise DomainError("s-surface parameter must lie in (0, 2K)")
        sn, cn, dn = _sncndn(value, m.k)
        sn2, cn2, dn2 = sn * sn, cn * cn, dn * dn
        terms = (k2 / dn2, -ratio * ratio / cn2, 4.0 * z * z / sn2)
    elif which == "t":
        if not 0.0 < value < m.quarter_Kp:
            raise DomainError("t-surface parameter must lie in (0, K')")
        im = jacobi_imag(value, m)
        terms = (k2 / (im.dn * im.dn), -ratio * ratio / (im.cn * im.cn),
                 -4.0 * z * z / (im.sn_im * im.sn_im))
    else:
        raise DomainError(f"which must be 's' or 't', got {which!r}")
    scale = sum(abs(t) for t in terms)
    return sum(terms) / scale if scale > 0.0 else 0.0


def metric_h(p: FlatRingPoint) -> tuple[float, float, float]:
    """Metric coefficients (h_s, h_t, h_phi); h_s and h_t coincide.  A point
    of arrays gives arrays."""
    m = p.modulus
    sn_s, cn_s, dn_s = _sncndn(p.s, m.k)
    im = jacobi_imag(p.t, m)
    t_big = _t_factor(cn_s, dn_s, im, m)
    # sn(it)^2 = -sn_im^2 <= 0, so the radicand never goes negative
    h_st = m.k / t_big * (sn_s * sn_s + im.sn_im * im.sn_im) ** 0.5
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
    _check_far(math.hypot(r, z), FAR_GUARD)
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
    """(R, z) of a flat-ring point (arrays for a point of arrays)."""
    c = flatring_to_cartesian(p)
    r = np.hypot(c.x, c.y)
    return (float(r) if r.ndim == 0 else r), c.z


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

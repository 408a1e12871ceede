"""Weak-sense Dirichlet solver on flat-ring interiors and the integral
representation of external harmonics through boundary data.

The domain D1 is the interior of the coordinate surface t = t0.  Boundary
data enter as g(s, phi) = (x^2 + y^2)^(1/4) f on the surface; coefficients
come from tensor-product quadrature (Gauss-Legendre in s, trapezoid in phi,
which is spectrally accurate for periodic data), and the solution is summed
from internal harmonics.  Sine-family coefficients are normalized by the
sine-family edge value Es(i t0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coords import CartesianPoint, FlatRingPoint, Variant, cartesian_to_flatring, flatring_to_cartesian
from .elliptic import Modulus, jacobi_imag
from .errors import DomainError, QuadratureWarning
from .harmonics import HarmonicIndex, Truncation
from .lame import (
    eigenpair,
    eval_e_imag,
    eval_e_real,
    family_of_superscript,
)

_INTERIOR_MARGIN = 1e-3  # in units of K': probes must satisfy t <= t0 - margin


@dataclass(frozen=True)
class FlatRingDomain:
    """Interior of the flat-ring coordinate surface t = t0."""

    t0: float
    modulus: Modulus

    def __post_init__(self):
        if not 0.0 < self.t0 < self.modulus.quarter_Kp:
            raise DomainError(f"t0 = {self.t0!r} outside (0, K')")

    def membership(self, q: CartesianPoint) -> float:
        """Positive inside D1, negative outside, zero on the surface."""
        m = self.modulus
        im = jacobi_imag(self.t0, m)
        u3 = q.x * q.x + q.y * q.y + q.z * q.z
        k2 = m.k * m.k
        return (
            k2 * (u3 + 1.0) ** 2 / (im.dn * im.dn)
            - (u3 - 1.0) ** 2 / (im.cn * im.cn)
            - 4.0 * q.z * q.z / (im.sn_im * im.sn_im)
        )

    def contains(self, q: CartesianPoint) -> bool:
        return self.membership(q) > 0.0

    def surface_point(self, s: float, phi: float) -> CartesianPoint:
        return flatring_to_cartesian(
            FlatRingPoint(s=s, t=self.t0, phi=phi, modulus=self.modulus)
        )


@dataclass
class BoundaryData:
    """Callable boundary sample g(s, phi) = (x^2+y^2)^(1/4) f on t = t0."""

    g: Callable[[float, float], float]
    n_s: int = 96
    n_phi: int = 64

    @classmethod
    def from_function(cls, dom: FlatRingDomain, f: Callable[[CartesianPoint], float],
                      n_s: int = 96, n_phi: int = 64) -> "BoundaryData":
        """Wrap a Cartesian boundary function f into parameter form."""

        def g(s: float, phi: float) -> float:
            q = dom.surface_point(s, phi)
            return (q.x * q.x + q.y * q.y) ** 0.25 * f(q)

        return cls(g=g, n_s=n_s, n_phi=n_phi)


@dataclass
class CoefficientTable:
    """Expansion coefficients c (cosine family) and d (sine family).

    c[m_off + m, n] multiplies Gc_m^n, d[m_off + m, n-1] multiplies Gs_m^n.
    """

    m_max: int
    n_max: int
    c: np.ndarray  # complex, (2*m_max+1, n_max+1)
    d: np.ndarray  # complex, (2*m_max+1, n_max+1)
    parseval_residual: float

    def c_of(self, m: int, n: int) -> complex:
        return self.c[self.m_max + m, n]

    def d_of(self, m: int, n: int) -> complex:
        return self.d[self.m_max + m, n - 1]


def coefficients(dom: FlatRingDomain, data: BoundaryData, tr: Truncation) -> CoefficientTable:
    """Project boundary data onto the surface harmonics.

    c_m^n = (1 / (8 pi Ec(i t0))) integral of g(s, phi) Ec(s) e^{-i m phi};
    d_m^(n+1) likewise with Es and the Es(i t0) normalizer.
    """
    m = dom.modulus
    k_big = m.quarter_K
    x, w = np.polynomial.legendre.leggauss(data.n_s)
    s_nodes = 2.0 * k_big * x
    s_weights = 2.0 * k_big * w
    phi_nodes = -math.pi + 2.0 * math.pi * np.arange(data.n_phi) / data.n_phi
    dphi = 2.0 * math.pi / data.n_phi

    gvals = np.array([[data.g(float(s), float(p)) for p in phi_nodes] for s in s_nodes])

    orders = np.arange(-tr.m_max, tr.m_max + 1)
    phase = np.exp(-1j * np.outer(orders, phi_nodes)) * dphi  # (2M+1, n_phi)
    g_hat = phase @ gvals.T  # (2M+1, n_s)

    c = np.zeros((2 * tr.m_max + 1, tr.n_max + 1), dtype=complex)
    d = np.zeros((2 * tr.m_max + 1, tr.n_max + 1), dtype=complex)
    for j, morder in enumerate(orders):
        nu = abs(int(morder)) - 0.5
        for sup in range(tr.n_max + 1):
            fam, nz = family_of_superscript("c", sup)
            pair = eigenpair(fam, nu, nz, m)
            e_s = np.array([eval_e_real(pair, float(s)) for s in s_nodes])
            raw = np.sum(s_weights * e_s * g_hat[j])
            c[j, sup] = raw / (8.0 * math.pi * eval_e_imag(pair, dom.t0))
        for sup in range(1, tr.n_max + 2):
            fam, nz = family_of_superscript("s", sup)
            pair = eigenpair(fam, nu, nz, m)
            e_s = np.array([eval_e_real(pair, float(s)) for s in s_nodes])
            raw = np.sum(s_weights * e_s * g_hat[j])
            d[j, sup - 1] = raw / (8.0 * math.pi * eval_e_imag(pair, dom.t0))

    # Parseval check against the sampled norm of g
    norm_g2 = float(np.sum(s_weights[:, None] * gvals ** 2) * dphi)
    captured = 0.0
    for j, morder in enumerate(orders):
        nu = abs(int(morder)) - 0.5
        for sup in range(tr.n_max + 1):
            fam, nz = family_of_superscript("c", sup)
            pair = eigenpair(fam, nu, nz, m)
            captured += 8.0 * math.pi * abs(c[j, sup] * eval_e_imag(pair, dom.t0)) ** 2
        for sup in range(1, tr.n_max + 2):
            fam, nz = family_of_superscript("s", sup)
            pair = eigenpair(fam, nu, nz, m)
            captured += 8.0 * math.pi * abs(d[j, sup - 1] * eval_e_imag(pair, dom.t0)) ** 2
    residual = abs(norm_g2 - captured) / norm_g2 if norm_g2 > 0.0 else 0.0
    if residual > 1e-6:
        warnings.warn(
            f"boundary data may be under-resolved: Parseval residual {residual:.3e}",
            QuadratureWarning,
        )
    return CoefficientTable(m_max=tr.m_max, n_max=tr.n_max, c=c, d=d,
                            parseval_residual=residual)


def solve_interior(dom: FlatRingDomain, coeffs: CoefficientTable, q: CartesianPoint) -> float:
    """Evaluate the harmonic interior solution at a point of D1."""
    m = dom.modulus
    p = cartesian_to_flatring(q, m, Variant.V1)
    if p.t > dom.t0 - _INTERIOR_MARGIN * m.quarter_Kp:
        raise DomainError(
            f"point with t = {p.t!r} is outside the interior margin t0 - "
            f"{_INTERIOR_MARGIN} K'"
        )
    pref = (q.x * q.x + q.y * q.y) ** -0.25
    total = 0.0 + 0.0j
    for j in range(-coeffs.m_max, coeffs.m_max + 1):
        nu = abs(j) - 0.5
        az = complex(math.cos(j * p.phi), math.sin(j * p.phi))
        for sup in range(coeffs.n_max + 1):
            fam, nz = family_of_superscript("c", sup)
            pair = eigenpair(fam, nu, nz, m)
            base = pref * eval_e_real(pair, p.s) * eval_e_imag(pair, p.t)
            total += coeffs.c_of(j, sup) * base * az
        for sup in range(1, coeffs.n_max + 2):
            fam, nz = family_of_superscript("s", sup)
            pair = eigenpair(fam, nu, nz, m)
            base = pref * eval_e_real(pair, p.s) * eval_e_imag(pair, p.t)
            total += coeffs.d_of(j, sup) * base * az
    return total.real


def solve_point_source(dom: FlatRingDomain, r_star: CartesianPoint, tr: Truncation,
                       n_s: int = 96, n_phi: int = 64) -> CoefficientTable:
    """Coefficients for boundary data f = 1 / |. - r*| with r* outside D1."""
    if dom.contains(r_star):
        raise DomainError("point source must lie outside the closed flat-ring")
    data = BoundaryData.from_function(
        dom, lambda q: 1.0 / math.dist(q, r_star), n_s=n_s, n_phi=n_phi
    )
    return coefficients(dom, data, tr)


def external_from_boundary(dom: FlatRingDomain, idx: HarmonicIndex,
                           r_star: CartesianPoint, n_s: int = 128, n_phi: int = 64) -> complex:
    """Integral representation of an external harmonic through internal data.

    Evaluates (1 / (4 pi E(i t0)^2)) times the surface integral of
    G / (h_s |r - r*|); in (s, phi) parameters the measure weight h_s h_phi
    cancels h_s, leaving h_phi = R(s).  Equals external_harmonic at r*.
    """
    if idx.kind.internal:
        raise DomainError("external_from_boundary expects an Hc or Hs index")
    if dom.contains(r_star):
        raise DomainError("r* must lie outside the closed flat-ring")
    m = dom.modulus
    k_big = m.quarter_K
    pair = eigenpair(idx.family, idx.nu, idx.zero_count, m)
    w_t0 = eval_e_imag(pair, dom.t0)

    x, w = np.polynomial.legendre.leggauss(n_s)
    s_nodes = 2.0 * k_big * x
    s_weights = 2.0 * k_big * w
    phi_nodes = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi
    dphi = 2.0 * math.pi / n_phi

    total = 0.0 + 0.0j
    for s, ws in zip(s_nodes, s_weights):
        e_s = eval_e_real(pair, float(s))
        for phi in phi_nodes:
            q = dom.surface_point(float(s), float(phi))
            r_cyl = math.hypot(q.x, q.y)
            integrand = math.sqrt(r_cyl) * e_s / math.dist(q, r_star)
            total += ws * dphi * integrand * complex(
                math.cos(idx.m * phi), math.sin(idx.m * phi)
            )
    return total / (4.0 * math.pi * w_t0)

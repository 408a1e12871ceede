"""Weak-sense Dirichlet solver on flat-ring interiors and the integral
representation of external harmonics through boundary data.

The domain D1 is the interior of the coordinate surface t = t0.  Boundary
data enter as g(s, phi) = (x^2 + y^2)^(1/4) f on the surface; coefficients
come from tensor-product quadrature (Gauss-Legendre in s, trapezoid in phi,
which is spectrally accurate for periodic data), and the solution is summed
from internal harmonics.  Sine-family coefficients are normalized by the
sine-family edge value Es(i t0).

Everything in a projection but the data depends only on the surface, the
quadrature and the truncation: `_surface` builds it once per key (modulus,
t0, n_s, n_phi, m_max, n_max) and keeps the last one (lru_cache of size 1),
since a run of solves reads one surface.  It holds read-only arrays alone,
no basis and no order set, so `lame.clear_caches` need not reach it: a
rebuilt set reads bit for bit what the arrays hold.  At the CLI defaults
((10, 10), 64 x 48 nodes) it holds 0.21 MB, at (40, 40) and 96 x 64 nodes
2.8 MB; nearly all of it is the projection, one (n_s, 2N+2) block per
order m = 0..M, which +m and -m share.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .coords import CartesianPoint, FlatRingPoint, Variant, cartesian_to_flatring, flatring_to_cartesian
from .coords import FAR_GUARD, _check_far, coordinate_surface_residual
from .elliptic import Modulus
from .errors import DomainError, QuadratureWarning
from .harmonics import HarmonicIndex, Truncation, _gauss_legendre
from .lame import basis_for, order_set

_INTERIOR_MARGIN = 1e-3  # in units of K': probes must satisfy t <= t0 - margin


class FlatRingDomain(NamedTuple("FlatRingDomain", [("t0", float), ("modulus", Modulus)])):
    """Interior of the flat-ring coordinate surface t = t0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    def __new__(cls, t0: float, modulus: Modulus):
        if not 0.0 < t0 < modulus.quarter_Kp:
            raise DomainError(f"t0 = {t0!r} outside (0, K')")
        return super().__new__(cls, t0, modulus)

    def membership(self, q: CartesianPoint) -> float:
        """Positive inside D1, negative outside, zero on the surface: the
        scaled t-surface residual of coordinate_surface_residual."""
        return coordinate_surface_residual(q, self.modulus, "t", self.t0)

    def contains(self, q: CartesianPoint) -> bool:
        return self.membership(q) > 0.0

    @property
    def t_inner(self) -> float:
        """The largest t at which solve_interior evaluates: t0 less the
        interior margin."""
        return self.t0 - _INTERIOR_MARGIN * self.modulus.quarter_Kp

    def surface_point(self, s, phi) -> CartesianPoint:
        """Point (s, t0, phi) of the surface; s and phi may be arrays."""
        return flatring_to_cartesian(
            FlatRingPoint(s=s, t=self.t0, phi=phi, modulus=self.modulus)
        )


def _inverse_distance(q: CartesianPoint, r_star: CartesianPoint):
    return 1.0 / np.sqrt((q.x - r_star.x) ** 2 + (q.y - r_star.y) ** 2 + (q.z - r_star.z) ** 2)


def _surface_quadrature(m: Modulus, n_s: int, n_phi: int):
    """Gauss-Legendre nodes and weights on s in (-2K, 2K), trapezoid nodes
    and step in phi."""
    if n_s < 1 or n_phi < 1:
        raise DomainError(f"quadrature needs n_s >= 1 and n_phi >= 1, "
                          f"got {n_s!r} and {n_phi!r}")
    x, w = _gauss_legendre(n_s)
    dphi = 2.0 * math.pi / n_phi
    return 2.0 * m.quarter_K * x, 2.0 * m.quarter_K * w, -math.pi + dphi * np.arange(n_phi), dphi


class _Record:
    """Keyword repr and value equality over the attributes of a plain class,
    arrays by np.array_equal (unhashable, since it defines __eq__); `_unshown`
    stay out of the repr."""

    _unshown = ()

    def __repr__(self) -> str:
        shown = (f"{k}={v!r}" for k, v in vars(self).items() if k not in self._unshown)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = vars(self), vars(other)
        return mine.keys() == theirs.keys() and all(
            np.array_equal(mine[k], theirs[k])
            if isinstance(mine[k], np.ndarray) or isinstance(theirs[k], np.ndarray)
            else mine[k] == theirs[k] for k in mine)


class BoundaryData(_Record):
    """Callable boundary sample g(s, phi) = (x^2+y^2)^(1/4) f on t = t0.

    g is called once with the whole (s, phi) quadrature mesh as
    broadcastable arrays.  Data from `from_function` also keep its domain and
    Cartesian f, which `coefficients` hands that domain's cached surface mesh.
    """

    _unshown = ("dom", "f")

    def __init__(self, g: Callable[[np.ndarray, np.ndarray], np.ndarray], n_s: int = 96,
                 n_phi: int = 64):
        self.g, self.n_s, self.n_phi = g, n_s, n_phi
        self.dom: FlatRingDomain | None = None
        self.f: Callable[[CartesianPoint], np.ndarray] | None = None

    @classmethod
    def from_function(cls, dom: FlatRingDomain, f: Callable[[CartesianPoint], np.ndarray],
                      n_s: int = 96, n_phi: int = 64) -> "BoundaryData":
        """Wrap a Cartesian f, called with one CartesianPoint of arrays, into parameter form."""
        def g(s, phi):
            q = dom.surface_point(s, phi)
            return (q.x * q.x + q.y * q.y) ** 0.25 * f(q)

        data = cls(g=g, n_s=n_s, n_phi=n_phi)
        data.dom, data.f = dom, f
        return data

    def sample(self, s: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """g on the tensor mesh s x phi: (len(s), len(phi))."""
        return np.broadcast_to(self.g(s[:, None], phi[None, :]), (s.size, phi.size))


class CoefficientTable(_Record):
    """Expansion coefficients c (cosine family) and d (sine family).

    c[m_off + m, n] multiplies Gc_m^n, d[m_off + m, n-1] multiplies Gs_m^n.
    """

    def __init__(self, m_max: int, n_max: int, c: np.ndarray, d: np.ndarray,
                 parseval_residual: float):
        self.m_max, self.n_max = m_max, n_max
        self.c, self.d = c, d  # complex, (2*m_max+1, n_max+1) each
        self.parseval_residual = parseval_residual

    def c_of(self, m: int, n: int) -> complex:
        return self.c[self.m_max + m, n]

    def d_of(self, m: int, n: int) -> complex:
        return self.d[self.m_max + m, n - 1]


# The data-free half of a projection onto the surface harmonics, all
# read-only, the surface itself a tuple; rows m run over the orders
# 0..m_max, which +m and -m share, columns over Ec^0..Ec^N, then Es^1..Es^(N+1).
_Surface = NamedTuple("_Surface", [
    ("s_nodes", np.ndarray), ("s_weights", np.ndarray),  # Gauss-Legendre in s, (n_s,)
    ("phi_nodes", np.ndarray), ("dphi", float),  # trapezoid in phi, (n_phi,), and its step
    ("mesh", CartesianPoint),  # the surface at every (s, phi) node, of (n_s, n_phi) arrays
    ("root_r", np.ndarray),  # (x^2 + y^2)^(1/4) on the mesh
    ("phase", np.ndarray),  # rows (m, part): cos(m phi) dphi, -sin(m phi) dphi; (2M+2, n_phi)
    ("edge", np.ndarray),  # W_m(t0), (M+1, 2N+2)
    ("projection", np.ndarray),  # w_s E_m(s_nodes) / (8 pi W_m(t0)), (M+1, n_s, 2N+2)
])


@functools.lru_cache(maxsize=1)
def _surface(m: Modulus, t0: float, n_s: int, n_phi: int, m_max: int, n_max: int, /) -> _Surface:
    """The _Surface of one key, from one E read at the s-nodes and one W read
    at t0 of every order (`lame.order_set`)."""
    s_nodes, s_weights, phi_nodes, dphi = _surface_quadrature(m, n_s, n_phi)
    mesh = flatring_to_cartesian(FlatRingPoint(s=s_nodes[:, None], t=t0, phi=phi_nodes[None, :],
                                               modulus=m))
    m_phi = np.multiply.outer(np.arange(m_max + 1), phi_nodes)
    bases = order_set(m, m_max, n_max)
    (edge,) = bases.imag(t0)
    e = bases.real(s_nodes).transpose(1, 0, 2)  # (M+1, n_s, 2N+2)
    surface = _Surface(
        s_nodes=s_nodes, s_weights=s_weights, phi_nodes=phi_nodes, dphi=dphi, mesh=mesh,
        root_r=(mesh.x * mesh.x + mesh.y * mesh.y) ** 0.25,
        phase=np.stack([np.cos(m_phi), -np.sin(m_phi)], axis=1).reshape(-1, n_phi) * dphi,
        edge=edge,
        projection=np.ascontiguousarray(s_weights[:, None] * e / (8.0 * math.pi * edge[:, None, :])))
    for x in (v for v in (*surface, *mesh) if isinstance(v, np.ndarray)):
        x.flags.writeable = False  # the cache hands the surface to every caller
    return surface


def coefficients(dom: FlatRingDomain, data: BoundaryData, tr: Truncation) -> CoefficientTable:
    """Project boundary data onto the surface harmonics.

    c_m^n = (1 / (8 pi Ec(i t0))) integral of g(s, phi) Ec(s) e^{-i m phi};
    d_m^(n+1) likewise with Es and the Es(i t0) normalizer.  The phi
    quadrature of every order m >= 0 is one product with the cached cosine
    and sine rows, and the s quadrature one stacked product with the cached
    projection (`_surface`): C and S, and c_m = C + iS, c_-m = C - iS.
    """
    if data.f is not None and data.dom != dom:
        raise DomainError("boundary data from from_function belong to another domain")
    surface = _surface(dom.modulus, dom.t0, data.n_s, data.n_phi, tr.m_max, tr.n_max)
    gvals = (data.sample(surface.s_nodes, surface.phi_nodes) if data.f is None
             else surface.root_r * data.f(surface.mesh))  # g, as from_function's g maps it
    if not np.all(np.isfinite(gvals)):
        i, j = np.argwhere(~np.isfinite(gvals))[0]
        raise DomainError(f"non-finite boundary data g = {gvals[i, j]} at "
                          f"(s, phi) = ({surface.s_nodes[i]}, {surface.phi_nodes[j]})")

    # columns: Ec^0..Ec^N, then Es^1..Es^(N+1); rows: the orders m = 0..m_max
    parts = (surface.phase @ gvals.T).reshape(-1, 2, data.n_s) @ surface.projection
    cos_part, sin_part = parts[:, 0], parts[:, 1]
    cd = np.concatenate([(cos_part - 1j * sin_part)[:0:-1], cos_part + 1j * sin_part])
    power = (cos_part ** 2 + sin_part ** 2) * surface.edge ** 2  # |c_m W|^2 = |c_-m W|^2
    captured = 8.0 * math.pi * float(2.0 * power.sum() - power[0].sum())

    # Parseval check against the sampled norm of g
    norm_g2 = float(np.sum(surface.s_weights[:, None] * gvals ** 2) * surface.dphi)
    residual = abs(norm_g2 - captured) / norm_g2 if norm_g2 > 0.0 else 0.0
    if residual > 1e-6:
        warnings.warn(
            f"boundary data may be under-resolved: Parseval residual {residual:.3e}",
            QuadratureWarning,
        )
    return CoefficientTable(m_max=tr.m_max, n_max=tr.n_max, c=cd[:, :tr.n_max + 1],
                            d=cd[:, tr.n_max + 1:], parseval_residual=residual)


def solve_interior(dom: FlatRingDomain, coeffs: CoefficientTable,
                   q: CartesianPoint | Sequence[CartesianPoint]):
    """Evaluate the harmonic interior solution at a point of D1 (a float), at
    every point of a sequence of them, or at a CartesianPoint of arrays (an
    array).  Any point past the interior margin raises DomainError."""
    m = dom.modulus
    if isinstance(q, CartesianPoint):
        x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in q))
    else:
        x, y, z = np.array(list(q), dtype=float).reshape(-1, 3).T
    p = cartesian_to_flatring(CartesianPoint(x, y, z), m, Variant.V1)
    s, t, phi = (np.ravel(v) for v in (p.s, p.t, p.phi))
    if np.any(t > dom.t_inner):
        raise DomainError(
            f"point with t = {float(t.max())!r} is outside the interior margin t0 - "
            f"{_INTERIOR_MARGIN} K'"
        )
    cd = np.hstack([coeffs.c, coeffs.d])
    # Re(c_m e^{i m phi} + c_-m e^{-i m phi}) = Re((c_m + conj(c_-m)) e^{i m phi}), m >= 0
    folded = cd[coeffs.m_max:].copy()
    folded[1:] += np.conj(cd[:coeffs.m_max][::-1])
    orders = np.arange(coeffs.m_max + 1)
    bases = order_set(m, coeffs.m_max, coeffs.n_max)
    products = (bases.real(s) * bases.imag(t)).transpose(1, 0, 2)  # (orders, points, modes)
    # every order's sum at every point, then one phase product over the orders
    terms = (products @ folded[:, :, None])[..., 0]
    total = np.sum(terms * np.exp(1j * np.multiply.outer(orders, phi)), axis=0)
    u = (x * x + y * y) ** -0.25 * total.real.reshape(x.shape)
    return float(u) if u.ndim == 0 else u


def solve_point_source(dom: FlatRingDomain, r_star: CartesianPoint, tr: Truncation,
                       n_s: int = 96, n_phi: int = 64) -> CoefficientTable:
    """Coefficients for boundary data f = 1 / |. - r*| with r* outside D1,
    sampled on the cached surface mesh.  A source as far as the inversion
    refuses raises DomainError."""
    _check_far(math.hypot(*r_star), FAR_GUARD * dom.modulus.k)
    if dom.contains(r_star):
        raise DomainError("point source must lie outside the closed flat-ring")
    data = BoundaryData.from_function(dom, lambda q: _inverse_distance(q, r_star), n_s, n_phi)
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
    _check_far(math.hypot(*r_star), FAR_GUARD * dom.modulus.k)
    if dom.contains(r_star):
        raise DomainError("r* must lie outside the closed flat-ring")
    b, cols = basis_for([(idx.family, idx.zero_count)], idx.nu, dom.modulus)
    s_nodes, s_weights, phi_nodes, dphi = _surface_quadrature(dom.modulus, n_s, n_phi)
    q = dom.surface_point(s_nodes[:, None], phi_nodes[None, :])
    integrand = (np.sqrt(np.hypot(q.x, q.y)) * b.real(s_nodes, cols=cols)[:, 0]
                 * _inverse_distance(q, r_star))  # (n_s, n_phi)
    total = (s_weights @ integrand @ np.exp(1j * idx.m * phi_nodes)) * dphi
    return complex(total / (4.0 * math.pi * b.imag(dom.t0, cols=cols)[0, 0, 0]))

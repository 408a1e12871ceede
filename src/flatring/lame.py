"""Simply-periodic Lame functions of the first and second kind.

The eigenproblem E'' + (h - nu(nu+1) k^2 sn^2(s,k)) E = 0 on [0, K] splits
into four Sturm-Liouville families by boundary conditions.  Each family is
solved by a Fourier-Galerkin method in its natural orthonormal basis on
[0, K]: cos(j pi s/K), sin((j+1/2) pi s/K), cos((j+1/2) pi s/K) and
sin((j+1) pi s/K).  The cosine series of sn^2 (DLMF 22.11.13) is exact, so
the operator is a diagonal plus a Toeplitz plus a Hankel matrix with
closed-form entries, and one symmetric eigensolve gives every mode of a
family; by Sturm-Liouville ordering the n-th eigenvalue has n zeros in
(0, K).  The basis size starts at 64 and doubles until the trailing
coefficients of every requested mode fall below 1e-15 of the mode's
largest; that tail ratio is kept as the mode's certificate.  Because the
basis functions already carry the family's parity and (anti)periodicity,
E(s) at any real s is a plain trigonometric sum.

On the imaginary axis the equation becomes W'' = (h + nu(nu+1) k^2 sc^2(t,k')) W.
The potential is read from jacobi_imag at every panel node, which keeps
full precision up to the pole at K'.
Solutions grow roughly like exp(int sqrt(q)), so they are represented by
growth-limited piecewise Chebyshev panels, started from the exact E(0),
E'(0) of the Fourier sum.  Each panel is one spectral integration
(Greengard 1991) at its 33 Chebyshev-Lobatto nodes: the unknown W'' = qW
solves one 33 x 33 linear system per mode, all modes in one batched solve,
and the node values of W and W' follow from the integration matrices.
A panel set keeps the coefficients of W and of W' as two (panels, 33,
modes) arrays; panels are fitted in build order, so panel j runs from
edges[j] (x = -1) to edges[j+1] (x = +1) whichever way the set grows.  Reads
go through a stack of panel sets (one set for one basis): the W or W' half
of every panel of every set in one contiguous block, restacked only when a
set has grown, and a padded table of edges.  Each set then keeps that half
as a view of the block, so a panel is held once.  A read finds every
point's panel in every set at once, gathers those panels of the block once
and contracts them with one table of T_j(x): within 1e-14 of chebval.
Odd-parity values are stored as the real representative W(t) = E(it)/i with
W'(0) = E'(0); downstream products always pair matching representatives,
which reproduces the complex-convention results exactly.

The second-kind function belongs to the exponent nu+1 at the regular
singular point t = K' (tau = K' - t = 0).  Each basis reads it from the even
Frobenius series there out to its own hand-off tau0, at most 0.3 of the
series' radius, and from panels built on demand below K' - tau0.  F is
scaled so that F(it) dE(it)/dt - E(it) dF(it)/dt = 1 in real-representative
form, with W at K' - tau0 from a throwaway extension of the first-kind
panels, so a basis keeps only the panels that its readers reach.

LameBasis holds everything of one (nu, k) at a shell depth N: the modes
Ec^0..Ec^N, Es^1..Es^(N+1), their coefficients, certificates and panels.
basis(nu, m, N) serves them from one bounded LRU cache; a caller that needs
a few modes takes the basis of least depth that holds them (basis_for).
OrderSet reads bases of one modulus and depth together, on arrays of
points: E, W and F (per hand-off tau0) each by one contraction over all of
them, which sums each value over its terms in order, so a set's read equals
each basis's own bit for bit; a LameBasis reads through one set of itself.
order_set(m, m_max, N) serves the orders 0..m_max of a flat-ring series
from a small LRU cache of whole sets, which hold their bases, so an
expansion with more orders than the basis cache holds builds each basis
once.
"""

from __future__ import annotations

import copy
import enum
import functools
import math
import weakref

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .elliptic import Modulus, jacobi_imag, ns2_series_coeffs, sn2_fourier_coeffs
from .errors import BracketError, ConvergenceError, DomainError, PoleError

_GALERKIN_START = 64
_GALERKIN_CAP = 1024
_GALERKIN_TAIL = 1e-15  # trailing quarter of each mode's coefficients, relative
_TRIM = 1e-17           # coefficients below this share of a mode's largest are dropped
_PANEL_DEG = 32
_PANEL_LOG_GROWTH = 4.0
_IMAG_T_CAP = 1.0 - 2e-6    # fraction of K' where imaginary-axis values give up
_OVERFLOW = 1e250
_FROBENIUS_TERMS = 64  # the most that ns2_series_coeffs gives
_FROBENIUS_COND = 100.0  # the largest sum |b_p tau^(2p)| / |sum b_p tau^(2p)| at tau0


@functools.cache
def _lobatto(deg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At the Chebyshev-Lobatto points x_j = -cos(pi j/deg), ascending: the
    (deg+1, deg+1) matrices from values to the Chebyshev coefficients of
    their interpolant (the DCT-I), and from values to the values of the
    interpolant's first (S1) and second (S2 = S1 S1) integrals from x = -1.
    Every T_k(x_j) = cos(pi k (deg-j)/deg) is read from one table of
    cos(pi i/deg), so no matrix is inverted."""
    j = np.arange(deg + 1)
    table = np.cos(np.pi * np.arange(2 * deg) / deg)
    # T_k(x_j) for k <= deg + 1: the integrals reach degree deg + 1
    vander = table[np.multiply.outer(deg - j, np.arange(deg + 2)) % (2 * deg)]
    ends = np.where((j == 0) | (j == deg), 0.5, 1.0)
    fit = (2.0 / deg) * ends[:, None] * vander[:, :-1].T * ends
    s1 = vander @ _cheb.chebint(np.eye(deg + 1), lbnd=-1) @ fit
    matrices = fit, s1, s1 @ s1
    for x in matrices:
        x.flags.writeable = False  # shared by every caller
    return matrices


class LameFamily(enum.Enum):
    """The four boundary-condition families on [0, K]."""

    EC_EVEN = "Ec-even"  # E'(0) = E'(K) = 0, eigenvalues a^(2n)
    EC_ODD = "Ec-odd"    # E(0) = 0, E'(K) = 0, eigenvalues a^(2n+1)
    ES_ODD = "Es-odd"    # E'(0) = 0, E(K) = 0, eigenvalues b^(2n+1)
    ES_EVEN = "Es-even"  # E(0) = E(K) = 0,     eigenvalues b^(2n+2)

    @property
    def kind(self) -> str:
        """'c' for the Ec families (eigenvalues a), 's' for Es (eigenvalues b)."""
        return "c" if self in (LameFamily.EC_EVEN, LameFamily.EC_ODD) else "s"

    @property
    def even_at_zero(self) -> bool:
        return self in (LameFamily.EC_EVEN, LameFamily.ES_ODD)

    @property
    def basis_offset(self) -> float:
        """Offset a of the Galerkin basis cos or sin((j + a) pi s / K), j >= 0;
        cosines for the families even at zero, sines for the others."""
        if self is LameFamily.EC_EVEN:
            return 0.0
        return 1.0 if self is LameFamily.ES_EVEN else 0.5

    def superscript(self, n: int) -> int:
        """Paper-style superscript for zero count n in (0, K)."""
        if self is LameFamily.EC_EVEN:
            return 2 * n
        if self is LameFamily.EC_ODD or self is LameFamily.ES_ODD:
            return 2 * n + 1
        return 2 * n + 2


def family_of_superscript(kind: str, superscript: int) -> tuple[LameFamily, int]:
    """Map ('c'|'s', superscript) to (family, zero count)."""
    if kind == "c":
        if superscript < 0:
            raise DomainError("Ec superscript must be >= 0")
        if superscript % 2 == 0:
            return LameFamily.EC_EVEN, superscript // 2
        return LameFamily.EC_ODD, (superscript - 1) // 2
    if kind == "s":
        if superscript < 1:
            raise DomainError("Es superscript must be >= 1")
        if superscript % 2 == 1:
            return LameFamily.ES_ODD, (superscript - 1) // 2
        return LameFamily.ES_EVEN, (superscript - 2) // 2
    raise DomainError(f"kind must be 'c' or 's', got {kind!r}")


def eigenvalue_bracket(family: LameFamily, nu: float, n: int, m: Modulus) -> tuple[float, float]:
    """Two-sided eigenvalue bounds for the zero-count-n member of a family."""
    big_n = family.superscript(n)
    base = (math.pi * big_n / (2.0 * m.quarter_K)) ** 2
    shift = nu * (nu + 1.0) * m.k * m.k
    lo, hi = (base, base + shift) if nu >= 0.0 else (base + shift, base)
    return lo, hi


# --- imaginary-axis panels --------------------------------------------------


class _ImagPanels:
    """Growth-limited piecewise Chebyshev panels for a batch of solutions of
    W'' = (h + c sc^2(t,k')) W, one column per eigenvalue, built from t_start
    toward t_end as far as requests reach."""

    def __init__(self, m: Modulus, coef: float, h: np.ndarray, t0: float, state0: np.ndarray,
                 t_end: float):
        self.m = m
        self.coef = coef
        self.h = np.asarray(h, dtype=float)
        self._h_max = float(np.max(np.abs(self.h)))
        self.t_start = float(t0)
        self.t_end = float(t_end)
        self.t_built = float(t0)
        self.state = np.asarray(state0, dtype=float)  # (2M,) = [W..., W'...]
        self.edges = np.array([float(t0)])
        # the Chebyshev coefficients of W and of W', (panels, 33, modes) each:
        # a stacked read gathers whole panels of one half
        self.halves = [np.empty((0, _PANEL_DEG + 1, self.h.size)) for _ in range(2)]

    def _lambda(self, t: float) -> float:
        q = self._h_max + abs(self.coef) * jacobi_imag(abs(t), self.m).sn_im ** 2
        return math.sqrt(max(q, 1.0))

    def _build_panel(self, t_from: float, t_to: float) -> None:
        """Spectral integration at the panel's Chebyshev-Lobatto nodes: with
        half = (t_to - t_from)/2 and sigma = W'' = qW, W = W0 + W0'(t - t_from)
        + half^2 S2 sigma and W' = W0' + half S1 sigma, so sigma solves
        (I - half^2 q S2) sigma = q (W0 + W0'(t - t_from)), one solve per mode."""
        mlen = self.h.size
        fit, s1, s2 = _lobatto(_PANEL_DEG)
        half = 0.5 * (t_to - t_from)
        x = t_from + half * (1.0 - np.cos(np.pi * np.arange(_PANEL_DEG + 1) / _PANEL_DEG))
        q = self.h + self.coef * jacobi_imag(x, self.m).sn_im[:, None] ** 2  # (nodes, M)
        w0, dw0 = self.state[:mlen], self.state[mlen:]
        line = w0 + np.multiply.outer(x - t_from, dw0)
        system = np.eye(_PANEL_DEG + 1) - half * half * q.T[:, :, None] * s2
        sigma = np.linalg.solve(system, (q * line).T[:, :, None])[..., 0].T
        ys = np.concatenate([line + half * half * (s2 @ sigma), dw0 + half * (s1 @ sigma)], axis=1)
        coeffs = fit @ ys  # [W..., W'...]
        self.halves = [np.concatenate([part, coeffs[None, :, i * mlen:(i + 1) * mlen]])
                       for i, part in enumerate(self.halves)]
        self.edges = np.append(self.edges, t_to)
        self.state = ys[-1]
        self.t_built = t_to
        if float(np.max(np.abs(self.state))) > _OVERFLOW:
            raise PoleError("imaginary-axis solution overflow approaching K'")

    def extend_to(self, t_req: float) -> None:
        """Build at least one panel, and panels until they cover t_req.  Where a
        panel ends depends only on where it starts, so the panels, and every
        value read from them, do not depend on the order or reach of earlier
        requests.

        Every panel has lam * width <= _PANEL_LOG_GROWTH, with lam at its end
        farther from t = 0: going up, the width is
        at most _PANEL_LOG_GROWTH / lam(probe) and the panel ends at or before
        the probe; going down, it is at most _PANEL_LOG_GROWTH / lam(start),
        and lam is largest at the start."""
        cap = self.m.quarter_Kp * _IMAG_T_CAP
        if t_req < 0.0 or t_req > cap:
            raise PoleError(f"imaginary-axis argument t = {t_req!r} outside [0, {cap!r}]")
        if self.t_end > self.t_start:
            while t_req > self.t_built + 1e-15 or self.edges.size == 1:
                # size the panel by the potential at its far end, where it is
                # largest; no panel reaches past halfway to the end, so none
                # runs into the pole at K'
                probe = min(self.t_built + _PANEL_LOG_GROWTH / self._lambda(self.t_built),
                            0.5 * (self.t_built + self.t_end))
                self._build_panel(self.t_built, min(
                    self.t_built + _PANEL_LOG_GROWTH / self._lambda(probe), probe))
        else:
            while t_req < self.t_built - 1e-15 or self.edges.size == 1:
                self._build_panel(self.t_built, max(
                    self.t_built - _PANEL_LOG_GROWTH / self._lambda(self.t_built), self.t_end))

    def values(self, t, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """Columns cols of W (or W') at an array of t, growing the set to
        reach them: (len(t), len(cols)); the one-set case of `_PanelStack`."""
        return _PanelStack([self]).values(np.asarray(t, dtype=float), derivative, cols)[:, 0]


class _PanelStack:
    """Panel sets of one width and direction read together, at the same
    points: (points x sets x columns).  The panels of every set are stacked,
    one contiguous (panels, 33, modes) block per half (W or W') that reads
    use, beside a padded table of each set's edges, and restacked only when
    some set has grown.  Once a half is stacked, each set keeps its panels of
    that half as a view of the block, so they are held once.  A read finds
    every point's panel in every set by one comparison with the table,
    gathers those panels of the block once and contracts them with one table
    of T_j(x).  `np.einsum` sums each value over j in order, so it does not
    depend on the sets or columns read beside it, and it agrees with
    chebval to <= 1e-14 of each column's largest |value|."""

    def __init__(self, sets: list[_ImagPanels]):
        self.sets = sets
        self.sign = 1.0 if sets[0].t_end > sets[0].t_start else -1.0
        self._counts = None
        self._restack()

    def _restack(self) -> None:
        counts = [p.edges.size - 1 for p in self.sets]
        if counts == self._counts:
            return
        self._counts, most = counts, max(counts)
        # each set's edges in build order, and its inner edges times sign, so
        # that they ascend; a set with fewer panels is padded past its end
        self._edges = np.zeros((len(counts), most + 1))
        self._inner = np.full((len(counts), max(most - 1, 0)), np.inf)
        for i, p in enumerate(self.sets):
            self._edges[i, :p.edges.size] = p.edges
            self._inner[i, :max(p.edges.size - 2, 0)] = self.sign * p.edges[1:-1]
        self._reach = min(self.sign * p.t_built for p in self.sets)  # all cover sign t <= reach
        self._at = np.arange(len(counts)) * (most + 1)  # each set's row of the edge table
        self._first = np.cumsum([0] + counts[:-1])  # each set's first panel in the block
        self._blocks = {}

    def _block(self, derivative: bool) -> np.ndarray:
        """The W (or W') half of every panel of every set, (panels, 33, modes).
        One set's half is read where the set keeps it, never held here: a
        stack of several sets may re-point it to a view of their block."""
        if len(self.sets) == 1:
            return self.sets[0].halves[derivative]
        if derivative not in self._blocks:
            block = np.concatenate([p.halves[derivative] for p in self.sets])
            for p, first, count in zip(self.sets, self._first, self._counts):
                p.halves[derivative] = block[first:first + count]
            self._blocks[derivative] = block
        return self._blocks[derivative]

    def values(self, t: np.ndarray, derivative: bool, cols) -> np.ndarray:
        """Columns cols of W (or W') of every set at the points t, each set
        first grown to reach every t: (len(t), sets, columns)."""
        if not t.size:
            return np.empty((0, len(self.sets), self.sets[0].h[cols].size))
        key = self.sign * t
        far = float(key.max())
        if far > self._reach or not all(self._counts):
            for panels in self.sets:
                panels.extend_to(self.sign * far)
        self._restack()
        # each point's panel in each set, an inner edge in the panel that starts
        # there; then its place x on that panel, clipped to [-1, 1] where
        # rounding puts it past an edge, and T_j(x) = cos(j arccos x)
        j = (self._inner <= key[:, None, None]).sum(axis=2)
        lo, hi = self._edges.take(self._at + j), self._edges.take(self._at + j + 1)
        theta = np.arccos(np.clip((2.0 * t[:, None] - (lo + hi)) / (hi - lo), -1.0, 1.0))
        table = np.cos(np.multiply.outer(theta, np.arange(_PANEL_DEG + 1.0)))
        # every point's panel in every set, (points, sets, 33, modes), summed
        c = self._block(derivative)[self._first + j]
        return np.einsum("psj,psjm->psm", table, c)[..., cols]


# --- eigensolver -------------------------------------------------------------


def _galerkin_operator(family: LameFamily, nu: float, m: Modulus, size: int):
    """-d^2/ds^2 + nu(nu+1) k^2 sn^2 in the family's orthonormal basis on [0, K].

    With f_j = (j + a) pi/K and sn^2 = sum a_n cos(n pi s/K), the integral of
    two basis functions against cos(n pi s/K) is nonzero only for
    n = |i - j| (Toeplitz) and n = i + j + 2a (Hankel, + for cosines and
    - for sines).  Returns the matrix, the frequencies f_j and the factors
    that make cos(f_j s) or sin(f_j s) orthonormal on [0, K].
    """
    a = family.basis_offset
    coef = nu * (nu + 1.0) * m.k * m.k
    sn2 = sn2_fourier_coeffs(m, 2 * size + 1)
    cosines = sn2.copy()
    cosines[0] = 0.0  # the constant term enters the diagonal once, below
    j = np.arange(size)
    hankel = 1.0 if family.even_at_zero else -1.0
    op = 0.5 * coef * (cosines[np.abs(j[:, None] - j[None, :])]
                       + hankel * cosines[j[:, None] + j[None, :] + int(2 * a)])
    norm = np.full(size, math.sqrt(2.0 / m.quarter_K))
    if a == 0.0:
        # the constant basis function is 1/sqrt(K), not sqrt(2/K)
        norm[0] = math.sqrt(1.0 / m.quarter_K)
        op[0, :] *= math.sqrt(0.5)
        op[:, 0] *= math.sqrt(0.5)
    freq = (j + a) * (math.pi / m.quarter_K)
    op[j, j] += freq * freq + coef * sn2[0]
    return op, freq, norm


def _galerkin_start(count: int) -> int:
    """The first Galerkin basis size for count modes: the least 64 * 2^i >= 2 count."""
    return max(_GALERKIN_START, 1 << (2 * count - 1).bit_length())


def check_shell_depth(n_max: int) -> None:
    """Refuse a depth past the Galerkin cap, with no spec built: Ec-even, the
    family that LameBasis solves first, holds the most modes."""
    count = n_max // 2 + 1
    if _galerkin_start(count) > _GALERKIN_CAP:
        raise DomainError(f"{count} modes of {LameFamily.EC_EVEN.value} need a Galerkin basis "
                          f"of {_galerkin_start(count)} functions, over the cap of {_GALERKIN_CAP}")


def _galerkin_modes(family: LameFamily, nu: float, m: Modulus, count: int):
    """Lowest count eigenvalues of one family, their normalized coefficient
    columns on cos(f_j s) or sin(f_j s), the frequencies f_j and each mode's
    tail; within the cap, which `check_shell_depth` has checked."""
    size = _galerkin_start(count)
    while True:
        op, freq, norm = _galerkin_operator(family, nu, m, size)
        h, vecs = np.linalg.eigh(op)
        vecs = vecs[:, :count]
        tail = np.max(np.abs(vecs[-(size // 4):]), axis=0) / np.max(np.abs(vecs), axis=0)
        if np.all(tail <= _GALERKIN_TAIL):
            return h[:count], norm[:, None] * vecs, freq, tail
        if size >= _GALERKIN_CAP:
            i = int(np.argmax(tail))
            raise ConvergenceError(
                f"{family} nu={nu} n={i}: Galerkin tail {float(tail[i])!r} "
                f"at basis size {size}", attained=float(tail[i]))
        size *= 2


# --- second kind --------------------------------------------------------------


def _frobenius_coeffs(nu: float, h, m: Modulus, count: int) -> np.ndarray:
    """Coefficients b_p of the exponent-(nu+1) Frobenius series in tau^(2p),
    of shape (count,) + shape(h): one column per eigenvalue h."""
    h = np.asarray(h, dtype=float)
    nn1 = nu * (nu + 1.0)
    rev = (nn1 * ns2_series_coeffs(m, count))[::-1]
    shift = h - nn1  # each eigenvalue adds h - nu(nu+1) to the tau^2 term
    b = np.zeros((count,) + h.shape)
    b[0] = 1.0
    for p in range(1, count):
        j = 2.0 * p
        acc = rev[count - 1 - p:count - 1] @ b[:p] + shift * b[p - 1]
        b[p] = acc / (j * (j + 2.0 * nu + 1.0))
    return b


def _frobenius_stack(nus, coeffs: list[np.ndarray], derivative: bool) -> np.ndarray:
    """The coefficients of F = tau^(nu+1) sum_p b_p tau^(2p), or of dF/dtau =
    tau^nu sum_p (nu+1+2p) b_p tau^(2p), of each nu in nus with its b in
    coeffs (terms x columns, one width), stacked under zero rows to one
    length: (terms, len(nus), columns)."""
    stack = np.zeros((max(map(len, coeffs)), len(coeffs), coeffs[0].shape[1]))
    for i, b in enumerate(coeffs):
        stack[:len(b), i] = b
    if derivative:
        stack *= (np.add.outer(2.0 * np.arange(len(stack)), nus) + 1.0)[:, :, None]
    return stack


def _powers(tau: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """tau ** e of every e in exps, side by side: (len(tau), len(exps)).  For
    a lone exponent 1/2 or 2 numpy takes sqrt or square, which can round
    apart from its power of an array of exponents, so those columns take
    them too: each equals its basis's power alone."""
    out = np.power.outer(tau, exps)
    for e, lone in ((0.5, np.sqrt), (2.0, np.square)):
        hit = exps == e
        if hit.any():
            out[:, hit] = lone(tau)[:, None]
    return out


def _frobenius_series(stack: np.ndarray, exps: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sum_p stack[p] tau^(2p) times tau^exps[i] in the block of stack[:, i],
    at the points tau: (len(tau),) + stack.shape[1:], with stack from
    `_frobenius_stack` and exps its nu + 1 (F) or nu (dF/dtau): one
    contraction with the powers tau^(2p), within 1e-14 of Horner's rule."""
    acc = np.einsum("pk,kbn->pbn", np.power.outer(tau, 2.0 * np.arange(len(stack))), stack)
    acc *= _powers(tau, exps)[:, :, None]
    return acc


# --- the basis of one (nu, k) ---------------------------------------------------


def shell_specs(n_max: int) -> list[tuple[LameFamily, int]]:
    """(family, zero count) of Ec^0 .. Ec^n_max, then Es^1 .. Es^(n_max+1):
    the modes of one azimuthal order in an (m_max, n_max) series, where
    Ec^n and Es^(n+1) share the shell n."""
    return ([family_of_superscript("c", n) for n in range(n_max + 1)]
            + [family_of_superscript("s", n + 1) for n in range(n_max + 1)])


def shell_depth(family: LameFamily, n: int) -> int:
    """Least shell depth whose layout (see shell_specs) holds the
    zero-count-n mode of family."""
    if n < 0:
        raise DomainError("zero counts must be non-negative")
    sup = family.superscript(n)
    return sup if family.kind == "c" else sup - 1


class LameBasis:
    """The simply-periodic Lame functions of one (nu, k) at shell depth
    n_max: columns Ec^0 .. Ec^n_max, then Es^1 .. Es^(n_max+1), as listed
    by shell_specs.

    real(s), imag(t) and second(t) return (points x modes) arrays, or the
    columns cols only: the one-basis case of OrderSet's reads.  E(s) is one
    contraction of cos and sin over the frequencies j pi/(2K), which hold
    the Galerkin basis of every family, with the coefficients.  W(t) reads
    one first-kind panel set; F(t) reads the Frobenius series within tau0 of
    K' and one continuation panel set below it.  Both panel sets grow toward
    the t requested, and the second kind is built on the first second() call.
    Per mode the basis keeps the eigenvalue h, its bracket, the Galerkin
    tail and the boundary data (E(0), E'(0)).
    """

    def __init__(self, nu: float, m: Modulus, n_max: int):
        if not (math.isfinite(nu) and nu >= -0.5):
            raise DomainError(f"nu must be finite and >= -1/2, got {nu!r}")
        if n_max < 0:
            raise DomainError(f"shell depth must be >= 0, got {n_max!r}")
        check_shell_depth(n_max)
        self.nu, self.modulus, self.n_max = float(nu), m, int(n_max)
        self.specs = shell_specs(self.n_max)
        counts = {fam: n + 1 for fam, n in self.specs}  # zero counts ascend within a family
        solved = {fam: _galerkin_modes(fam, self.nu, m, count) for fam, count in counts.items()}

        width = len(self.specs)
        self.h = np.empty(width)
        self.bracket = np.empty((width, 2))
        self.tail = np.empty(width)
        self.boundary_data = np.zeros((width, 2))  # (E(0), E'(0)) per mode
        self._even = np.array([fam.even_at_zero for fam, _ in self.specs])
        placed = []
        for j, (fam, n) in enumerate(self.specs):
            h_all, vecs, freq, tail = solved[fam]
            lo, hi = eigenvalue_bracket(fam, self.nu, n, m)
            pad = 1e-12 * (1.0 + abs(lo) + abs(hi))
            if not lo - pad <= h_all[n] <= hi + pad:
                raise BracketError(f"{fam} nu={nu} n={n}: eigenvalue {float(h_all[n])!r} "
                                   f"outside its bracket", lo=lo, hi=hi)
            coef = vecs[:, n]
            # E(0) (cosines) or E'(0) (sines) has the sign of E(K) (Ec) or of
            # -E'(K) (Es) times (-1)^n, so this orients Ec(K) > 0 and Es'(K) < 0
            # from the well at s = 0, where the mode is never small
            at_zero = float(coef.sum()) if fam.even_at_zero else float(coef @ freq)
            if at_zero * (-1.0) ** n < 0.0:
                coef, at_zero = -coef, -at_zero
            keep = 1 + int(np.flatnonzero(np.abs(coef) > _TRIM * np.max(np.abs(coef)))[-1])
            self.h[j], self.bracket[j], self.tail[j] = h_all[n], (lo, hi), tail[n]
            self.boundary_data[j, int(not fam.even_at_zero)] = at_zero
            # the family's frequency (i + a) pi/K is row 2i + 2a of the grid j pi/(2K)
            placed.append((2 * np.arange(keep) + int(2 * fam.basis_offset), coef[:keep]))
        rows = 1 + max(r[-1] for r, _ in placed)
        self._freq = 0.5 * np.arange(rows) * (math.pi / m.quarter_K)
        self._coef = np.zeros((2, rows, width))  # cosine, then sine coefficients
        for j, (r, c) in enumerate(placed):
            self._coef[int(not self._even[j]), r, j] = c
        for x in (self.h, self.bracket, self.tail, self.boundary_data, self._even,
                  self._freq, self._coef):
            x.flags.writeable = False  # the cache hands the basis to every caller
        self._first = _ImagPanels(m, self.nu * (self.nu + 1.0) * m.k * m.k, self.h, 0.0,
                                  self.boundary_data.T.ravel(), m.quarter_Kp * _IMAG_T_CAP)

    @property
    def sup_bound(self) -> float:
        """Uniform bound of every mode: E(s)^2 <= 2/K + 2 k |nu|^(1/2) (nu+1)^(1/2)."""
        return 2.0 / self.modulus.quarter_K + 2.0 * self.modulus.k * math.sqrt(
            abs(self.nu) * (self.nu + 1.0))

    @property
    def indicial_degenerate(self) -> bool:
        """True at nu = -1/2, where the exponents at K' coincide."""
        return abs(2.0 * self.nu + 1.0) < 1e-12

    def column(self, family: LameFamily, n: int) -> int:
        """Column of the zero-count-n mode of family."""
        if shell_depth(family, n) > self.n_max:
            raise DomainError(f"{family} n={n} lies past shell depth {self.n_max}")
        sup = family.superscript(n)
        return sup if family.kind == "c" else self.n_max + sup

    def real(self, s, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """E(s) (or E'(s)) at real s; the basis carries parity and periodicity.
        The one-basis case of `OrderSet.real`."""
        return self._alone.real(s, derivative, cols)[:, 0]

    def imag(self, t, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """Real representative W(t) of E(it) (or its t-derivative).

        Even-parity families store W = E(it); odd-parity families store
        W = E(it)/i, so W(0) = 0 and W'(0) = E'(0).  Extended to t < 0 by
        parity; t = 0 gives the exact boundary data.  The one-basis case of
        `OrderSet.imag`.
        """
        return self._alone.imag(t, derivative, cols)[:, 0]

    def second(self, t, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """Second-kind F(t) (or dF/dt) for 0 < t < K', with unit Wronskian
        F W' - W F' = 1: the Frobenius series within tau0 of K', the
        continuation panels below it.  The one-basis case of `OrderSet.second`."""
        return self._alone.second(t, derivative, cols)[:, 0]

    @functools.cached_property
    def _alone(self) -> OrderSet:
        """The one-basis OrderSet that real, imag and second read through,
        built on the first read and kept, with its stacked panels and
        Frobenius block.  It holds the basis by a weak proxy, so the two form
        no reference cycle: a basis is freed as soon as nothing else holds it."""
        return OrderSet([weakref.proxy(self)])

    @functools.cached_property
    def _second_kind(self) -> tuple[np.ndarray, float, _ImagPanels]:
        """The second kind, built on first use: the exponent-(nu+1) Frobenius
        coefficients at K' scaled to unit Wronskian (terms x modes), the
        hand-off distance tau0, and the continuation panels below it.  tau0 is
        the largest 0.3 R (1 - j/64), R = 2 min(K, K') the series' radius (so
        tau0 < 0.6 K'), where in every column the last of 64 terms b_p tau^(2p)
        is below _TRIM of the sum of their magnitudes, and that sum is at most
        _FROBENIUS_COND times the magnitude of theirs; only the terms that
        reach _TRIM there are kept."""
        m, nu = self.modulus, self.nu
        kp = m.quarter_Kp
        b = _frobenius_coeffs(nu, self.h, m, _FROBENIUS_TERMS)
        for tau0 in 0.6 * min(m.quarter_K, kp) * (1.0 - np.arange(64) / 64):
            terms = b * (tau0 * tau0) ** np.arange(_FROBENIUS_TERMS)[:, None]
            size = np.abs(terms).sum(axis=0)
            big = np.any(np.abs(terms) > _TRIM * size, axis=1)
            count = _FROBENIUS_TERMS - int(np.argmax(big[::-1]))
            if count < _FROBENIUS_TERMS and np.all(
                    np.isfinite(size) & (size <= _FROBENIUS_COND * np.abs(terms.sum(axis=0)))):
                break
        else:
            raise ConvergenceError(f"Frobenius series not converged or ill-conditioned "
                                   f"within {tau0!r} of K'", attained=float(tau0))
        tau0, b = float(tau0), b[:count]
        f_tau, df_tau = (_frobenius_series(_frobenius_stack([nu], [b], d), np.array([nu + 1.0 - d]),
                                           np.array([tau0]))[0, 0] for d in (False, True))
        # unit Wronskian F W' - W dF/dt, with dF/dt = -dF/dtau; W(K' - tau0)
        # comes from a throwaway extension of the first-kind panels, so the
        # basis keeps only the panels that its readers reach
        t1 = kp - tau0
        reach = copy.copy(self._first)  # each build rebinds what it changes
        w1, dw1 = (reach.values(np.array([t1]), derivative)[0] for derivative in (False, True))
        scale = 1.0 / (f_tau * dw1 + w1 * df_tau)
        cont = _ImagPanels(m, self._first.coef, self.h, t1,
                           np.concatenate([scale * f_tau, -scale * df_tau]), 0.0)
        frobenius = scale * b
        frobenius.flags.writeable = False
        return frobenius, tau0, cont


class OrderSet:
    """Lame bases of one modulus and shell depth, checked once, here, read
    together: the orders 0..m_max of a flat-ring series as `order_set`
    serves them, or the one basis of LameBasis.real, .imag and .second.
    Reads return (points x bases x modes) arrays, each basis's block bit for
    bit its own read.  The set holds its bases and keeps their read arrays
    stacked: the first-kind panels in one `_PanelStack`, and per hand-off
    tau0 (`_Handoff`) the Frobenius block and the continuation panels.
    """

    def __init__(self, bases: list[LameBasis]):
        self.bases = tuple(bases)
        self.modulus, depth = self.bases[0].modulus, self.bases[0].n_max
        if any(b.modulus != self.modulus or b.n_max != depth for b in self.bases):
            raise DomainError("an OrderSet reads bases of one modulus and one shell depth")
        self._freq = max((b._freq for b in self.bases), key=len)

    @functools.cached_property
    def _first(self) -> _PanelStack:
        """The stacked read of the first-kind panels, built on the first W read."""
        return _PanelStack([b._first for b in self.bases])

    def _empty(self, points: int, cols) -> np.ndarray:
        return np.empty((points, len(self.bases), self.bases[0].h[cols].size))

    @functools.cached_property
    def _coef(self) -> np.ndarray:
        """The cosine and sine coefficients of several bases on the longest
        grid, (2, rows, bases x modes); each basis keeps its own as a view."""
        width = self.bases[0].h.size
        block = np.zeros((2, self._freq.size, len(self.bases) * width))
        for i, b in enumerate(self.bases):
            block[:, :b._freq.size, i * width:(i + 1) * width] = b._coef
        block.flags.writeable = False
        for i, b in enumerate(self.bases):
            b._coef = block[:, :b._freq.size, i * width:(i + 1) * width]
        return block

    def real(self, s, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """E(s) (or E'(s)) of every basis at real s.  Every basis sums over a
        prefix of the frequency grid j pi/(2K), so one table [cos | sin] (or
        [-f sin | f cos] for E') on the longest grid is contracted with the
        coefficients, each value summed over the cosine, then the sine rows
        in order (see `_PanelStack`); it agrees with the two matrix products
        of each basis to <= 1e-14 of each column's largest |value|."""
        x = np.multiply.outer(np.asarray(s, dtype=float).ravel(), self._freq)
        cos_x, sin_x = np.cos(x), np.sin(x)
        table = (np.stack([-self._freq * sin_x, self._freq * cos_x], axis=1) if derivative
                 else np.stack([cos_x, sin_x], axis=1))
        e = np.einsum("ptk,tkn->pn", table,
                      self.bases[0]._coef if len(self.bases) == 1 else self._coef)
        return e.reshape(len(x), len(self.bases), self.bases[0].h.size)[..., cols]

    def imag(self, t, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """W(t) (or W'(t)) of every basis, as LameBasis.imag gives it."""
        t = np.asarray(t, dtype=float).ravel()
        at = np.abs(t)
        if not np.all(np.isfinite(at)):
            raise DomainError("imaginary-axis evaluation requires finite t")
        fixed = t == 0.0
        if fixed.any():
            out = self._empty(t.size, cols)
            out[~fixed] = self._first.values(at[~fixed], derivative, cols)
            out[fixed] = np.stack([b.boundary_data[cols, int(derivative)] for b in self.bases])
        else:
            out = self._first.values(at, derivative, cols)
        below = t < 0.0
        if below.any():
            # W has the parity of its family, W' the opposite one
            even = np.stack([b._even[cols] for b in self.bases])
            out[below] *= np.where(even == derivative, -1.0, 1.0)
        return out

    def second(self, t, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """F(t) (or dF/dt) of every basis for 0 < t < K', as LameBasis.second
        gives it."""
        t = np.asarray(t, dtype=float).ravel()
        kp = self.modulus.quarter_Kp
        if not np.all((0.0 < t) & (t < kp)):
            raise DomainError(f"second-kind evaluation requires 0 < t < K', got {t!r}")
        tau = kp - t
        if len(self._handoffs) == 1:
            return self._handoffs[0].values(t, tau, derivative, cols)
        out = self._empty(t.size, cols)
        for group in self._handoffs:
            out[:, group.members] = group.values(t, tau, derivative, cols)
        return out

    @functools.cached_property
    def _handoffs(self) -> list[_Handoff]:
        """The bases grouped by hand-off tau0, each second kind built here."""
        tau0 = np.array([b._second_kind[1] for b in self.bases])
        return [_Handoff([self.bases[i] for i in members], members)
                for members in (np.flatnonzero(tau0 == x) for x in dict.fromkeys(tau0.tolist()))]


class _Handoff:
    """The bases of an OrderSet that hand off at one tau0, members its
    indices of them: the Frobenius block of their series within tau0 of K',
    per half read, and the stacked read of their continuation panels below
    K' - tau0."""

    def __init__(self, bases: list[LameBasis], members: np.ndarray):
        self._coeffs, tau0, self._conts = zip(*(b._second_kind for b in bases))
        self.members, self.tau0 = members, tau0[0]
        self._nus = np.array([b.nu for b in bases])
        self._stacks = {}

    @functools.cached_property
    def _panels(self) -> _PanelStack:
        """The stacked read of the continuation panels, built on the first
        read below K' - tau0."""
        return _PanelStack(self._conts)

    def _series(self, tau: np.ndarray, derivative: bool, cols) -> np.ndarray:
        if derivative not in self._stacks:
            self._stacks[derivative] = _frobenius_stack(self._nus, self._coeffs, derivative)
        f = _frobenius_series(self._stacks[derivative], self._nus + 1.0 - derivative, tau)[..., cols]
        return -f if derivative else f  # dF/dt = -dF/dtau

    def values(self, t: np.ndarray, tau: np.ndarray, derivative: bool, cols) -> np.ndarray:
        """F (or dF/dt) of the group's bases at t, tau = K' - t: the series
        where tau <= tau0, the panels elsewhere; (points, members, columns)."""
        near = tau <= self.tau0
        if near.all():
            return self._series(tau, derivative, cols)
        out = np.empty((t.size, len(self.members), self._coeffs[0][0, cols].size))
        out[~near] = self._panels.values(t[~near], derivative, cols)
        if near.any():
            out[near] = self._series(tau[near], derivative, cols)
        return out


_BASIS_CACHE_SIZE = 32
"""Bases kept by `basis`.  An expansion reads its orders through a cached
OrderSet, which holds its own bases, so this cache need not hold a whole
expansion: it serves the single-mode callers, one small basis per mode, and
each basis of a set while the set is built.  At k = 0.5 a depth-20 basis
read alone takes 0.17 MB with the panels that reads at t <= 0.3K' and
t* >= 0.6K' build (F there is read from its series alone), and at most
0.6 MB with both panel sets grown to 0.9K' and 0.05K' (its own set's
Frobenius block, 0.02 MB, included), so the bound caps what this cache
holds at about 19 MB."""


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def basis(nu: float, m: Modulus, n_max: int, /) -> LameBasis:
    """The LameBasis of (nu, k) at shell depth n_max, from a bounded LRU
    cache: one key gives one object until it is evicted, and a rebuild is
    bit-identical."""
    return LameBasis(nu, m, n_max)


def basis_for(specs: list[tuple[LameFamily, int]], nu: float,
              m: Modulus) -> tuple[LameBasis, list[int]]:
    """The cached basis of least depth that holds every (family, zero count)
    in specs, and their columns in spec order."""
    b = basis(nu, m, max((shell_depth(fam, n) for fam, n in specs), default=0))
    return b, [b.column(fam, n) for fam, n in specs]


_SET_CACHE_SIZE = 2
"""Sets kept by `order_set`: one per (modulus, m_max, n_max).  Each bench
workload reads one set; two keep a run that reads two truncations in turn
warm.  A set holds its bases and little else: once it has stacked their
coefficients or a half of their panels, each basis keeps its part as a view
of the set's block, so it is held once (twice only for a basis in two sets,
one depth and two m_max).  At k = 0.5 a (20, 20) set takes at most 3.6 MB
after reads at t <= 0.3K' and t* >= 0.6K', and 11.5 MB with every panel set
grown to 0.9K' and 0.05K' and both halves read; a (40, 40) set, the largest
that the tests read, takes 22 MB and 76 MB.  So the cache holds at most
23 MB of (20, 20) sets, and 152 MB of (40, 40) sets."""


@functools.lru_cache(maxsize=_SET_CACHE_SIZE)
def order_set(m: Modulus, m_max: int, n_max: int, /) -> OrderSet:
    """The OrderSet of the orders 0..m_max (nu = order - 1/2) at shell depth
    n_max, from a small LRU cache of whole sets: its bases come from `basis`
    once, when the set is built, so an expansion with more orders than the
    basis cache holds stays warm."""
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max!r}")
    return OrderSet([basis(order - 0.5, m, n_max) for order in range(m_max + 1)])


def clear_caches() -> None:
    """Empty the set cache and the basis cache."""
    order_set.cache_clear()
    basis.cache_clear()

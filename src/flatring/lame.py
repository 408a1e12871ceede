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
(Greengard 1991) at its 25 Chebyshev-Lobatto nodes: the unknown W'' = qW
solves one 25 x 25 linear system per column, and the node values of W and
W' follow from the integration matrices.  From index 24 on, the
coefficients of degree-32 panels were at the rounding level, so degree 24
resolves them.  A panel set keeps the coefficients of W and W' of each
panel, (panels, 2, 25, columns), fitted in build order, so panel j runs
from edges[j] (x = -1) to edges[j+1] (x = +1) whichever way the set grows.
A read finds every point's panel by one searchsorted over the edges and
takes one product of the rows T_j(x) of a panel's points with the panel,
written into the answer: within 1e-14 of chebval.
Odd-parity values are stored as the real representative W(t) = E(it)/i with
W'(0) = E'(0); downstream products always pair matching representatives,
which reproduces the complex-convention results exactly.

The second-kind function belongs to the exponent nu+1 at the regular
singular point t = K' (tau = K' - t = 0).  It is read from the even
Frobenius series there out to a hand-off tau0, at most 0.3 of the series'
radius, and from panels built on demand below K' - tau0.  F is scaled so
that F(it) dE(it)/dt - E(it) dF(it)/dt = 1 in real-representative form,
with W at K' - tau0 read from the first-kind panels: the second kind grows
them to the hand-off once, and they keep what they built.

OrderSet, the one Lame object, holds the modes Ec^0..Ec^N, Es^1..Es^(N+1)
of some orders nu of one modulus at a shell depth N, with their eigenvalues,
coefficients and certificates, one coefficient block, one panel set of each
kind over every column, sized by its widest, and one hand-off tau0, the
least of the one-nu sets' own: E, W and F are read by BLAS products over
all of them, and agree with each one-nu set's to 1e-14 (E) and 1e-13 (W, F)
of each column's largest |value|.  basis(nu, m, N) serves one-nu sets to
single-mode callers from a bounded LRU cache (basis_for: the least depth
that holds some modes), and order_set(m, m_max, N) the orders 0..m_max of
a flat-ring series from a small one, so an expansion solves each order once.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .elliptic import Modulus, jacobi_imag, ns2_series_coeffs, sn2_fourier_coeffs
from .errors import BracketError, ConvergenceError, DomainError, PoleError

_GALERKIN_START = 64
_GALERKIN_CAP = 1024
_GALERKIN_TAIL = 1e-15  # trailing quarter of each mode's coefficients, relative
_TRIM = 1e-17           # coefficients below this share of a mode's largest are dropped
_PANEL_DEG = 24
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
    W'' = (h + c sc^2(t,k')) W, one column per pair (h, c), built from t0
    toward t_end as far as requests reach.  The coefficients of W and W' of
    panel j are coeffs[j], (2, degree + 1, columns): it runs from edges[j]
    (x = -1) to edges[j+1] (x = +1) whichever way the set grows.  A build
    solves the systems of width columns (one nu) at a time, and a read
    writes one product per panel into its answer, which bounds the memory
    each takes beside what it keeps or returns."""

    def __init__(self, m: Modulus, h: np.ndarray, c: np.ndarray, t0: float,
                 state0: np.ndarray, t_end: float, width: int):
        self.m, self.h, self.c, self.width = m, h, c, width
        self.t_built = float(t0)
        self.t_end = float(t_end)
        self.sign = 1.0 if t_end > t0 else -1.0
        self.state = state0  # (2, columns): W and W' at t_built
        self.edges = np.array([float(t0)])
        self.coeffs = np.empty((0, 2, _PANEL_DEG + 1, h.size))
        self._new = []  # panels built since the last read, joined to coeffs by the next

    def _lambda(self, t: float) -> float:
        """The largest growth rate sqrt(|h| + |c| sc^2) over the columns at t, at least 1."""
        sc2 = jacobi_imag(abs(t), self.m).sn_im ** 2
        return math.sqrt(max(float(np.max(np.abs(self.h) + np.abs(self.c) * sc2)), 1.0))

    def _build_panel(self, t_to: float) -> None:
        """Spectral integration at the Chebyshev-Lobatto nodes of the panel
        from t_built to t_to: with half = (t_to - t_built)/2 and sigma = W'' =
        qW, W = W0 + W0'(t - t_built) + half^2 S2 sigma and W' = W0' + half S1
        sigma, so sigma solves (I - half^2 q S2) sigma = q (W0 + W0'(t - t_built)),
        one solve per column."""
        fit, s1, s2 = _lobatto(_PANEL_DEG)
        t_from, half = self.t_built, 0.5 * (t_to - self.t_built)
        x = t_from + half * (1.0 - np.cos(np.pi * np.arange(_PANEL_DEG + 1) / _PANEL_DEG))
        q = self.h + self.c * jacobi_imag(x, self.m).sn_im[:, None] ** 2  # (nodes, columns)
        w0, dw0 = self.state
        line = w0 + np.multiply.outer(x - t_from, dw0)
        rhs, sigma = q * line, np.empty_like(line)
        for i in range(0, self.h.size, self.width):
            part = slice(i, i + self.width)
            system = np.eye(_PANEL_DEG + 1) - half * half * q[:, part].T[:, :, None] * s2
            sigma[:, part] = np.linalg.solve(system, rhs[:, part].T[:, :, None])[..., 0].T
        ys = np.stack([line + half * half * (s2 @ sigma), dw0 + half * (s1 @ sigma)])
        self._new.append(fit @ ys)
        self.edges = np.append(self.edges, t_to)
        self.state = ys[:, -1].copy()
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
        while self.sign * (t_req - self.t_built) > 1e-15 or self.edges.size == 1:
            t = self.t_built
            if self.sign > 0.0:
                # size the panel by the potential at its far end, where it is
                # largest; no panel reaches past halfway to the end, so none
                # runs into the pole at K'
                probe = min(t + _PANEL_LOG_GROWTH / self._lambda(t), 0.5 * (t + self.t_end))
                self._build_panel(min(t + _PANEL_LOG_GROWTH / self._lambda(probe), probe))
            else:
                self._build_panel(max(t - _PANEL_LOG_GROWTH / self._lambda(t), self.t_end))

    def values(self, t: np.ndarray, derivative: bool = False, out=None, rows=None) -> np.ndarray:
        """W (or W') of every column at the points t, the set first grown to
        reach them, written into out[rows] (by default a new (len(t), columns)
        array) and returned.  A point's panel starts at or before it (an inner
        edge starts the panel after it), its place x there clipped to [-1, 1]
        where rounding puts it past an edge; a panel's points are one (points,
        25) @ (25, columns) product of their rows T_j(x) = cos(j arccos x) with
        it, within 1e-14 of chebval of each column's largest |value|."""
        t = np.asarray(t, dtype=float)
        if out is None:
            out, rows = np.empty((t.size, self.h.size)), np.arange(t.size)
        if not t.size:
            return out
        self.extend_to(float(t[np.argmax(self.sign * t)]))
        if self._new:
            self.coeffs = np.concatenate([self.coeffs, np.stack(self._new)])
            self._new = []
        j = np.searchsorted(self.sign * self.edges[1:-1], self.sign * t, side="right")
        lo, hi = self.edges[j], self.edges[j + 1]
        theta = np.arccos(np.clip((2.0 * t - (lo + hi)) / (hi - lo), -1.0, 1.0))
        table = np.cos(np.multiply.outer(theta, np.arange(_PANEL_DEG + 1.0)))
        for panel in np.unique(j):
            p = np.flatnonzero(j == panel)
            out[rows[p]] = table[p] @ self.coeffs[panel, int(derivative)]
        return out


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
    family that the solve of each nu takes first, holds the most modes."""
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


def _frobenius_coeffs(nu, h, m: Modulus, count: int) -> np.ndarray:
    """Coefficients b_p of the exponent-(nu+1) Frobenius series in tau^(2p),
    of shape (count,) + shape(h): one column per eigenvalue h, with nu
    broadcast against h."""
    h, nu = np.asarray(h, dtype=float), np.asarray(nu, dtype=float)
    nn1 = nu * (nu + 1.0)
    rev = ns2_series_coeffs(m, count)[::-1]
    shift = h - nn1  # each eigenvalue adds h - nu(nu+1) to the tau^2 term
    b = np.zeros((count,) + h.shape)
    b[0] = 1.0
    for p in range(1, count):
        j = 2.0 * p
        acc = nn1 * np.tensordot(rev[count - 1 - p:count - 1], b[:p], axes=1) + shift * b[p - 1]
        b[p] = acc / (j * (j + 2.0 * nu + 1.0))
    return b


def _frobenius_series(b: np.ndarray, nu: np.ndarray, tau: np.ndarray,
                      derivative: bool = False) -> np.ndarray:
    """F = tau^(nu+1) sum_p b_p tau^(2p), or dF/dtau = tau^nu sum_p
    (nu+1+2p) b_p tau^(2p), of every column of b (terms first, nu broadcast
    against the rest) at the points tau: (len(tau),) + b.shape[1:], one
    product with the powers tau^(2p), within 1e-14 of Horner's rule."""
    p = 2.0 * np.arange(len(b))
    if derivative:
        b = b * (p.reshape((-1,) + (1,) * (b.ndim - 1)) + nu + 1.0)
    series = np.power.outer(tau, p) @ b.reshape(len(b), -1)
    return series.reshape((len(tau),) + b.shape[1:]) * np.power.outer(tau, nu + 1.0 - derivative)


# --- the Lame functions of some orders nu at one k ---------------------------


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


class OrderSet:
    """The Lame functions of the orders nus at one modulus and shell depth
    n_max, each nu solved when the set is built: (nus, modes) arrays of the
    eigenvalues h, their brackets, Galerkin tails and boundary data (E(0),
    E'(0)), modes Ec^0 .. Ec^n_max, then Es^1 .. Es^(n_max+1) (shell_specs).
    real(s), imag(t) and second(t) return (points, nus, modes) arrays, or
    the modes cols only; the panels of each kind, the Frobenius block and
    tau0 are built on the first read that needs them.
    """

    def __init__(self, nus, m: Modulus, n_max: int):
        nus = [float(nu) for nu in nus]
        if not nus:
            raise DomainError("an OrderSet needs at least one nu")
        for nu in nus:
            if not (math.isfinite(nu * (nu + 1.0) * m.k * m.k) and nu >= -0.5):
                raise DomainError(f"nu must be finite and >= -1/2, with nu(nu+1)k^2 finite, got "
                                  f"{nu!r} at k = {m.k!r}")
        if n_max < 0:
            raise DomainError(f"shell depth must be >= 0, got {n_max!r}")
        check_shell_depth(n_max)
        self.modulus, self.n_max = m, int(n_max)
        self.specs = shell_specs(self.n_max)
        shape = (len(nus), len(self.specs))
        self._nu = np.array(nus)[:, None]
        self.h, self.tail = np.empty(shape), np.empty(shape)
        self.bracket = np.empty(shape + (2,))
        self.boundary_data = np.zeros(shape + (2,))  # (E(0), E'(0)) per mode
        # the columns of the panels and of the block: the nus one after another
        self._even = np.tile([fam.even_at_zero for fam, _ in self.specs], len(nus))
        placed = [p for i in range(len(nus)) for p in self._solve(i)]
        rows = 1 + max(r[-1] for r, _ in placed)
        self._freq = 0.5 * np.arange(rows) * (math.pi / m.quarter_K)
        self._coef = np.zeros((2, rows, self.h.size))  # cosine, then sine coefficients
        for j, (r, c) in enumerate(placed):
            self._coef[int(not self._even[j]), r, j] = c
        self._boundary = self.boundary_data.reshape(-1, 2).T  # (2, columns)
        for x in (self._nu, self.h, self.bracket, self.tail, self.boundary_data, self._even,
                  self._freq, self._coef):
            x.flags.writeable = False  # the caches hand the set to every caller

    def _solve(self, i: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The Galerkin solve of the i-th nu: writes its row of h, bracket, tail and
        boundary data, and returns each mode's rows of the grid j pi/(2K) and coefficients."""
        nu, m = float(self._nu[i, 0]), self.modulus
        counts = {fam: n + 1 for fam, n in self.specs}  # zero counts ascend within a family
        solved = {fam: _galerkin_modes(fam, nu, m, count) for fam, count in counts.items()}
        placed = []
        for j, (fam, n) in enumerate(self.specs):
            h_all, vecs, freq, tail = solved[fam]
            lo, hi = eigenvalue_bracket(fam, nu, n, m)
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
            self.h[i, j], self.bracket[i, j], self.tail[i, j] = h_all[n], (lo, hi), tail[n]
            self.boundary_data[i, j, int(not fam.even_at_zero)] = at_zero
            # the family's frequency (i + a) pi/K is row 2i + 2a of the grid j pi/(2K)
            placed.append((2 * np.arange(keep) + int(2 * fam.basis_offset), coef[:keep]))
        return placed

    @property
    def sup_bound(self) -> np.ndarray:
        """Uniform bound of every mode of each nu: E(s)^2 <= 2/K + 2 k |nu|^(1/2) (nu+1)^(1/2)."""
        nu = self._nu[:, 0]
        return 2.0 / self.modulus.quarter_K + 2.0 * self.modulus.k * np.sqrt(
            np.abs(nu) * (nu + 1.0))

    def column(self, family: LameFamily, n: int) -> int:
        """Column of the zero-count-n mode of family."""
        if shell_depth(family, n) > self.n_max:
            raise DomainError(f"{family} n={n} lies past shell depth {self.n_max}")
        sup = family.superscript(n)
        return sup if family.kind == "c" else self.n_max + sup

    def _panels(self, t0: float, state0: np.ndarray, t_end: float) -> _ImagPanels:
        k = self.modulus.k
        c = np.broadcast_to(self._nu * (self._nu + 1.0) * k * k, self.h.shape)
        return _ImagPanels(self.modulus, self.h.ravel(), c.ravel(), t0, state0, t_end,
                           self.h.shape[1])

    @functools.cached_property
    def _first(self) -> _ImagPanels:
        """The first-kind panels, from the boundary data at t = 0 up."""
        return self._panels(0.0, self._boundary, self.modulus.quarter_Kp * _IMAG_T_CAP)

    def _split(self, values: np.ndarray, cols) -> np.ndarray:
        """(points, columns) values as (points, nus, modes), modes cols only."""
        return values.reshape((len(values),) + self.h.shape)[..., cols]

    def real(self, s, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """E(s) (or E'(s)) of every nu at finite real s; the Galerkin basis
        carries parity and periodicity.  Every nu sums over a prefix of the
        frequency grid j pi/(2K): one (points, 2, rows) table [cos | sin] ([-f
        sin | f cos] for E') on the longest grid, built in place, times the
        coefficient block, within 1e-14 of each column's largest |value| of a
        one-nu set's read and of two matrix products on the nu's own grid."""
        s = np.asarray(s, dtype=float).ravel()
        if not np.all(np.isfinite(s)):
            raise DomainError("real-axis evaluation requires finite s")
        table = np.empty((s.size, 2, self._freq.size))
        x = np.multiply.outer(s, self._freq, out=table[:, int(derivative)])  # cosines' slot
        np.sin(x, out=table[:, 1 - int(derivative)])
        np.cos(x, out=x)
        if derivative:
            table *= self._freq * np.array([[-1.0], [1.0]])
        e = table.reshape(s.size, 2 * self._freq.size) @ self._coef.reshape(-1, self.h.size)
        return self._split(e, cols)

    def imag(self, t, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """Real representative W(t) of E(it) (or its t-derivative) of every nu:
        W = E(it) (even families) or E(it)/i (odd, so W'(0) = E'(0)), extended
        to t < 0 by parity; t = 0 gives the exact boundary data."""
        t = np.asarray(t, dtype=float).ravel()
        at = np.abs(t)
        if not np.all(np.isfinite(at)):
            raise DomainError("imaginary-axis evaluation requires finite t")
        out = np.empty((t.size, self.h.size))
        rows = np.flatnonzero(t)
        self._first.values(at[rows], derivative, out, rows)
        out[t == 0.0] = self._boundary[int(derivative)]
        if np.any(t < 0.0):  # W has the parity of its family, W' the opposite one
            out[t < 0.0] *= np.where(self._even == derivative, -1.0, 1.0)
        return self._split(out, cols)

    def second(self, t, derivative: bool = False, cols=slice(None)) -> np.ndarray:
        """Second-kind F(t) (or dF/dt) of every nu for 0 < t < K', with unit
        Wronskian F W' - W F' = 1: the Frobenius series where tau = K' - t <=
        tau0, the continuation panels elsewhere."""
        t = np.asarray(t, dtype=float).ravel()
        kp = self.modulus.quarter_Kp
        if not np.all((0.0 < t) & (t < kp)):
            raise DomainError(f"second-kind evaluation requires 0 < t < K', got {t!r}")
        frobenius, tau0, cont = self._second_kind
        tau = kp - t
        near = tau <= tau0
        out = np.empty((t.size,) + self.h.shape)
        if near.any():
            series = _frobenius_series(frobenius, self._nu, tau[near], derivative)
            out[near] = -series if derivative else series  # dF/dt = -dF/dtau
        if not near.all():
            cont.values(t[~near], derivative, out.reshape(t.size, -1), np.flatnonzero(~near))
        return out[..., cols]

    @functools.cached_property
    def _second_kind(self) -> tuple[np.ndarray, float, _ImagPanels]:
        """The second kind, built on first use: the exponent-(nu+1) Frobenius
        coefficients at K' scaled to unit Wronskian (terms, nus, modes), the
        hand-off distance tau0, and the continuation panels below it.  tau0 is
        the largest 0.3 R (1 - j/64), R = 2 min(K, K') the series' radius (so
        tau0 < 0.6 K'), where in every column the last of 64 terms b_p tau^(2p)
        is below _TRIM of the sum of their magnitudes, and that sum is at most
        _FROBENIUS_COND times the magnitude of theirs: the least of the tau0
        of the one-nu sets.  Only the terms that reach _TRIM there are kept,
        and the first-kind panels keep what the read of W at K' - tau0 builds."""
        m = self.modulus
        kp = m.quarter_Kp
        b = _frobenius_coeffs(self._nu, self.h, m, _FROBENIUS_TERMS)  # (terms, nus, modes)
        flat = b.reshape(_FROBENIUS_TERMS, -1)
        for tau0 in 0.6 * min(m.quarter_K, kp) * (1.0 - np.arange(64) / 64):
            terms = flat * (tau0 * tau0) ** np.arange(_FROBENIUS_TERMS)[:, None]
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
        f_tau, df_tau = (_frobenius_series(b, self._nu, np.array([tau0]), d).ravel()
                         for d in (False, True))
        # unit Wronskian F W' - W dF/dt, with dF/dt = -dF/dtau, and W at
        # K' - tau0 from the first-kind panels, which grow to it and keep it
        t1 = kp - tau0
        w1, dw1 = (self._first.values(np.array([t1]), d)[0] for d in (False, True))
        scale = 1.0 / (f_tau * dw1 + w1 * df_tau)
        cont = self._panels(t1, np.stack([scale * f_tau, -scale * df_tau]), 0.0)
        frobenius = scale.reshape(self.h.shape) * b
        frobenius.flags.writeable = False
        return frobenius, tau0, cont


_BASIS_CACHE_SIZE = 32
"""One-nu sets kept by `basis`.  An expansion reads its orders through a
set of `order_set`, which this cache never sees, so this cache serves only
the single-mode callers, one small set per mode.  At k = 0.5 a depth-20
one-nu set takes 0.17 MB (0.31 MB at nu = 40.5) with the panels that reads
at t <= 0.3K' and t* >= 0.6K' build (F there is read from its series
alone, and W grown to the hand-off), and 0.42 MB (0.69 MB at nu = 40.5)
with both panel sets grown to 0.9K' and 0.05K', its Frobenius block
(0.01 MB) included, so the bound caps what this cache holds at about 22 MB."""


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def basis(nu: float, m: Modulus, n_max: int, /) -> OrderSet:
    """The one-nu OrderSet of (nu, k) at shell depth n_max, from a bounded
    LRU cache: one key gives one object until it is evicted, and a rebuild
    is bit-identical."""
    return OrderSet([nu], m, n_max)


def basis_for(specs: list[tuple[LameFamily, int]], nu: float,
              m: Modulus) -> tuple[OrderSet, list[int]]:
    """The cached one-nu set of least depth that holds every (family, zero count)
    in specs, and their columns in spec order."""
    b = basis(nu, m, max((shell_depth(fam, n) for fam, n in specs), default=0))
    return b, [b.column(fam, n) for fam, n in specs]


_SET_CACHE_SIZE = 2
"""Sets kept by `order_set`: one per (modulus, m_max, n_max).  Each bench
workload reads one set; two keep a run that reads two truncations in turn
warm.  A set fills its coefficient block once, when it is built, and grows
its panels as it is read.  At k = 0.5 a (20, 20) set takes 3.5 MB after
reads at t <= 0.3K' and t* >= 0.6K' (W grown to the hand-off), and 8.8 MB
with both panel sets grown to 0.9K' and 0.05K'; a (40, 40) set, the
largest that the tests read, takes 31 MB and 69 MB.  So the cache holds
about 18 MB of (20, 20) sets, and 138 MB of (40, 40) sets."""


@functools.lru_cache(maxsize=_SET_CACHE_SIZE)
def order_set(m: Modulus, m_max: int, n_max: int, /) -> OrderSet:
    """The OrderSet of the orders 0..m_max (nu = order - 1/2) at shell depth
    n_max, from a small LRU cache of whole sets: each order is solved once,
    when the set is built, and the basis cache never sees it; m_max < 0
    leaves no order, which the set refuses."""
    return OrderSet([order - 0.5 for order in range(m_max + 1)], m, n_max)


def clear_caches() -> None:
    """Empty the set cache and the basis cache."""
    order_set.cache_clear()
    basis.cache_clear()

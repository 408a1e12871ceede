"""Associated Legendre functions on (1, inf) for real degree.

`legendre_p` and `legendre_q` are closed forms over scipy's Gauss
hypergeometric function hyp2f1 (DLMF 14.3), on scalars or arrays of z and
with no cutoff near z = 1; Q of order m >= 1 comes from the order Casoratian
and the order recurrence that the toroidal tables use too.

The toroidal functions P^m_{n-1/2}, Q^m_{n-1/2} (integer m, n >= 0) come as
whole tables from recurrences seeded by complete elliptic integrals, after
Gil & Segura, Comput. Phys. Commun. 124 (2000) 104-122: `toroidal_p_table`
and `toroidal_q_table` build one table each, for every z > 1, and share no
code with hyp2f1, so each is an oracle for the other.  A table is built one
z at a time, in scalar floats but for the recurrences across all orders or
degrees, from z-free coefficients (`_steps`) computed once per call; an array
z maps that build over its points, one build per point (N points cost N
one-point builds), so each column equals its point's table exactly.

Seeds are closed forms in complete elliptic integrals (DLMF 14.5(v), and
their z-derivatives for order 1), with a = 2/(z+1), b = (z-1)/(z+1) and
K(b) - E(b) = (b/3) R_D(0, a, 1) so that none cancels where it is used:
P_{-1/2} = (2/pi) sqrt(a) K(b),  P^1_{-1/2} = -(sqrt2/pi)(K(b) - E(b))/sqrt(z-1),
P_{1/2} = (2/pi) sqrt(a) ((z+1) E(b) - K(b)),
P^1_{1/2} = (sqrt2/pi) sqrt(z-1) (E(b) - R_D/(3 (z+1))),
Q_{-1/2} = sqrt(a) K(a),  Q_{1/2} = ((2-a) K(a) - 2 E(a)) / sqrt(a)
(Q_{1/2} cancels for large z, but seeds only forward branches near z = 1).
P runs forward in the degree and Q forward in the order, where each is
dominant; the minimal directions, Q^0 in the degree and P_{-1/2} in the
order, come from `_minimal_solution`.  Q^1 follows from the order Casoratian
P^0 Q^1 - P^1 Q^0 = -1/sqrt(z^2-1), and P^m_{1/2} from the degree Casoratian
P^m_{-1/2} Q^m_{1/2} - P^m_{1/2} Q^m_{-1/2} = Gamma(m+1/2)^2 / (pi (m-1/2)).
So the Q table needs P only at orders 0 and 1, and the P table needs Q only
at degrees -1/2 and 1/2.

Phase convention: the defining formula for Q carries a factor e^{i mu pi}.
For integer order m this equals (-1)**m and is kept inside the returned real
value, so connection formulas and Wronskians hold literally with no external
sign bookkeeping.  Non-integer orders of Q are rejected (they are genuinely
complex and never arise here).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ellipe, ellipkm1, elliprd, gammaln, gammasgn, hyp2f1

from .errors import ConvergenceError, DomainError


def _is_integer(x: float, tol: float = 1e-12) -> bool:
    return abs(x - round(x)) <= tol


def _finite_z(z, name: str) -> np.ndarray:
    x = np.asarray(z, dtype=float)
    if not (np.all(x > 1.0) and np.all(np.isfinite(x))):
        raise DomainError(f"{name} requires finite z > 1")
    return x


def _result(val: np.ndarray, name: str):
    """val as a float for a scalar z, else as an array; ConvergenceError where
    an entry is not finite (overflow, or a Gamma pole of the closed form)."""
    if not np.all(np.isfinite(val)):
        raise ConvergenceError(f"{name} leaves the double range", attained=None)
    return float(val) if val.ndim == 0 else val


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) in log space with sign tracking.

    Returns 0 when Gamma(b) has a pole and Gamma(a) does not; raises
    DomainError when Gamma(a) has a pole.
    """
    a_pole = a <= 0.0 and _is_integer(a)
    b_pole = b <= 0.0 and _is_integer(b)
    if a_pole and not b_pole:
        raise DomainError(f"gamma_ratio: Gamma({a!r}) pole in numerator")
    if b_pole and not a_pole:
        return 0.0
    if a_pole and b_pole:
        # ratio of residues: Gamma(-n+eps)/Gamma(-m+eps) -> (-1)**(n-m) m!/n!
        n, m = int(round(-a)), int(round(-b))
        sign = -1.0 if (n - m) % 2 else 1.0
        return sign * math.exp(gammaln(m + 1) - gammaln(n + 1))
    return gammasgn(a) * gammasgn(b) * math.exp(gammaln(a) - gammaln(b))


def legendre_p(nu: float, mu: float, z):
    """Associated Legendre function of the first kind P_nu^mu(z) at z > 1, a
    float for a scalar z and an array for an array z.

    Orders mu <= 0 from the defining series (DLMF 14.3.6),
    P^{-mu}_nu = ((z-1)/(z+1))^{mu/2} F(nu+1, -nu; mu+1; (1-z)/2) / Gamma(mu+1);
    positive integer orders m through P^m = Gamma(nu+m+1)/Gamma(nu-m+1) P^{-m}.
    """
    x = _finite_z(z, "legendre_p")
    if mu > 0.0 and not _is_integer(mu):
        raise DomainError("legendre_p: positive non-integer order is unsupported")
    return _result(_p_closed(nu, mu, x), "legendre_p")


def _p_closed(nu: float, mu: float, x: np.ndarray) -> np.ndarray:
    """P^mu_nu(x) for mu <= 0 or a positive integer, as in `legendre_p`."""
    if mu > 0.0:
        m = int(round(mu))
        return gamma_ratio(nu + m + 1.0, nu - m + 1.0) * _p_closed(nu, -float(m), x)
    order = -mu
    return (np.exp(0.5 * order * np.log((x - 1.0) / (x + 1.0)) - gammaln(order + 1.0))
            * hyp2f1(nu + 1.0, -nu, order + 1.0, 0.5 * (1.0 - x)))


def _casoratian_q1(p0, p1, q0, root):
    """Q^1 from the order Casoratian P^0 Q^1 - P^1 Q^0 = -1/root, root = sinh(tau)."""
    return (p1 * q0 - 1.0 / root) / p0


def legendre_q(nu: float, mu: float, z):
    """Associated Legendre function of the second kind Q_nu^mu(z) at z > 1, a
    float for a scalar z and an array for an array z.

    Integer order only; the (-1)**m phase is folded into the real value.
    With zeta = z + sqrt(z^2-1) = e^tau,
    Q^0_nu = sqrt(pi) Gamma(nu+1)/Gamma(nu+3/2) zeta^{-nu-1} F(1/2, nu+1; nu+3/2; zeta^-2)
    (DLMF 14.3.7 after a quadratic transformation of its 2F1), which holds its
    digits down to z = 1.  Q^1 follows from the order Casoratian
    P^0 Q^1 - P^1 Q^0 = -1/sqrt(z^2-1), higher orders from `_order_forward`,
    and negative orders through Q^{-m} = Gamma(nu-m+1)/Gamma(nu+m+1) Q^m.
    """
    x = _finite_z(z, "legendre_q")
    if not _is_integer(mu):
        raise DomainError("legendre_q: non-integer order is unsupported (complex-valued)")
    m = int(round(mu))
    s = nu + m
    if s < 0.0 and _is_integer(s) and round(s) <= -1:
        raise DomainError(f"legendre_q undefined: degree + order = {s!r} in -N")
    if _is_integer(nu + 1.5) and round(nu + 1.5) <= 0:
        raise DomainError(f"legendre_q: degree nu = {nu!r} is unsupported: the closed form's "
                          "Gamma(nu + 3/2) has a pole at nu + 3/2 in {0, -1, ...}")
    scale = 1.0
    if m < 0:
        scale, m = gamma_ratio(nu + m + 1.0, nu - m + 1.0), -m
    root = np.sqrt((x - 1.0) * (x + 1.0))  # sinh(tau)
    zeta = x + root
    q = np.empty((m + 1, 1) + x.shape)
    q[0, 0] = (math.sqrt(math.pi) * gamma_ratio(nu + 1.0, nu + 1.5) * zeta ** (-nu - 1.0)
               * hyp2f1(0.5, nu + 1.0, nu + 1.5, zeta ** -2.0))
    if m >= 1:
        q[1, 0] = _casoratian_q1(_p_closed(nu, 0.0, x), _p_closed(nu, 1.0, x), q[0, 0], root)
        _order_forward(q, x / root, _order_steps(np.array([nu]), m + 1))
    return scale * _result(q[m, 0], "legendre_q")


# A minimal solution is run forward where the dominant one outgrows it by
# less than 1/_FORWARD_GROWTH over the requested range (up to a small
# algebraic factor), else backward from where the dominant one is damped by
# e^-_BACKWARD_DAMPING ~ 1e-17.
_FORWARD_GROWTH = 0.1
_BACKWARD_DAMPING = 39.0


def _minimal_solution(y0, y1, slope, drag, d: float, rate: float, guess, top: int) -> list:
    """y_k, k = 0..top, at one point, of the minimal solution of y_{k+1} = slope(k) (1 + d) y_k
    + drag(k) y_{k-1}, y_0 = y0, for integer k.  d is held apart from 1: near 1 + d = 1 the
    forward recurrence is sensitive to d itself (rounding coth(tau) - 1 into coth at z = 1e3
    takes order 40 from 2e-14 to 1.2e-13).  The dominant/minimal ratio grows by about 1/rate
    per step: where rate**top >= _FORWARD_GROWTH the forward recurrence from y0, y1 loses
    little, else the ratios y_{k+1}/y_k come from the backward recurrence, started from
    guess(start) ~ y_{start+1}/y_start where the dominant solution is damped below rounding."""
    if rate ** top >= _FORWARD_GROWTH:
        col = [y0, y1]
        for k in range(1, top):
            col.append(slope(k) * (col[-1] + d * col[-1]) + drag(k) * col[-2])
        return col
    start = top + math.ceil(_BACKWARD_DAMPING / -np.log(rate))
    # a float64 scalar: a pole of the continued fraction gives inf (IEEE,
    # under the caller's errstate) where a Python float would raise
    ratio = np.float64(guess(start))
    ratios = []
    for k in range(start, 0, -1):
        ratio = drag(k) / (ratio - slope(k) * (1.0 + d))  # y_k / y_(k-1)
        ratios.append(ratio)
    return [y0] + (y0 * np.cumprod(ratios[:-top - 1:-1])).tolist()


def _order_steps(nu: np.ndarray, orders: int) -> np.ndarray:
    """pull = (nu-m+1)(nu+m) of Q^{m+1} = -2 m coth(tau) Q^m + pull Q^{m-1}
    (DLMF 14.10.6): rows m = 1..orders - 2, columns the degrees nu."""
    m = np.arange(1.0, orders - 1.0)[:, None]
    return (nu - m + 1.0) * (nu + m)


def _order_forward(table: np.ndarray, coth, pull: np.ndarray) -> None:
    """Fill orders 2.. of a Q table (orders, degrees, ...) in place; pull from `_order_steps`."""
    pull = pull.reshape(pull.shape + (1,) * (table.ndim - 2))
    rows = list(table)
    for i, (r0, r1, r2, h) in enumerate(zip(rows, rows[1:], rows[2:], pull)):
        np.add((-2.0 * (i + 1)) * coth * r1, h * r0, out=r2)


def _corners(z: float):
    """sinh(tau), e^-tau, coth(tau) - 1 and tanh(tau/2)^2 at one z = cosh(tau), and
    the seeds: P^m_{n-1/2}, m, n in {0, 1} (orders x degrees), Q_{-1/2}, Q_{1/2}."""
    zm1, zp1 = z - 1.0, z + 1.0
    root = math.sqrt(zm1 * zp1)  # sinh(tau)
    e_tau = 1.0 / (z + root)  # e^-tau
    a = 2.0 / zp1
    b = zm1 / zp1  # tanh(tau/2)^2
    sqrt_a = math.sqrt(a)
    k_b, k_a = ellipkm1([a, b]).tolist()
    e_b, e_a = ellipe([b, a]).tolist()
    r_d = float(elliprd(0.0, a, 1.0))
    p = [[(2.0 / math.pi) * sqrt_a * k_b, (2.0 / math.pi) * sqrt_a * (zp1 * e_b - k_b)],
         [-(math.sqrt(2.0) / (3.0 * math.pi)) * math.sqrt(zm1) / zp1 * r_d,
          (math.sqrt(2.0) / math.pi) * math.sqrt(zm1) * (e_b - r_d / (3.0 * zp1))]]
    q = [sqrt_a * k_a, ((2.0 - a) * k_a - 2.0 * e_a) / sqrt_a]
    return root, e_tau, e_tau / root, b, p, q


def _steps(top_m: int, top_n: int, p_table: bool) -> tuple:
    """The z-free coefficients that `_p_at` (p_table) or `_q_at` reads: gain, pull of
    P^m_{k+1/2} = gain z P^m_{k-1/2} - pull P^m_{k-3/2} (DLMF 14.10.3, k = 1..top_n - 1)
    for m = 0..top_m (0 and 1 for Q), `_order_steps` of the degrees 0..top_n (-1/2 and
    1/2 for P), and for P Gamma(m+1/2), pi (m-1/2)."""
    k = np.arange(1.0, top_n)[:, None]
    j = np.arange(top_m + 1.0 if p_table else 2.0)
    scale = 1.0 / (k - j + 0.5)
    steps = (2.0 * k * scale, (k + j - 0.5) * scale,
             _order_steps(np.arange(2 if p_table else top_n + 1) - 0.5, top_m + 1))
    if not p_table:
        return steps
    m = np.arange(2, top_m + 1.0)
    return (*steps, np.exp(gammaln(m + 0.5)), math.pi * (m - 0.5))


def _q_degrees(z: float, e_tau: float, q_seed, top: int) -> list:
    """Q_{n-1/2}, n = 0..top, the minimal solution in the degree."""
    return _minimal_solution(
        q_seed[0], q_seed[1], lambda k: 2.0 * k / (k + 0.5), lambda k: -(k - 0.5) / (k + 0.5),
        z - 1.0, e_tau * e_tau, lambda k: e_tau, top)


def _q_at(z: float, top_m: int, top_n: int, steps: tuple) -> np.ndarray:
    """The Q table at one z, orders 0..top_m >= 1 and degrees 0..top_n >= 1."""
    root, e_tau, cm1, _, p_seed, q_seed = _corners(z)
    gain, pull, across = steps
    for row, gains, pulls in zip(p_seed, gain.T.tolist(), pull.T.tolist()):
        for g, h in zip(gains, pulls):  # P^0 and P^1, forward in the degree
            row.append(g * z * row[-1] - h * row[-2])
    q = np.empty((top_m + 1, top_n + 1))
    q[0] = _q_degrees(z, e_tau, q_seed, top_n)
    q[1] = _casoratian_q1(np.array(p_seed[0]), np.array(p_seed[1]), q[0], root)
    _order_forward(q, 1.0 + cm1, across)
    return q


def _p_at(z: float, top_m: int, top_n: int, steps: tuple) -> np.ndarray:
    """The P table at one z, orders 0..top_m >= 1 and degrees 0..top_n >= 1."""
    root, e_tau, cm1, b, p_seed, q_seed = _corners(z)
    gain, pull, across, g, den = steps
    q = [[q_j] for q_j in _q_degrees(z, e_tau, q_seed, 1)]  # degrees -1/2 and 1/2
    for j, (col, pulls) in enumerate(zip(q, across.T.tolist())):
        col.append(_casoratian_q1(p_seed[0][j], p_seed[1][j], col[0], root))
        for i, h in enumerate(pulls):  # forward in the order from Q^0 and Q^1
            col.append(-2.0 * (i + 1) * (1.0 + cm1) * col[-1] + h * col[-2])
    p = np.empty((top_m + 1, top_n + 1))
    p[:2, :2] = p_seed
    p[2:, 0] = _minimal_solution(
        p_seed[0][0], p_seed[1][0], lambda k: -2.0 * k, lambda k: -(k - 0.5) ** 2,
        cm1, b, lambda k: -k * math.sqrt(b), top_m)[2:]
    q_lo, q_hi = np.array(q[0][2:]), np.array(q[1][2:])
    p[2:, 1] = p[2:, 0] * (q_hi / q_lo) - g * (g / q_lo) / den
    cols = list(p.T)  # every order forward in the degree
    for c0, c1, c2, gain_z, h in zip(cols, cols[1:], cols[2:], gain * z, pull):
        np.subtract(gain_z * c1, h * c0, out=c2)
    return p


def _table(at, z, m_max: int, n_max: int, name: str) -> np.ndarray:
    """The table that at builds at one point, at every point of z, from one `_steps`."""
    if m_max < 0 or n_max < 0:
        raise DomainError(f"{name}: m_max and n_max must be non-negative")
    z = _finite_z(z, name)
    table = np.empty((m_max + 1, n_max + 1, z.size))
    top_m, top_n = max(m_max, 1), max(n_max, 1)
    # an entry that overflows is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        steps = _steps(top_m, top_n, p_table=at is _p_at)
        for i, zi in enumerate(z.ravel().tolist()):
            table[..., i] = at(zi, top_m, top_n, steps)[:m_max + 1, :n_max + 1]
    if not np.all(np.isfinite(table)):
        raise ConvergenceError(
            f"{name} up to (m, n) = ({m_max}, {n_max}) leaves the double range", attained=None)
    return table.reshape(table.shape[:2] + z.shape)


def toroidal_q_table(z, m_max: int, n_max: int) -> np.ndarray:
    """Q^m_{n-1/2}(z), m = 0..m_max, n = 0..n_max, at every z = cosh(tau) > 1
    (scalar or array): shape (m_max + 1, n_max + 1) + np.shape(z), the (-1)**m
    phase folded in as in `legendre_q`.  Raises ConvergenceError when an entry
    leaves the double range."""
    return _table(_q_at, z, m_max, n_max, "toroidal_q_table")


def toroidal_p_table(z, m_max: int, n_max: int) -> np.ndarray:
    """P^m_{n-1/2}(z), m = 0..m_max, n = 0..n_max, at every z = cosh(tau) > 1
    (scalar or array): shape (m_max + 1, n_max + 1) + np.shape(z).  Raises
    ConvergenceError when an entry, or a Q entry it is built from, leaves the
    double range."""
    return _table(_p_at, z, m_max, n_max, "toroidal_p_table")

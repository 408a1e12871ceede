"""Associated Legendre functions on (1, inf) for real degree.

`legendre_p` and `legendre_q` are closed forms over scipy's Gauss
hypergeometric function hyp2f1 (DLMF 14.3), on scalars or arrays of z and
with no cutoff near z = 1; Q of order m >= 1 comes from the order Casoratian
and the order recurrence that the toroidal tables use too.

The toroidal functions P^m_{n-1/2}, Q^m_{n-1/2} (integer m, n >= 0) come as
whole tables from recurrences seeded by complete elliptic integrals, after
Gil & Segura, Comput. Phys. Commun. 124 (2000) 104-122: `toroidal_p_table`
and `toroidal_q_table` build one table each, so a caller that reads Q at one
z and P at another (the toroidal expansion) builds each only where it is
read, and `toroidal_tables` is the pair at one z.  They cover every z > 1
and share no code with hyp2f1, so each is an oracle for the other.

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
        _order_forward(q, x / root, np.array([nu]))
    return scale * _result(q[m, 0], "legendre_q")


# A minimal solution is run forward where the dominant one outgrows it by
# less than 1/_FORWARD_GROWTH over the requested range (up to a small
# algebraic factor), else backward from where the dominant one is damped by
# e^-_BACKWARD_DAMPING ~ 1e-17.
_FORWARD_GROWTH = 0.1
_BACKWARD_DAMPING = 39.0


def _minimal_solution(y0, y1, slope, drag, d, rate, guess, top: int) -> np.ndarray:
    """y_k, k = 0..top, of the minimal solution of the three-term recurrence
    y_{k+1} = slope(k) (1 + d) y_k + drag(k) y_{k-1} with y_0 = y0.

    slope and drag map an array of k to coefficients; d (per point) is held
    apart from 1 because near 1 + d = 1 the forward recurrence is sensitive
    to d itself (coth(tau) - 1 at large z loses its digits once rounded into
    coth; 2e-14 against 1.2e-13 at order 40, z = 1e3).
    The dominant/minimal ratio grows by about 1/rate per step (rate < 1 per
    point).  Where rate**top >= _FORWARD_GROWTH the forward recurrence from
    y0, y1 loses little; elsewhere the ratios y_{k+1}/y_k come from the
    backward recurrence, started where the dominant solution has been damped
    below rounding from guess(start) ~ y_{start+1}/y_start, and multiply y0.
    """
    col = np.empty((top + 1,) + np.shape(d))
    col[0] = y0
    if top == 0:
        return col
    col[1] = y1
    backward = rate ** top < _FORWARD_GROWTH
    if not np.all(backward):
        k = np.arange(1.0, top)
        gain, pull = slope(k).tolist(), drag(k).tolist()
        for i in range(top - 1):
            col[i + 2] = gain[i] * (col[i + 1] + d * col[i + 1]) + pull[i] * col[i]
    if np.any(backward):
        start = top + int(np.ceil(np.max(_BACKWARD_DAMPING / -np.log(rate[backward]))))
        k = np.arange(start, 0, -1.0)
        level = np.multiply.outer(slope(k), 1.0 + d)
        pull = drag(k).tolist()
        ratio = guess(start)
        ratios = np.empty((top,) + np.shape(d))
        for i in range(start):  # k = start - i; the new ratio is y_k / y_(k-1)
            ratio = pull[i] / (ratio - level[i])
            if i >= start - top:
                ratios[start - 1 - i] = ratio
        col[1:] = np.where(backward, y0 * np.cumprod(ratios, axis=0), col[1:])
    return col


def _degree_forward(table: np.ndarray, z, first_order: int = 0) -> None:
    """Fill degrees 3/2.. of a P table (orders, degrees, ...) at z in place
    from its degree -1/2 and 1/2 columns (DLMF 14.10.3; P is dominant in the
    degree).  Row i holds order first_order + i."""
    k = np.arange(1.0, table.shape[1] - 1.0)[:, None]
    j = np.arange(first_order, first_order + table.shape[0] + 0.0)
    scale = 1.0 / (k - j + 0.5)
    gain = (2.0 * k * scale).reshape(k.shape[:1] + j.shape + (1,) * (table.ndim - 2))
    pull = ((k + j - 0.5) * scale).reshape(gain.shape)
    for i in range(table.shape[1] - 2):  # degree i + 3/2 from i + 1/2 and i - 1/2
        table[:, i + 2] = gain[i] * z * table[:, i + 1] - pull[i] * table[:, i]


def _order_forward(table: np.ndarray, coth, nu: np.ndarray) -> None:
    """Fill orders 2.. of a Q table (orders, degrees, ...) in place from its
    orders 0 and 1, column j at degree nu[j] (DLMF 14.10.6; Q is dominant in
    the order): Q^{m+1} = -2 m coth(tau) Q^m + (nu-m+1)(nu+m) Q^{m-1}."""
    m = np.arange(1.0, table.shape[0] - 1.0)[:, None]
    pull = ((nu - m + 1.0) * (nu + m)).reshape(m.shape[:1] + nu.shape + (1,) * (table.ndim - 2))
    for i in range(table.shape[0] - 2):  # order i + 2 from i + 1 and i
        table[i + 2] = (-2.0 * (i + 1)) * coth * table[i + 1] + pull[i] * table[i]


def _corners(z: np.ndarray):
    """sinh(tau), e^-tau, coth(tau) - 1 and tanh(tau/2)^2 at z = cosh(tau),
    the closed-form block P^m_{n-1/2}, m, n in {0, 1} (orders x degrees), and
    Q_{-1/2}, Q_{1/2}: what both tables start from (see `toroidal_tables`)."""
    zm1 = z - 1.0
    zp1 = z + 1.0
    root = np.sqrt(zm1 * zp1)  # sinh(tau)
    e_tau = 1.0 / (z + root)  # e^-tau
    a = 2.0 / zp1
    b = zm1 / zp1  # tanh(tau/2)^2
    sqrt_a = np.sqrt(a)
    k_b, k_a = ellipkm1(a), ellipkm1(b)
    e_b, e_a = ellipe(b), ellipe(a)
    r_d = elliprd(0.0, a, 1.0)
    p = [[(2.0 / math.pi) * sqrt_a * k_b, (2.0 / math.pi) * sqrt_a * (zp1 * e_b - k_b)],
         [-(math.sqrt(2.0) / (3.0 * math.pi)) * np.sqrt(zm1) / zp1 * r_d,
          (math.sqrt(2.0) / math.pi) * np.sqrt(zm1) * (e_b - r_d / (3.0 * zp1))]]
    q = [sqrt_a * k_a, ((2.0 - a) * k_a - 2.0 * e_a) / sqrt_a]
    return root, e_tau, e_tau / root, b, p, q


def _q_degrees(z, e_tau, q_seed, top: int) -> np.ndarray:
    """Q_{n-1/2}, n = 0..top, the minimal solution in the degree (DLMF 14.10.3)
    from the closed forms q_seed of Q_{-1/2} and Q_{1/2}."""
    return _minimal_solution(
        q_seed[0], q_seed[1], lambda k: 2.0 * k / (k + 0.5), lambda k: -(k - 0.5) / (k + 0.5),
        z - 1.0, e_tau * e_tau, lambda k: e_tau, top)


def _table_z(z, m_max: int, n_max: int, name: str) -> np.ndarray:
    if m_max < 0 or n_max < 0:
        raise DomainError(f"{name}: m_max and n_max must be non-negative")
    return _finite_z(z, name)


def _finite_table(table: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(table)):
        m_max, n_max = table.shape[0] - 1, table.shape[1] - 1
        raise ConvergenceError(
            f"{name} up to (m, n) = ({m_max}, {n_max}) leaves the double range", attained=None)
    return table


def toroidal_q_table(z, m_max: int, n_max: int) -> np.ndarray:
    """Q^m_{n-1/2}(z), m = 0..m_max, n = 0..n_max, at every z = cosh(tau) > 1
    (scalar or array): shape (m_max + 1, n_max + 1) + np.shape(z), the (-1)**m
    phase folded in as in `legendre_q`.

    Q^0 is the minimal solution in the degree, from Q_{-1/2} and Q_{1/2}; Q^1
    comes from the order Casoratian with P^0 and P^1, which run forward in the
    degree; the higher orders run forward in the order (see `toroidal_tables`).
    Raises ConvergenceError when an entry leaves the double range.
    """
    z = _table_z(z, m_max, n_max, "toroidal_q_table")
    root, e_tau, cm1, _, p_seed, q_seed = _corners(z)
    top_m, top_n = max(m_max, 1), max(n_max, 1)
    p = np.empty((2, top_n + 1) + z.shape)
    q = np.empty((top_m + 1, top_n + 1) + z.shape)
    # a branch of _minimal_solution may blow up on the points of the other; only
    # the returned entries are checked
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p[:, :2] = p_seed
        _degree_forward(p, z)
        q[0] = _q_degrees(z, e_tau, q_seed, top_n)
        q[1] = _casoratian_q1(p[0], p[1], q[0], root)
        _order_forward(q, 1.0 + cm1, np.arange(top_n + 1) - 0.5)
    return _finite_table(q[:m_max + 1, :n_max + 1], "toroidal_q_table")


def toroidal_p_table(z, m_max: int, n_max: int) -> np.ndarray:
    """P^m_{n-1/2}(z), m = 0..m_max, n = 0..n_max, at every z = cosh(tau) > 1
    (scalar or array): shape (m_max + 1, n_max + 1) + np.shape(z).

    Q_{-1/2} and Q_{1/2} (the first two degrees of the minimal solution) run
    forward in the order from the order Casoratian; P_{-1/2} is the minimal
    solution in the order, P^m_{1/2} comes from the degree Casoratian with
    those two Q columns, and every order runs forward in the degree (see
    `toroidal_tables`).  Raises ConvergenceError when an entry, or a Q entry
    it is built from, leaves the double range.
    """
    z = _table_z(z, m_max, n_max, "toroidal_p_table")
    root, e_tau, cm1, b, p_seed, q_seed = _corners(z)
    top_m, top_n = max(m_max, 1), max(n_max, 1)
    p = np.empty((top_m + 1, top_n + 1) + z.shape)
    q = np.empty((top_m + 1, 2) + z.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p[:2, :2] = p_seed
        q[0] = _q_degrees(z, e_tau, q_seed, 1)
        q[1] = _casoratian_q1(p[0, :2], p[1, :2], q[0], root)
        _order_forward(q, 1.0 + cm1, np.array([-0.5, 0.5]))
        p[2:, 0] = _minimal_solution(
            p[0, 0], p[1, 0], lambda k: -2.0 * k, lambda k: -(k - 0.5) ** 2,
            cm1, b, lambda k: -k * np.sqrt(b), top_m)[2:]
        m = np.arange(2, top_m + 1.0).reshape((-1,) + (1,) * z.ndim)
        g = np.exp(gammaln(m + 0.5))
        p[2:, 1] = p[2:, 0] * (q[2:, 1] / q[2:, 0]) - g * (g / q[2:, 0]) / (math.pi * (m - 0.5))
        _degree_forward(p, z)
    return _finite_table(p[:m_max + 1, :n_max + 1], "toroidal_p_table")


def toroidal_tables(z, m_max: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Toroidal functions P^m_{n-1/2}(z) and Q^m_{n-1/2}(z), m = 0..m_max,
    n = 0..n_max, at every z = cosh(tau) > 1 (scalar or array): the pair
    (`toroidal_p_table`, `toroidal_q_table`), for a caller that needs both at
    the same z.

    Each has shape (m_max + 1, n_max + 1) + np.shape(z); the (-1)**m phase
    is folded into q as in `legendre_q`.  Raises ConvergenceError when an
    entry leaves the double range.

    Seeds are closed forms in complete elliptic integrals (DLMF 14.5(v), and
    their z-derivatives for order 1), with a = 2/(z+1), b = (z-1)/(z+1) and
    K(b) - E(b) = (b/3) R_D(0, a, 1) so that none cancels where it is used:
    P_{-1/2} = (2/pi) sqrt(a) K(b),  P^1_{-1/2} = -(sqrt2/pi)(K(b) - E(b))/sqrt(z-1),
    P_{1/2} = (2/pi) sqrt(a) ((z+1) E(b) - K(b)),
    P^1_{1/2} = (sqrt2/pi) sqrt(z-1) (E(b) - R_D/(3 (z+1))),
    Q_{-1/2} = sqrt(a) K(a),  Q_{1/2} = ((2-a) K(a) - 2 E(a)) / sqrt(a)
    (Q_{1/2} cancels for large z, but seeds only forward branches near z = 1).
    P runs forward in the degree and Q forward in the order, where each is
    dominant.  The minimal directions (Q^0 in the degree, P_{-1/2} in the
    order) use `_minimal_solution`, whose backward start is set by the
    slowest-damped z of the call; Q^1 follows from the order Casoratian
    P^0 Q^1 - P^1 Q^0 = -1/sqrt(z^2-1), and P^m_{1/2} from the degree
    Casoratian P^m_{-1/2} Q^m_{1/2} - P^m_{1/2} Q^m_{-1/2} = Gamma(m+1/2)^2 / (pi (m-1/2)).
    So the Q table needs P only at orders 0 and 1, and the P table needs Q
    only at degrees -1/2 and 1/2: each is built alone (`toroidal_q_table`,
    `toroidal_p_table`), so each backward start is set by the table that a
    caller reads at that z.
    After Gil & Segura, Comput. Phys. Commun. 124 (2000) 104-122.
    """
    return toroidal_p_table(z, m_max, n_max), toroidal_q_table(z, m_max, n_max)

"""Toroidal tables P^m_{n-1/2}, Q^m_{n-1/2} from recurrences, and the
expansions and checks built on them."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from flatring.cli import main
from flatring.coords import ToroidalPoint, cartesian_to_toroidal, toroidal_to_cartesian
from flatring.errors import ConvergenceError, DomainError
from flatring.harmonics import (
    Truncation,
    flatring_chi,
    integral_relation_check,
    toroidal_green_expansion,
    toroidal_harmonic,
    toroidal_limit_summand,
    toroidal_summand,
)
from flatring.legendre import gamma_ratio, legendre_p, legendre_q, toroidal_tables

M_MAX, N_MAX = 20, 40
# z - 1 from 1e-8 (tau = 1.4e-4) to z = 1e4 (tau = 9.9), across the 1.05 edge
# below which the scalar Q series refuses
Z_MPMATH = [1 + 1e-8, 1 + 1e-6, 1 + 1e-4, 1.001, 1.01, 1.03, 1.05, 1.5, 3.0, 10.0, 1e3, 1e4]
ORDERS = (0, 1, 7, 20)
DEGREES = (0, 1, 13, 40)

# near-axis pair: tau = 0.25 gives cosh(tau) = 1.031 < 1.05
NEAR_AXIS = (ToroidalPoint(tau=0.25, psi=1.0, phi=0.2), ToroidalPoint(tau=0.1, psi=-1.0, phi=2.0))
NEAR_AXIS_TRUNCATION = (30, 100)


def _p_reference(m, n, z):
    """mpmath P^m_{n-1/2}(z) at 40 digits.  Within 1e-3 of z = 1, legenp spends
    seconds cancelling, so the defining series (DLMF 14.3.6) with
    P^m = Gamma(nu+m+1)/Gamma(nu-m+1) P^{-m} is summed directly there."""
    z = mp.mpf(z)
    nu = mp.mpf(n) - mp.mpf(1) / 2
    if z - 1 < mp.mpf("1e-3"):
        p_minus = (((z - 1) / (z + 1)) ** (mp.mpf(m) / 2)
                   * mp.hyp2f1(nu + 1, -nu, m + 1, (1 - z) / 2) / mp.factorial(m))
        return mp.gamma(nu + m + 1) / mp.gamma(nu - m + 1) * p_minus
    return mp.re(mp.legenp(nu, m, z, type=3))


def _q_reference(m, n, z):
    # mpmath's type-3 Q carries the e^{i m pi} phase, as the tables do
    return mp.re(mp.legenq(mp.mpf(n) - mp.mpf(1) / 2, m, mp.mpf(z), type=3))


def test_tables_against_mpmath():
    with mp.workdps(40):
        p, q = toroidal_tables(np.array(Z_MPMATH), M_MAX, N_MAX)
        worst = 0.0
        for i, z in enumerate(Z_MPMATH):
            for m in ORDERS:
                for n in DEGREES:
                    for table, ref in ((p, _p_reference(m, n, z)), (q, _q_reference(m, n, z))):
                        worst = max(worst, float(abs(table[m, n, i] - ref) / abs(ref)))
    assert worst <= 1e-13


def test_high_orders_far_from_axis():
    # forty orders of P_{-1/2} run forward at large z, where coth(tau) - 1 ~ 1/(2 z^2)
    zs = [100.0, 1e3, 1e4]
    p, _ = toroidal_tables(np.array(zs), 40, 1)
    with mp.workdps(40):
        for i, z in enumerate(zs):
            for m in (30, 40):
                for n in (0, 1):
                    ref = _p_reference(m, n, z)
                    assert float(abs(p[m, n, i] - ref) / abs(ref)) <= 1e-13


def test_tables_against_series():
    rng = np.random.default_rng(3)
    # legendre_q converges from z = 1.05 on; legendre_p everywhere, but slowly
    # and less accurately for large z, so it is compared up to z = 10
    z_q = np.concatenate([rng.uniform(1.05, 1.6, 6),
                          np.exp(rng.uniform(math.log(1.6), math.log(1e4), 6))])
    z_p = np.concatenate([1.0 + np.exp(rng.uniform(math.log(1e-8), math.log(0.05), 6)),
                          rng.uniform(1.05, 10.0, 6)])
    _, q = toroidal_tables(z_q, M_MAX, N_MAX)
    p, _ = toroidal_tables(z_p, M_MAX, N_MAX)
    worst_q = worst_p = 0.0
    for m in range(0, M_MAX + 1, 4):
        for n in range(0, N_MAX + 1, 6):
            for i, z in enumerate(z_q.tolist()):
                worst_q = max(worst_q, abs(q[m, n, i] / legendre_q(n - 0.5, m, z) - 1.0))
            for i, z in enumerate(z_p.tolist()):
                worst_p = max(worst_p, abs(p[m, n, i] / legendre_p(n - 0.5, m, z) - 1.0))
    assert worst_q <= 1e-12
    assert worst_p <= 1e-12


def test_table_shapes_and_scalar_case():
    p, q = toroidal_tables(1.7, 3, 5)
    assert p.shape == q.shape == (4, 6)
    p2, q2 = toroidal_tables(np.full((2, 3), 1.7), 3, 5)
    assert p2.shape == q2.shape == (4, 6, 2, 3)
    assert np.array_equal(p2[..., 1, 2], p) and np.array_equal(q2[..., 1, 2], q)
    p0, q0 = toroidal_tables([1.7, 2.5], 0, 0)
    assert p0.shape == q0.shape == (1, 1, 2)
    assert p0[0, 0, 0] == pytest.approx(p[0, 0], rel=1e-15)
    assert q0[0, 0, 0] == pytest.approx(q[0, 0], rel=1e-15)


def test_table_domain_errors():
    for bad in (1.0, 0.5, [2.0, 1.0], float("nan"), float("inf")):
        with pytest.raises(DomainError):
            toroidal_tables(bad, 2, 2)
    with pytest.raises(DomainError):
        toroidal_tables(2.0, -1, 2)
    # P^200 ~ Gamma(200)^2 leaves the double range: a typed error, not inf
    with pytest.raises(ConvergenceError):
        toroidal_tables(1.5, 200, 4)


def _old_shells(r, r_star, m_max, n_max):
    """The per-term loop the table product replaced: one gamma_ratio and one
    legendre_q/legendre_p series pair per (m, n).  Returns the shells and, per
    shell, the sum of its terms' magnitudes (the scale its rounding is
    relative to, since the cosine weights can cancel a shell to near zero)."""
    p, ps = cartesian_to_toroidal(r), cartesian_to_toroidal(r_star)
    pref = math.sqrt((math.cosh(p.tau) - math.cos(p.psi))
                     * (math.cosh(ps.tau) - math.cos(ps.psi))) / math.pi
    shells, scales = [], []
    for n in range(n_max + 1):
        inner = size = 0.0
        for mm in range(m_max + 1):
            weight = (-1.0) ** mm * gamma_ratio(n - mm + 0.5, n + mm + 0.5)
            term = (weight * legendre_q(n - 0.5, float(mm), math.cosh(p.tau))
                    * legendre_p(n - 0.5, float(mm), math.cosh(ps.tau)))
            inner += (1.0 if mm == 0 else 2.0) * math.cos(mm * (p.phi - ps.phi)) * term
            size += (1.0 if mm == 0 else 2.0) * abs(term)
        eps_n = 1.0 if n == 0 else 2.0
        shells.append(pref * eps_n * math.cos(n * (p.psi - ps.psi)) * inner)
        scales.append(pref * eps_n * size)
    return np.array(shells), np.array(scales)


def test_expansion_shells_match_per_term_loop():
    # the bench region: tau* in [0.3, 1), tau = tau* + [1.2, 2.5]
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(8):
        tau_s = rng.uniform(0.3, 1.0)
        tau = tau_s + rng.uniform(1.2, 2.5)
        r, rs = (toroidal_to_cartesian(ToroidalPoint(tau=t, psi=rng.uniform(-3, 3),
                                                     phi=rng.uniform(-3, 3)))
                 for t in (tau, tau_s))
        _, _, shells = toroidal_green_expansion(r, rs, Truncation(20, 20))
        old, scale = _old_shells(r, rs, 20, 20)
        worst = max(worst, float(np.max(np.abs(np.array(shells) - old) / scale)))
    assert worst <= 1e-12


def test_tail_estimate_covers_error_on_bench_region():
    # the tail counts the azimuthal truncation as well as the last shells;
    # from the shells alone it covered the error on 6.25% of these pairs
    rng = np.random.default_rng(3)
    covered, count = 0, 400
    for _ in range(count):
        tau_s = rng.uniform(0.3, 1.0)
        tau = tau_s + rng.uniform(1.2, 2.5)
        r, rs = (toroidal_to_cartesian(ToroidalPoint(tau=t, psi=rng.uniform(-math.pi, math.pi),
                                                     phi=rng.uniform(-math.pi, math.pi)))
                 for t in (tau, tau_s))
        val, tail, _ = toroidal_green_expansion(r, rs, Truncation(20, 20))
        covered += abs(val - 1.0 / math.dist(r, rs)) <= tail
    assert covered >= 0.9 * count


def test_one_element_cases():
    tau, tau_s = 1.4, 0.6
    for mm, n in ((0, 0), (3, 1), (2, 5), (7, 4)):
        weight = (-1.0) ** mm * gamma_ratio(n - mm + 0.5, n + mm + 0.5)
        old = (weight * legendre_q(n - 0.5, float(mm), math.cosh(tau))
               * legendre_p(n - 0.5, float(mm), math.cosh(tau_s)))
        assert toroidal_summand(mm, n, tau, tau_s) == pytest.approx(old, rel=1e-12)
        assert toroidal_summand(-mm, -n, tau, tau_s) == toroidal_summand(mm, n, tau, tau_s)
    p = ToroidalPoint(tau=1.2, psi=0.7, phi=0.3)
    for mm, n in ((2, 1), (-2, 1), (-3, 2), (1, -4)):
        d = math.cosh(p.tau) - math.cos(p.psi)
        phase = complex(math.cos(n * p.psi + mm * p.phi), math.sin(n * p.psi + mm * p.phi))
        for external, series in ((False, legendre_q), (True, legendre_p)):
            expected = math.sqrt(d) * series(abs(n) - 0.5, float(mm), math.cosh(p.tau)) * phase
            value = toroidal_harmonic(mm, n, p, external=external)
            assert value == pytest.approx(expected, rel=1e-12)
    assert toroidal_limit_summand(-1, 2, 1.2, 0.5, 0.4, 5.38) == toroidal_limit_summand(
        1, 2, 1.2, 0.5, 0.4, 5.38)


def test_near_axis_expansion_matches_direct_distance():
    r, rs = (toroidal_to_cartesian(pt) for pt in NEAR_AXIS)
    assert math.cosh(cartesian_to_toroidal(r).tau) < 1.05
    with pytest.raises(ConvergenceError):  # the scalar series refuses this tau
        legendre_q(-0.5, 0.0, math.cosh(cartesian_to_toroidal(r).tau))
    direct = 1.0 / math.dist(r, rs)
    val, tail, shells = toroidal_green_expansion(r, rs, Truncation(*NEAR_AXIS_TRUNCATION))
    assert abs(val - direct) / direct <= 1e-8
    assert abs(shells[-1]) <= 1e-12 * direct  # the shells have converged
    assert tail <= 1e-8 * direct


def test_cli_near_axis_toroidal_green(capsys):
    r, rs = (toroidal_to_cartesian(pt) for pt in NEAR_AXIS)
    m_max, n_max = NEAR_AXIS_TRUNCATION
    code = main(["green", "--toroidal", "--m-max", str(m_max), "--n-max", str(n_max),
                 "--point=" + ",".join(map(repr, r)), "--point-star=" + ",".join(map(repr, rs))])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["relative_error"] <= 1e-8


def test_integral_relation_below_series_edge(m05):
    # s* = 0.8K, t = 0.4K', t* = 0.5K': the quadrature reaches chi = 1.014
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    x, _ = np.polynomial.legendre.leggauss(512)
    chi = flatring_chi(2.0 * K * x, 0.4 * Kp, 0.8 * K, 0.5 * Kp, m)
    assert chi.min() < 1.05
    with pytest.raises(ConvergenceError):
        legendre_q(0.5, 0.0, float(chi.min()))
    for nu, sup, kind in ((0.5, 0, "c"), (0.5, 1, "s"), (1.5, 2, "c")):
        lhs, rhs = integral_relation_check(nu, sup, kind, 0.8 * K, 0.4 * Kp, 0.5 * Kp, m)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10


def test_integral_relation_table_matches_series(m05):
    # where the series converges, the table's m = 0 column gives the same left side
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    x, w = np.polynomial.legendre.leggauss(512)
    chi = flatring_chi(2.0 * K * x, 0.2 * Kp, 0.8 * K, 0.7 * Kp, m)
    assert chi.min() >= 1.05
    _, q = toroidal_tables(chi, 0, 1)
    series = np.array([legendre_q(0.5, 0.0, c) for c in chi.tolist()])
    assert np.max(np.abs(q[0, 1] - series) / series) <= 1e-12


@pytest.mark.parametrize("argv, code, kind", [
    (["green", "--point=1,2", "--format", "json"], 2, "DomainError"),
    (["eigen", "--k", "0.999999", "--nu", "2000.5", "--n-range", "0:0", "--format", "json"],
     3, "ConvergenceError"),
])
def test_cli_json_error_object(capsys, argv, code, kind):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    error = json.loads(captured.out)["error"]
    assert error["type"] == kind
    assert error["exit_code"] == code
    assert error["message"] == captured.err[len("error: "):].strip()


def test_cli_csv_error_has_no_json(capsys):
    assert main(["green", "--point=1,2", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: point must be")

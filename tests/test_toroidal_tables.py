"""Toroidal tables P^m_{n-1/2}, Q^m_{n-1/2} from recurrences, and the
expansions and checks built on them."""

import functools
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
    _toroidal_terms,
    _toroidal_weights,
    flatring_chi,
    integral_relation_check,
    toroidal_green_expansion,
    toroidal_harmonic,
    toroidal_limit_summand,
    toroidal_summand,
)
from flatring.legendre import (
    gamma_ratio,
    legendre_p,
    legendre_q,
    toroidal_p_table,
    toroidal_q_table,
)

M_MAX, N_MAX = 20, 40
# z - 1 from 1e-8 (tau = 1.4e-4) to z = 1e4 (tau = 9.9)
Z_MPMATH = [1 + 1e-8, 1 + 1e-6, 1 + 1e-4, 1.001, 1.01, 1.03, 1.05, 1.5, 3.0, 10.0, 1e3, 1e4]
ORDERS = (0, 1, 7, 20)
DEGREES = (0, 1, 13, 40)

# near-axis pair: tau = 0.25 gives cosh(tau) = 1.031 < 1.05
NEAR_AXIS = (ToroidalPoint(tau=0.25, psi=1.0, phi=0.2), ToroidalPoint(tau=0.1, psi=-1.0, phi=2.0))
NEAR_AXIS_TRUNCATION = (30, 100)


@functools.cache  # shared by the tests that read the same grid
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


@functools.cache
def _q_reference(m, n, z):
    # mpmath's type-3 Q carries the e^{i m pi} phase, as the tables do
    return mp.re(mp.legenq(mp.mpf(n) - mp.mpf(1) / 2, m, mp.mpf(z), type=3))


def test_tables_against_mpmath():
    z = np.array(Z_MPMATH)
    with mp.workdps(40):
        p, q = toroidal_p_table(z, M_MAX, N_MAX), toroidal_q_table(z, M_MAX, N_MAX)
        worst = 0.0
        for i, z in enumerate(Z_MPMATH):
            for m in ORDERS:
                for n in DEGREES:
                    for table, ref in ((p, _p_reference(m, n, z)), (q, _q_reference(m, n, z))):
                        worst = max(worst, float(abs(table[m, n, i] - ref) / abs(ref)))
    assert worst <= 1e-13


def test_single_tables_against_mpmath_and_the_pair():
    # each table built alone at one z against mpmath, and the pair of array
    # calls against it: an array z maps the one-point build over its points
    z = np.array(Z_MPMATH)
    p_all, q_all = toroidal_p_table(z, M_MAX, N_MAX), toroidal_q_table(z, M_MAX, N_MAX)
    worst = 0.0
    with mp.workdps(40):
        for i, zi in enumerate(Z_MPMATH):
            p, q = toroidal_p_table(zi, M_MAX, N_MAX), toroidal_q_table(zi, M_MAX, N_MAX)
            assert p.shape == q.shape == (M_MAX + 1, N_MAX + 1)
            assert np.array_equal(p, p_all[..., i])
            assert np.array_equal(q, q_all[..., i])
            for m in ORDERS:
                for n in DEGREES:
                    for table, ref in ((p, _p_reference(m, n, zi)), (q, _q_reference(m, n, zi))):
                        worst = max(worst, float(abs(table[m, n] - ref) / abs(ref)))
    assert worst <= 1e-13
    for build in (toroidal_p_table, toroidal_q_table):
        with pytest.raises(DomainError):
            build(1.0, 2, 2)
        with pytest.raises(DomainError):
            build(2.0, 2, -1)
        with pytest.raises(ConvergenceError):
            build(1.5, 200, 4)


def test_array_tables_equal_one_point_tables_bit_for_bit():
    # over the bench region (tau* in [0.3, 1), tau = tau* + [1.2, 2.5]), where
    # Q is read at cosh tau and P at cosh tau*; Z_MPMATH is covered by
    # test_single_tables_against_mpmath_and_the_pair
    rng = np.random.default_rng(5)
    tau_s = rng.uniform(0.3, 1.0, 40)
    z = np.cosh([tau_s + rng.uniform(1.2, 2.5, 40), tau_s])
    for build in (toroidal_p_table, toroidal_q_table):
        table = build(z, 20, 20)
        assert table.shape == (21, 21, 2, 40)
        for i, j in np.ndindex(z.shape):
            assert np.array_equal(build(float(z[i, j]), 20, 20), table[..., i, j])


def test_cached_weights_are_read_only():
    # the Gamma-ratio weights of the expansion are cached, so every caller
    # gets the same array
    weights = _toroidal_weights(20, 20)
    assert _toroidal_weights(20, 20) is weights
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0] = 2.0
    reference = [[(-1.0) ** m * gamma_ratio(n - m + 0.5, n + m + 0.5) for n in range(21)]
                 for m in range(21)]
    np.testing.assert_allclose(weights, reference, rtol=1e-13, atol=0.0)


def test_expansion_terms_match_the_pair_tables():
    # Q at cosh tau and P at cosh tau* from their own tables against the
    # joint tables at both points, over the bench region
    rng = np.random.default_rng(17)
    m = np.arange(21)[:, None]
    diff = np.arange(21) - m + 0.5
    weights = (-1.0) ** m * np.array([[gamma_ratio(d, d + 2 * mm) for d in row]
                                      for mm, row in zip(range(21), diff)])
    worst = 0.0
    for _ in range(500):
        tau_s = rng.uniform(0.3, 1.0)
        tau = tau_s + rng.uniform(1.2, 2.5)
        z = np.cosh([tau, tau_s])
        p, q = toroidal_p_table(z, 20, 20), toroidal_q_table(z, 20, 20)
        joint = weights * q[..., 0] * p[..., 1]
        terms = _toroidal_terms(tau, tau_s, 20, 20)
        worst = max(worst, float(np.max(np.abs(terms - joint)) / np.max(np.abs(joint))))
    assert worst <= 1e-14


def test_high_orders_far_from_axis():
    # forty orders of P_{-1/2} run forward at large z, where coth(tau) - 1 ~ 1/(2 z^2)
    zs = [100.0, 1e3, 1e4]
    p = toroidal_p_table(np.array(zs), 40, 1)
    with mp.workdps(40):
        for i, z in enumerate(zs):
            for m in (30, 40):
                for n in (0, 1):
                    ref = _p_reference(m, n, z)
                    assert float(abs(p[m, n, i] - ref) / abs(ref)) <= 1e-13


def test_tables_against_series():
    rng = np.random.default_rng(3)
    z_q = np.concatenate([rng.uniform(1.05, 1.6, 6),
                          np.exp(rng.uniform(math.log(1.6), math.log(1e4), 6))])
    z_p = np.concatenate([1.0 + np.exp(rng.uniform(math.log(1e-8), math.log(0.05), 6)),
                          rng.uniform(1.05, 10.0, 6)])
    # Q below z = 1.05 and P out to z = 1e4
    z_q = np.concatenate([z_q, 1.0 + np.exp(rng.uniform(math.log(1e-8), math.log(0.05), 6))])
    z_p = np.concatenate([z_p, np.exp(rng.uniform(math.log(10.0), math.log(1e4), 6))])
    q = toroidal_q_table(z_q, M_MAX, N_MAX)
    p = toroidal_p_table(z_p, M_MAX, N_MAX)
    worst_q = worst_p = 0.0
    for m in range(0, M_MAX + 1, 4):
        for n in range(0, N_MAX + 1, 6):
            worst_q = max(worst_q, np.max(np.abs(q[m, n] / legendre_q(n - 0.5, m, z_q) - 1.0)))
            worst_p = max(worst_p, np.max(np.abs(p[m, n] / legendre_p(n - 0.5, m, z_p) - 1.0)))
    assert worst_q <= 1e-12
    assert worst_p <= 1e-12


def _pair(z, m_max, n_max):
    return toroidal_p_table(z, m_max, n_max), toroidal_q_table(z, m_max, n_max)


def test_table_shapes_and_scalar_case():
    p, q = _pair(1.7, 3, 5)
    assert p.shape == q.shape == (4, 6)
    p2, q2 = _pair(np.full((2, 3), 1.7), 3, 5)
    assert p2.shape == q2.shape == (4, 6, 2, 3)
    assert np.array_equal(p2[..., 1, 2], p) and np.array_equal(q2[..., 1, 2], q)
    p0, q0 = _pair([1.7, 2.5], 0, 0)
    assert p0.shape == q0.shape == (1, 1, 2)
    assert p0[0, 0, 0] == pytest.approx(p[0, 0], rel=1e-15)
    assert q0[0, 0, 0] == pytest.approx(q[0, 0], rel=1e-15)


def test_table_domain_errors():
    for build in (toroidal_p_table, toroidal_q_table):
        for bad in (1.0, 0.5, [2.0, 1.0], float("nan"), float("inf")):
            with pytest.raises(DomainError):
                build(bad, 2, 2)
        with pytest.raises(DomainError):
            build(2.0, -1, 2)
        # P^200 ~ Gamma(200)^2 leaves the double range: a typed error, not inf
        with pytest.raises(ConvergenceError):
            build(1.5, 200, 4)


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
    z = math.cosh(cartesian_to_toroidal(r).tau)
    assert z < 1.05
    # the table is an oracle for legendre_q at this z < 1.05 too
    assert legendre_q(-0.5, 0.0, z) == pytest.approx(toroidal_q_table(z, 0, 0)[0, 0], rel=1e-12)
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
    # the table is an oracle for legendre_q on every node, chi < 1.05 included
    q = toroidal_q_table(chi, 0, 1)[0, 1]
    assert np.max(np.abs(legendre_q(0.5, 0.0, chi) / q - 1.0)) <= 1e-12
    for nu, sup, kind in ((0.5, 0, "c"), (0.5, 1, "s"), (1.5, 2, "c"), (0.75, 0, "c")):
        lhs, rhs = integral_relation_check(nu, sup, kind, 0.8 * K, 0.4 * Kp, 0.5 * Kp, m)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10


def test_integral_relation_table_matches_series(m05):
    # where the series converges, the table's m = 0 column gives the same left side
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    x, w = np.polynomial.legendre.leggauss(512)
    chi = flatring_chi(2.0 * K * x, 0.2 * Kp, 0.8 * K, 0.7 * Kp, m)
    assert chi.min() >= 1.05
    q = toroidal_q_table(chi, 0, 1)
    series = np.array([legendre_q(0.5, 0.0, c) for c in chi.tolist()])
    assert np.max(np.abs(q[0, 1] - series) / series) <= 1e-12


@pytest.mark.parametrize("argv, code, kind", [
    (["green", "--point=1,2", "--format", "json"], 2, "DomainError"),
    (["eigen", "--k", "0.999999", "--nu", "2000.5", "--n-range", "0:0", "--format", "json"],
     3, "ConvergenceError"),
    # Q^200 and P^200 leave the double range
    (["green", "--toroidal", "--m-max", "200", "--format", "json"], 3, "ConvergenceError"),
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

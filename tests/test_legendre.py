import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from flatring.elliptic import complete_k
from flatring.errors import DomainError
from flatring.legendre import gamma_ratio, legendre_p, legendre_q


def test_legendre_p_degree_zero_is_one():
    for z in [1.001, 2.0, 50.0, 1e4]:
        assert legendre_p(0.0, 0.0, z) == pytest.approx(1.0, rel=1e-13)


def test_legendre_p_minus_half_closed_form_and_heine_oracle():
    for tau in [0.3, 1.3, 2.5]:
        z = math.cosh(tau)
        closed = (2.0 / math.pi) * math.sqrt(2.0 / (z + 1.0)) * complete_k(
            math.sqrt((z - 1.0) / (z + 1.0)))
        heine, _ = quad(lambda th: (z + math.sqrt(z * z - 1.0) * math.cos(th)) ** -0.5,
                        0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        heine /= math.pi
        val = legendre_p(-0.5, 0.0, z)
        assert val == pytest.approx(closed, rel=1e-10)
        assert val == pytest.approx(heine, rel=1e-10)
    # continuity toward the endpoint value P_{-1/2}(1) = 1
    assert legendre_p(-0.5, 0.0, 1.0 + 1e-10) == pytest.approx(1.0, rel=1e-9)


def test_legendre_p_connection_identity():
    # P^m * Gamma(nu-m+1)/Gamma(nu+m+1) = P^{-m} on the half-integer grid
    for n in range(5):
        nu = n - 0.5
        for m in range(5):
            for z in (1.1, 2.0, 10.0):
                lhs = legendre_p(nu, float(m), z) * gamma_ratio(nu - m + 1.0, nu + m + 1.0)
                rhs = legendre_p(nu, float(-m), z)
                assert lhs == pytest.approx(rhs, rel=1e-11)


def test_legendre_p_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    cases = [(-0.5, 0, 1.5), (2.5, 1, 1.3), (19.5, 20, 1.2), (3.5, -4, 1.05),
             (9.5, 0, 1e4), (0.75, 0, 5.0), (24.5, 20, 4.0)]
    for nu, m, z in cases:
        ref = float(mpmath.legenp(nu, m, z, type=3))
        assert legendre_p(nu, float(m), z) == pytest.approx(ref, rel=1e-11)


def test_legendre_q_minus_half_closed_form():
    for z in (1.5, 3.0, 10.0):
        arg = math.sqrt(2.0 / (z + 1.0))
        closed = arg * complete_k(arg)
        assert legendre_q(-0.5, 0.0, z) == pytest.approx(closed, rel=1e-12)


def test_legendre_q_decay_at_infinity():
    for n in range(4):
        for m in range(3):
            vals = [abs(legendre_q(n - 0.5, float(m), z)) for z in (10.0, 30.0, 100.0, 1000.0)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


def test_legendre_q_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    cases = [(-0.5, 0, 1.5), (1.5, 0, 2.0), (2.5, 1, 1.3), (4.5, 3, 10.0),
             (0.75, 0, 1.8), (19.5, 2, 1.2), (-0.5, 10, 2.0), (5.5, -2, 1.5)]
    for nu, m, z in cases:
        ref = complex(mpmath.legenq(nu, m, z, type=3))
        assert abs(ref.imag) < 1e-25
        assert legendre_q(nu, float(m), z) == pytest.approx(ref.real, rel=1e-11)


def test_wronskian_of_p_and_q():
    # W[P, Q](x) = e^{i mu pi} Gamma(nu+mu+1)/Gamma(nu-mu+1) / (1 - x^2),
    # checked by finite differences at x = 2, order 1, degree 3/2
    nu, m, x = 1.5, 1, 2.0
    h = 1e-5
    dp = (legendre_p(nu, m, x + h) - legendre_p(nu, m, x - h)) / (2.0 * h)
    dq = (legendre_q(nu, m, x + h) - legendre_q(nu, m, x - h)) / (2.0 * h)
    w = legendre_p(nu, m, x) * dq - legendre_q(nu, m, x) * dp
    expected = (-1.0) ** m * gamma_ratio(nu + m + 1.0, nu - m + 1.0) / (1.0 - x * x)
    assert w == pytest.approx(expected, rel=1e-8)


def test_growth_and_decay_patterns_in_tau():
    taus = np.linspace(0.5, 3.0, 8)
    for n in (1, 2, 4):
        for m in (0, 1):
            qv = [legendre_q(n - 0.5, float(m), math.cosh(t)) for t in taus]
            pv = [legendre_p(n - 0.5, float(m), math.cosh(t)) for t in taus]
            assert all(abs(b) < abs(a) for a, b in zip(qv, qv[1:]))
            assert all(abs(b) > abs(a) for a, b in zip(pv, pv[1:]))


def test_domain_errors():
    with pytest.raises(DomainError):
        legendre_p(0.5, 0.0, 0.9)
    with pytest.raises(DomainError):
        legendre_q(0.5, 0.0, 1.0)
    # z close to 1 is in range: a value, checked against mpmath
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(mpmath.re(mpmath.legenq(0.5, 0, 1.01, type=3)))
    assert legendre_q(0.5, 0.0, 1.01) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(DomainError):
        legendre_q(0.5, 0.25, 2.0)  # non-integer order is complex-valued
    with pytest.raises(DomainError):
        legendre_q(-3.0, 1.0, 2.0)  # degree + order in -N


@pytest.mark.parametrize("nu, m", [(-1.5, 0.0), (-1.5, 2.0), (-3.5, 2.0)])
def test_legendre_q_refuses_gamma_pole_degrees(nu, m):
    # at nu + 3/2 in {0, -1, ...} the closed form would take 0 * inf; the
    # degree is refused before anything is evaluated, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"nu = {nu!r}")):
            legendre_q(nu, m, 2.0)


def test_gamma_ratio_half_integers_and_poles():
    assert gamma_ratio(3.5, 1.5) == pytest.approx(2.5 * 1.5, rel=1e-14)
    # Gamma pole in the denominator gives 0
    assert gamma_ratio(2.0, -1.0) == 0.0
    assert gamma_ratio(0.5 - 21.0, 0.5 + 21.0) == pytest.approx(
        math.pi * (-1.0) ** 21 / math.gamma(21.5) ** 2, rel=1e-12)
    # poles in both: the ratio of residues, Gamma(-3+e)/Gamma(-1+e) -> (-1)^2 1!/3!
    assert gamma_ratio(-3.0, -1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    # which P^1_{-3} reaches: P^m_{-nu-1} = P^m_nu (DLMF 14.9.5)
    assert legendre_p(-3.0, 1.0, 1.5) == pytest.approx(legendre_p(2.0, 1.0, 1.5), rel=1e-15)
    assert legendre_p(2.0, 1.0, 1.5) == pytest.approx(5.031152949374526, rel=1e-15)


GRID_NUS = (-0.5, 0.5, 0.75, 2.5, 9.5, 19.5, 24.5)
GRID_ORDERS = (0, 1, 2, 4, 10, 20)
GRID_Z = (1 + 1e-8, 1 + 1e-6, 1 + 1e-4, 1.001, 1.01, 1.03, 1.05, 1.5, 3.0, 10.0, 1e3, 1e4)


@pytest.mark.parametrize("nu", GRID_NUS)
def test_p_and_q_against_mpmath_grid(nu):
    # P^{-m} from its defining series (DLMF 14.3.6) at 40 digits, and P^m through
    # mpmath's Gamma ratio: legenp spends seconds cancelling near z = 1.  Q^{+-m}
    # from legenq, whose type-3 Q carries the e^{i m pi} phase as legendre_q does.
    mp = pytest.importorskip("mpmath")
    z_arr = np.array(GRID_Z)
    with mp.workdps(40):
        v = mp.mpf(nu)
        for m in GRID_ORDERS:
            for z in GRID_Z:
                x = mp.mpf(z)
                p_minus = (((x - 1) / (x + 1)) ** (mp.mpf(m) / 2)
                           * mp.hyp2f1(v + 1, -v, m + 1, (1 - x) / 2) / mp.factorial(m))
                refs = {(legendre_p, -m): p_minus,
                        (legendre_p, m): mp.gamma(v + m + 1) / mp.gamma(v - m + 1) * p_minus,
                        (legendre_q, m): mp.re(mp.legenq(v, m, x, type=3)),
                        (legendre_q, -m): mp.re(mp.legenq(v, -m, x, type=3))}
                for (f, order), ref in refs.items():
                    assert abs(f(nu, float(order), z) / ref - 1) <= 1e-12, (f.__name__, order, z)
            for f in (legendre_p, legendre_q):
                for order in (m, -m):
                    arr = f(nu, float(order), z_arr)
                    assert arr.shape == z_arr.shape
                    # numpy's vector loops may round a power one ulp apart from its scalar one
                    np.testing.assert_allclose(arr, [f(nu, float(order), z) for z in GRID_Z],
                                               rtol=1e-15, atol=0.0)

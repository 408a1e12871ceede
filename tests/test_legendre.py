import math

import numpy as np
import pytest
from scipy.integrate import quad

from flatring.elliptic import complete_k
from flatring.errors import ConvergenceError, DomainError
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
    with pytest.raises(ConvergenceError):
        legendre_q(0.5, 0.0, 1.01)  # below the slow-convergence cutoff
    with pytest.raises(DomainError):
        legendre_q(0.5, 0.25, 2.0)  # non-integer order is complex-valued
    with pytest.raises(DomainError):
        legendre_q(-3.0, 1.0, 2.0)  # degree + order in -N


def test_gamma_ratio_half_integers_and_poles():
    assert gamma_ratio(3.5, 1.5) == pytest.approx(2.5 * 1.5, rel=1e-14)
    # Gamma pole in the denominator gives 0
    assert gamma_ratio(2.0, -1.0) == 0.0
    assert gamma_ratio(0.5 - 21.0, 0.5 + 21.0) == pytest.approx(
        math.pi * (-1.0) ** 21 / math.gamma(21.5) ** 2, rel=1e-12)

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from flatring.elliptic import (
    JacobiImag,
    Modulus,
    complete_k,
    jacobi_imag,
    jacobi_real,
    ns2_series_coeffs,
    sn2_fourier_coeffs,
)
from flatring.errors import DomainError, PoleError

K_HALF = 1.685750354812596  # K(0.5), frozen from the quadrature oracle


def test_complete_k_zero_modulus():
    assert complete_k(0.0) == pytest.approx(math.pi / 2, abs=5e-16)


def test_complete_k_against_quadrature_oracle():
    oracle, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - 0.25 * math.sin(th) ** 2),
                     0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    assert abs(oracle - K_HALF) < 1e-12
    assert abs(complete_k(0.5) - oracle) / oracle < 1e-13


def test_complete_k_self_complementary_point():
    k = 1.0 / math.sqrt(2.0)
    m = Modulus.from_k(k)
    assert abs(m.quarter_K - m.quarter_Kp) < 1e-14


def test_complete_k_domain_errors():
    with pytest.raises(DomainError):
        complete_k(1.0)
    with pytest.raises(DomainError):
        complete_k(-0.1)
    with pytest.raises(DomainError):
        Modulus.from_k(0.0)


def test_modulus_consistency_invariants():
    m = Modulus.from_k(0.37)
    assert abs(m.k ** 2 + m.k_prime ** 2 - 1.0) < 1e-15
    assert m.quarter_K > 0.0 and m.quarter_Kp > 0.0
    with pytest.raises(DomainError):
        Modulus(k=0.5, k_prime=0.5, quarter_K=1.0, quarter_Kp=1.0)


def test_complete_k_monotone_and_complement():
    ks = np.linspace(0.02, 0.98, 25)
    kv = [complete_k(float(k)) for k in ks]
    kpv = [complete_k(math.sqrt(1.0 - k * k)) for k in ks]
    assert all(b > a for a, b in zip(kv, kv[1:]))
    assert all(b < a for a, b in zip(kpv, kpv[1:]))


def test_jacobi_at_zero():
    m = Modulus.from_k(0.37)
    t = jacobi_real(0.0, m)
    assert (t.sn, t.cn, t.dn) == (0.0, 1.0, 1.0)


def test_jacobi_quarter_period_values():
    m = Modulus.from_k(0.5)
    t = jacobi_real(m.quarter_K, m)
    assert t.sn == pytest.approx(1.0, abs=1e-14)
    assert t.cn == pytest.approx(0.0, abs=1e-14)
    assert t.dn == pytest.approx(math.sqrt(0.75), abs=1e-14)


def test_jacobi_against_ode_oracle():
    # sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn from (0, 1, 1)
    k = 0.7
    m = Modulus.from_k(k)

    def rhs(_, y):
        sn, cn, dn = y
        return [cn * dn, -sn * dn, -k * k * sn * cn]

    sol = solve_ivp(rhs, (0.0, 0.3), [0.0, 1.0, 1.0], rtol=1e-13, atol=1e-14)
    t = jacobi_real(0.3, m)
    assert abs(t.sn - sol.y[0, -1]) < 1e-12
    assert abs(t.cn - sol.y[1, -1]) < 1e-12
    assert abs(t.dn - sol.y[2, -1]) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(-10.0, 10.0))
def test_jacobi_pythagorean_identities(k, u):
    m = Modulus.from_k(k)
    t = jacobi_real(u, m)
    assert abs(t.sn ** 2 + t.cn ** 2 - 1.0) < 1e-13
    assert abs(t.dn ** 2 + k * k * t.sn ** 2 - 1.0) < 1e-13


def test_jacobi_periodicity():
    m = Modulus.from_k(0.61)
    period = 4.0 * m.quarter_K
    for u in np.linspace(-5.0, 5.0, 21):
        a = jacobi_real(float(u), m)
        b = jacobi_real(float(u) + period, m)
        c = jacobi_real(float(u) + 0.5 * period, m)
        assert abs(a.sn - b.sn) < 1e-12
        assert abs(a.cn - b.cn) < 1e-12
        assert abs(a.dn - c.dn) < 1e-12


def test_jacobi_imag_at_zero():
    m = Modulus.from_k(0.5)
    t = jacobi_imag(0.0, m)
    assert (t.sn_im, t.cn, t.dn) == (0.0, 1.0, 1.0)


def test_jacobi_imag_identity_closure():
    m = Modulus.from_k(0.5)
    t = jacobi_imag(0.5 * m.quarter_Kp, m)
    # sn(it)^2 = -sn_im^2, so the identities close as cn^2 - sn_im^2 = 1
    assert abs(t.cn ** 2 - t.sn_im ** 2 - 1.0) < 1e-13
    assert abs(t.dn ** 2 - m.k ** 2 * t.sn_im ** 2 - 1.0) < 1e-13


def test_jacobi_imag_against_complex_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    m = Modulus.from_k(0.3)
    t = 0.9 * m.quarter_Kp
    val = jacobi_imag(t, m)
    sn_c = mpmath.ellipfun("sn", u=1j * t, m=m.k ** 2)
    cn_c = mpmath.ellipfun("cn", u=1j * t, m=m.k ** 2)
    dn_c = mpmath.ellipfun("dn", u=1j * t, m=m.k ** 2)
    assert abs(val.sn_im - float((-1j * sn_c).real)) / abs(val.sn_im) < 1e-11
    assert abs(val.cn - float(cn_c.real)) / abs(val.cn) < 1e-11
    assert abs(val.dn - float(dn_c.real)) / abs(val.dn) < 1e-11


@pytest.mark.parametrize("k", [1e-3, 1e-2, 0.5, 0.99])
def test_jacobi_imag_full_precision_at_every_k(k):
    # sc, nc and dc at modulus k' against mpmath with the parameter 1 - k^2
    # formed exactly; 1 - k'^2 formed in double loses the digits of k^2
    mpmath = pytest.importorskip("mpmath")
    m = Modulus.from_k(k)
    ts = np.linspace(0.05, 0.95, 37) * m.quarter_Kp
    got = jacobi_imag(ts, m)
    with mpmath.workdps(40):
        par = 1 - mpmath.mpf(k) ** 2
        for i, t in enumerate(ts.tolist()):
            sn, cn, dn = (mpmath.ellipfun(name, t, m=par) for name in ("sn", "cn", "dn"))
            for value, ref in ((got.sn_im[i], sn / cn), (got.cn[i], 1 / cn), (got.dn[i], dn / cn)):
                assert abs(value - ref) <= 1e-13 * abs(ref), (t, value)


def test_jacobi_imag_pole_guard():
    m = Modulus.from_k(0.5)
    with pytest.raises(PoleError):
        jacobi_imag(m.quarter_Kp, m)
    with pytest.raises(PoleError):
        jacobi_imag(-m.quarter_Kp + 1e-12, m)


def test_jacobi_imag_parity():
    m = Modulus.from_k(0.44)
    for t in np.linspace(0.05, 0.9, 9) * m.quarter_Kp:
        a = jacobi_imag(float(t), m)
        b = jacobi_imag(float(-t), m)
        assert abs(a.sn_im + b.sn_im) < 1e-14 * max(1.0, abs(a.sn_im))
        assert abs(a.cn - b.cn) < 1e-14 * a.cn
        assert abs(a.dn - b.dn) < 1e-14 * a.dn


def test_ns2_constant_term():
    m = Modulus.from_k(0.6)
    r = ns2_series_coeffs(m, 6)
    assert r[0] == 1.0


def test_ns2_tau_squared_term():
    # reversion of sn(tau, k') = tau - (1 + k'^2) tau^3/6 + ... gives (1+k'^2)/3
    m = Modulus.from_k(0.6)
    r = ns2_series_coeffs(m, 6)
    assert r[1] == pytest.approx((1.0 + m.k_prime ** 2) / 3.0, rel=1e-13)


def test_ns2_partial_sum_against_direct():
    m = Modulus.from_k(0.6)
    r = ns2_series_coeffs(m, 24)
    tau = 0.1
    sn = jacobi_real(tau, Modulus.from_k(m.k_prime)).sn
    direct = tau * tau / (sn * sn)
    series = sum(float(r[p]) * tau ** (2 * p) for p in range(len(r)))
    assert abs(series - direct) < 1e-12


def test_ns2_order_cap():
    m = Modulus.from_k(0.6)
    with pytest.raises(DomainError):
        ns2_series_coeffs(m, 65)
    with pytest.raises(DomainError):
        ns2_series_coeffs(m, 0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 0.9), st.floats(0.01, 0.3))
def test_ns2_series_matches_direct_evaluation(k, tau):
    m = Modulus.from_k(k)
    r = ns2_series_coeffs(m, 32)
    sn = jacobi_real(tau, Modulus.from_k(m.k_prime)).sn
    direct = tau * tau / (sn * sn)
    series = sum(float(r[p]) * tau ** (2 * p) for p in range(len(r)))
    assert abs(series - direct) < 1e-11 * direct


def _ns2_reference(k: float, count: int) -> list:
    """tau**2 ns(tau, k')**2 coefficients at 100 digits by an independent route:
    the odd Maclaurin series of sn from sn'' = -(1 + kappa**2) sn + 2 kappa**2 sn**3,
    its square, and the reciprocal of the square.  The reciprocal cancels about
    40 digits, which 100 absorb."""
    with mp.workdps(100):
        kp2 = (1 - mp.mpf(k)) * (1 + mp.mpf(k))
        s = [mp.mpf(1)]  # sn = sum s[i] tau**(2i+1)
        sq = [mp.mpf(1)]  # (sn/tau)**2 = sum sq[i] tau**(2i)
        for i in range(count):
            cube = mp.fsum(sq[p] * s[i - 1 - p] for p in range(i))
            s.append((-(1 + kp2) * s[i] + 2 * kp2 * cube) / ((2 * i + 3) * (2 * i + 2)))
            sq.append(mp.fsum(s[p] * s[i + 1 - p] for p in range(i + 2)))
        r = [mp.mpf(1)]
        for i in range(1, count):
            r.append(-mp.fsum(sq[p] * r[i - p] for p in range(1, i + 1)))
        return r


@pytest.mark.parametrize("k", [1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6])
def test_ns2_coefficients_against_high_precision_reference(k):
    got = ns2_series_coeffs(Modulus.from_k(k), 64)
    ref = np.array([float(x) for x in _ns2_reference(k, 64)])
    keep = np.abs(ref) > 1e-290
    assert keep.sum() > 40
    assert np.max(np.abs(got - ref)[keep] / np.abs(ref[keep])) < 1e-13


@pytest.mark.parametrize("k", [1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
@pytest.mark.parametrize("frac", [0.6, 0.7])
def test_ns2_full_sum_near_radius(k, frac):
    # the radius of convergence is 2 min(K, K'), the nearest zero of sn(tau, k')
    m = Modulus.from_k(k)
    tau = frac * 2.0 * min(m.quarter_K, m.quarter_Kp)
    series = np.polynomial.polynomial.polyval(tau * tau, ns2_series_coeffs(m, 64))
    with mp.workdps(40):
        sn = mp.ellipfun("sn", tau, m=(1 - mp.mpf(k)) * (1 + mp.mpf(k)))
        ref = float((mp.mpf(tau) / sn) ** 2)
    assert abs(series - ref) < 1e-14 * ref


@pytest.mark.parametrize("k", [1e-6, 1e-3, 0.5, 0.99, 1.0 - 1e-9])
def test_landen_quantities_against_mpmath(k):
    m = Modulus.from_k(k)
    with mp.workdps(50):
        k2 = mp.mpf(k) ** 2
        big_k, big_kp = mp.ellipk(k2), mp.ellipk((1 - mp.mpf(k)) * (1 + mp.mpf(k)))
        deficit = (1 - mp.ellipe(k2) / big_k) / k2
    for got, ref in ((m.quarter_K, big_k), (m.quarter_Kp, big_kp), (complete_k(k), big_k),
                     (sn2_fourier_coeffs(m, 3)[0], deficit)):
        assert abs(got - float(ref)) < 5e-16 * float(ref)

import math

import numpy as np
import pytest
from scipy.special import ellipj

from flatring.elliptic import Modulus, jacobi_imag
from flatring.errors import DomainError
from flatring.lame import (
    LameBasis,
    LameFamily,
    basis_for,
    eigenvalue_bracket,
    family_of_superscript,
    _frobenius_coeffs,
    _frobenius_series,
)
from flatring.legendre import legendre_p, legendre_q


def spectral_eigenvalues(family, nu, m, nmodes=220, nquad=2048):
    """Independent oracle: trigonometric-basis discretization of the Hill
    operator with the potential sampled through scipy's ellipj."""
    K = m.quarter_K
    x, w = np.polynomial.legendre.leggauss(nquad)
    s = 0.5 * K * (x + 1.0)
    w = 0.5 * K * w
    q = nu * (nu + 1.0) * m.k ** 2 * ellipj(s, m.k ** 2)[0] ** 2
    j = np.arange(nmodes)
    if family is LameFamily.EC_EVEN:
        freq = j * np.pi / K
        phi = np.cos(np.outer(s, freq))
    elif family is LameFamily.EC_ODD:
        freq = (j + 0.5) * np.pi / K
        phi = np.sin(np.outer(s, freq))
    elif family is LameFamily.ES_ODD:
        freq = (j + 0.5) * np.pi / K
        phi = np.cos(np.outer(s, freq))
    else:
        freq = (j + 1.0) * np.pi / K
        phi = np.sin(np.outer(s, freq))
    phi = phi / np.sqrt((w[:, None] * phi ** 2).sum(axis=0))
    v = phi.T @ (phi * (w * q)[:, None])
    return np.linalg.eigvalsh(np.diag(freq ** 2) + v)


def test_superscript_mapping_roundtrip():
    for fam in LameFamily:
        for n in range(6):
            sup = fam.superscript(n)
            fam2, n2 = family_of_superscript(fam.kind, sup)
            assert (fam2, n2) == (fam, n)


def test_brackets_for_negative_nu():
    # nu = -1/2: -k^2/4 + (pi n / 2K)^2 <= h <= (pi n / 2K)^2
    m = Modulus.from_k(0.5)
    for fam in (LameFamily.EC_EVEN, LameFamily.ES_ODD):
        b, cols = basis_for([(fam, n) for n in range(9)], -0.5, m)
        for n, h in enumerate(b.h[cols]):
            big_n = fam.superscript(n)
            base = (math.pi * big_n / (2.0 * m.quarter_K)) ** 2
            assert base - m.k ** 2 / 4.0 - 1e-9 <= h <= base + 1e-9


def test_small_k_limit_eigenvalue_and_eigenfunction():
    m = Modulus.from_k(1e-3)
    fam, nz = family_of_superscript("c", 2)
    b, cols = basis_for([(fam, nz)], 1.5, m)
    assert abs(b.h[cols[0]] - 4.0) < 5e-3
    grid = np.linspace(0.0, m.quarter_K, 40)
    limit = math.sqrt(4.0 / math.pi) * np.cos(2.0 * (0.5 * math.pi - grid))
    vals = np.array([b.real(float(s), cols=cols)[0, 0] for s in grid])
    assert np.max(np.abs(vals - limit)) < 1e-2


def test_eigenvalue_against_spectral_oracle():
    m = Modulus.from_k(0.5)
    b, cols = basis_for([(LameFamily.EC_EVEN, n) for n in range(5)], 0.5, m)
    ref = spectral_eigenvalues(LameFamily.EC_EVEN, 0.5, m)
    for i, h in enumerate(b.h[cols]):
        assert abs(h - ref[i]) / max(1.0, abs(ref[i])) < 1e-8


def test_eigenvalues_increase_with_n(m05):
    for fam in LameFamily:
        b, cols = basis_for([(fam, n) for n in range(6)], 1.5, m05)
        hs = b.h[cols].tolist()
        assert all(b > a for a, b in zip(hs, hs[1:]))


def test_real_axis_parity_and_periodicity(m05):
    b, cols = basis_for([(LameFamily.EC_EVEN, 2)], 0.5, m05)  # superscript 4

    def e(s):
        return b.real(s, cols=cols)[0, 0]

    for s in (0.3, 1.1, 2.2):
        assert abs(e(s + 2 * m05.quarter_K) - e(s)) < 1e-12
        assert abs(e(-s) - e(s)) < 1e-12
    b, cols = basis_for([(LameFamily.EC_ODD, 1)], 0.5, m05)  # superscript 3, antiperiodic
    for s in (0.3, 1.1):
        assert abs(e(s + 2 * m05.quarter_K) + e(s)) < 1e-12


def test_es_even_boundary_zeros(m05):
    b, cols = basis_for([(LameFamily.ES_EVEN, 1)], 0.5, m05)
    assert abs(b.real(0.0, cols=cols)[0, 0]) < 1e-12
    assert abs(b.real(m05.quarter_K, cols=cols)[0, 0]) < 1e-12


def test_sup_bound_uniform(m05):
    grid = np.linspace(-2.0, 2.0, 60) * m05.quarter_K
    for nu in (-0.5, 0.5, 2.5):
        for fam in LameFamily:
            b, cols = basis_for([(fam, n) for n in range(4)], nu, m05)
            for j in cols:
                sup = max(b.real(float(s), cols=[j])[0, 0] ** 2 for s in grid)
                assert sup <= b.sup_bound + 1e-10


def test_orthonormality_within_family(m05):
    x, w = np.polynomial.legendre.leggauss(256)
    s = 0.5 * m05.quarter_K * (x + 1.0)
    w = 0.5 * m05.quarter_K * w
    for fam in (LameFamily.EC_EVEN, LameFamily.ES_EVEN):
        b, cols = basis_for([(fam, n) for n in range(6)], 1.5, m05)
        vals = b.real(s, cols=cols).T
        gram = (vals * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-9


def test_combined_four_family_basis(m05):
    # all four families on (-2K, 2K), each multiplied by 1/2, are orthonormal
    x, w = np.polynomial.legendre.leggauss(512)
    s = 2.0 * m05.quarter_K * x
    w = 2.0 * m05.quarter_K * w
    b, cols = basis_for([(fam, n) for fam in LameFamily for n in range(3)], 0.5, m05)
    vals = 0.5 * b.real(s, cols=cols).T
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(cols)))) < 1e-8


def test_imag_axis_continuity_at_zero(m05):
    for fam in (LameFamily.EC_EVEN, LameFamily.EC_ODD):
        b, cols = basis_for([(fam, 1)], 2.5, m05)
        e0, d0 = b.boundary_data[cols[0]]
        assert b.imag(0.0, cols=cols)[0, 0] == e0
        # approach from t > 0
        assert b.imag(1e-8, cols=cols)[0, 0] == pytest.approx(e0 + 1e-8 * d0, abs=1e-12)


def test_imag_axis_monotonicity(m05):
    ts = np.linspace(0.02, 0.9, 50) * m05.quarter_Kp
    for nu in (0.5, 2.5):
        b, cols = basis_for([(LameFamily.EC_EVEN, 1)], nu, m05)
        vals = [abs(b.imag(float(t), cols=cols)[0, 0]) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    # nu = -1/2 needs the dc^(1/2) weight
    lb, cols = basis_for([(LameFamily.EC_EVEN, 1)], -0.5, m05)
    vals = [math.sqrt(jacobi_imag(float(t), m05).dn) * abs(lb.imag(float(t), cols=cols)[0, 0])
            for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_imag_ratio_matches_legendre_q_at_small_k():
    m = Modulus.from_k(1e-3)
    fam, nz = family_of_superscript("c", 2)
    b, cols = basis_for([(fam, nz)], 0.5, m)  # order nu + 1/2 = 1
    tau0 = 1.0
    for tau in (0.5, 1.0, 1.5):
        num = (b.imag(m.quarter_Kp - tau, cols=cols)[0, 0]
               / b.imag(m.quarter_Kp - tau0, cols=cols)[0, 0])
        den = (math.sinh(tau) ** 0.5 * legendre_q(1.5, 1.0, math.cosh(tau))) / (
            math.sinh(tau0) ** 0.5 * legendre_q(1.5, 1.0, math.cosh(tau0)))
        assert num == pytest.approx(den, rel=1e-2)


def _wronskian(b, cols, t):
    """F W' - W F' of the columns cols at one t."""
    return (b.second(t, cols=cols) * b.imag(t, derivative=True, cols=cols)
            - b.imag(t, cols=cols) * b.second(t, derivative=True, cols=cols))[0, 0]


def test_second_kind_wronskian_normalization(m05):
    b, cols = basis_for([(LameFamily.EC_EVEN, 2)], 2.5, m05)
    for frac in (0.2, 0.5, 0.8):
        t = frac * m05.quarter_Kp
        w = _wronskian(b, cols, t)
        assert abs(w - 1.0) < 1e-9


@pytest.mark.parametrize("k", [1e-3, 0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("nu", [-0.5, 0.5, 9.5, 19.5, 40.5])
def test_second_kind_unit_wronskian_across_the_handoff(k, nu):
    # every column of a depth-20 basis, on both sides of its own tau0; at
    # nu = 40.5 the hand-off 0.3 R would sum a series that cancels 3-5 digits
    m = Modulus.from_k(k)
    b = LameBasis(nu, m, 20)
    t = np.linspace(0.3, 0.95, 27) * m.quarter_Kp
    w = b.second(t) * b.imag(t, derivative=True) - b.imag(t) * b.second(t, derivative=True)
    assert np.max(np.abs(w - 1.0)) <= 1e-13
    assert t[0] < m.quarter_Kp - b._alone._second_kind[1] < t[-1]


def test_second_kind_leading_coefficient(m05):
    b, cols = basis_for([(LameFamily.EC_EVEN, 2)], 2.5, m05)
    tau = 1e-4 * m05.quarter_Kp
    lead = b.second(m05.quarter_Kp - tau, cols=cols)[0, 0] / tau ** (b.nu + 1.0)
    frobenius = b._alone._second_kind[0]  # scaled to unit Wronskian, leading term first
    assert lead == pytest.approx(frobenius[0, 0, cols[0]], rel=1e-6)


def test_second_kind_decay_exponent(m05):
    b, cols = basis_for([(LameFamily.ES_ODD, 1)], 1.5, m05)
    taus = np.array([1e-3, 1e-2]) * m05.quarter_Kp
    fv = [b.second(m05.quarter_Kp - float(t), cols=cols)[0, 0] for t in taus]
    slope = math.log(fv[1] / fv[0]) / math.log(taus[1] / taus[0])
    assert abs(slope - (b.nu + 1.0)) / (b.nu + 1.0) < 0.05


def test_second_kind_linear_independence(m05):
    b, cols = basis_for([(LameFamily.EC_ODD, 1)], 0.5, m05)
    t = 0.4 * m05.quarter_Kp
    alpha, beta = 0.7, -1.3
    w, wd = b.imag(t, cols=cols)[0, 0], b.imag(t, derivative=True, cols=cols)[0, 0]
    comb = alpha * w + beta * b.second(t, cols=cols)[0, 0]
    comb_d = alpha * wd + beta * b.second(t, derivative=True, cols=cols)[0, 0]
    wr = comb * wd - w * comb_d
    assert abs(wr - beta) < 1e-9  # equals -beta * W[E, F] = beta


def test_frobenius_series_matches_legendre_p_at_small_k():
    m = Modulus.from_k(1e-3)
    for order, sup in ((1, 0), (1, 2), (2, 1)):
        nu = order - 0.5
        fam, nz = family_of_superscript("c", sup)
        lb, cols = basis_for([(fam, nz)], nu, m)
        b = _frobenius_coeffs(nu, lb.h[cols[0]], m, 64)
        for tau in (0.3, 0.8):
            val = _frobenius_series(b[:, None], np.array([nu]), np.array([tau]))[0, 0]
            limit = (2.0 ** (nu + 0.5) * math.gamma(nu + 1.5)
                     * math.sinh(tau) ** 0.5
                     * legendre_p(sup - 0.5, -nu - 0.5, math.cosh(tau)))
            assert val == pytest.approx(limit, rel=1e-2)


def test_second_kind_degenerate_indicial_flag(m05):
    b, cols = basis_for([(LameFamily.EC_EVEN, 1)], -0.5, m05)
    assert b.indicial_degenerate
    # the constructed branch still has unit Wronskian
    w = _wronskian(b, cols, 0.5 * m05.quarter_Kp)
    assert abs(w - 1.0) < 1e-9


def test_invalid_arguments():
    m = Modulus.from_k(0.5)
    with pytest.raises(DomainError):
        LameBasis(-0.6, m, 0)
    with pytest.raises(DomainError):
        basis_for([(LameFamily.EC_EVEN, -1)], 0.5, m)
    with pytest.raises(DomainError):
        family_of_superscript("s", 0)
    with pytest.raises(DomainError):
        family_of_superscript("x", 1)

import cmath
import math

import numpy as np
import pytest

from flatring.coords import (
    CartesianPoint,
    FlatRingPoint,
    ToroidalPoint,
    cartesian_to_toroidal,
    cylindrical_of,
    flatring_to_cartesian,
    toroidal_to_cartesian,
)
from flatring.elliptic import Modulus
from flatring.errors import DomainError, OrderingError
from flatring.harmonics import (
    HarmonicIndex,
    HarmonicKind,
    Truncation,
    addition_theorem_rhs,
    external_harmonic,
    flatring_chi,
    flatring_summand,
    green_expansion,
    integral_relation_check,
    internal_harmonic,
    limit_comparison,
    toroidal_green_expansion,
    toroidal_harmonic,
    toroidal_limit_summand,
    toroidal_summand,
)
from flatring import lame
from flatring.lame import basis_for
from flatring.legendre import gamma_ratio, legendre_q


def random_offaxis_points(rng, count, zmin=0.12):
    pts = []
    while len(pts) < count:
        x = rng.uniform(-1.4, 1.4)
        y = rng.uniform(-1.4, 1.4)
        z = rng.choice([-1.0, 1.0]) * rng.uniform(zmin, 0.9)
        if 0.15 < math.hypot(x, y) < 2.0:
            pts.append(CartesianPoint(x, y, z))
    return pts


def laplacian_residual(f, q, h=1e-3):
    """Scaled 7-point finite-difference Laplacian: |sum - 6 f(q)| / max |f|."""
    c = f(q)
    acc = -6.0 * c
    mx = abs(c)
    for d in ((h, 0, 0), (-h, 0, 0), (0, h, 0), (0, -h, 0), (0, 0, h), (0, 0, -h)):
        v = f(CartesianPoint(q.x + d[0], q.y + d[1], q.z + d[2]))
        acc += v
        mx = max(mx, abs(v))
    return abs(acc) / mx


def test_harmonic_index_validation():
    with pytest.raises(DomainError):
        HarmonicIndex(m=1, n=0, kind=HarmonicKind.GS)
    idx = HarmonicIndex(m=-3, n=2, kind=HarmonicKind.GC)
    assert idx.nu == 2.5
    with pytest.raises(DomainError):
        Truncation(-1, 5)


def test_kelvin_symmetry_internal(m05):
    m = m05
    rng = np.random.default_rng(2)
    idx_c = HarmonicIndex(m=1, n=2, kind=HarmonicKind.GC)
    idx_s = HarmonicIndex(m=2, n=3, kind=HarmonicKind.GS)
    for q in random_offaxis_points(rng, 30):
        nrm = math.sqrt(q.x ** 2 + q.y ** 2 + q.z ** 2)
        sig = CartesianPoint(q.x / nrm ** 2, q.y / nrm ** 2, q.z / nrm ** 2)
        gc, gcs = internal_harmonic(idx_c, q, m), internal_harmonic(idx_c, sig, m)
        assert abs(gcs - nrm * gc) <= 1e-10 * max(abs(gc) * nrm, 1.0)
        gs, gss = internal_harmonic(idx_s, q, m), internal_harmonic(idx_s, sig, m)
        assert abs(gss + nrm * gs) <= 1e-10 * max(abs(gs) * nrm, 1.0)


def test_z_reflection_parity(m05):
    # Gc^N picks (-1)^N under z -> -z; Gs^N picks (-1)^(N-1), since the
    # sine families are indexed one above their reflection exponent
    m = m05
    q = CartesianPoint(0.8, 0.3, 0.45)
    qr = CartesianPoint(0.8, 0.3, -0.45)
    for sup in (1, 2, 3):
        gc = internal_harmonic(HarmonicIndex(m=1, n=sup, kind=HarmonicKind.GC), q, m)
        gcr = internal_harmonic(HarmonicIndex(m=1, n=sup, kind=HarmonicKind.GC), qr, m)
        assert gcr == pytest.approx((-1.0) ** sup * gc, rel=1e-11)
        gs = internal_harmonic(HarmonicIndex(m=1, n=sup, kind=HarmonicKind.GS), q, m)
        gsr = internal_harmonic(HarmonicIndex(m=1, n=sup, kind=HarmonicKind.GS), qr, m)
        assert gsr == pytest.approx((-1.0) ** (sup - 1) * gs, rel=1e-11)


def test_internal_harmonicity(m05):
    m = m05
    rng = np.random.default_rng(4)
    for kind, mm, sup in ((HarmonicKind.GC, 1, 2), (HarmonicKind.GS, 2, 2)):
        idx = HarmonicIndex(m=mm, n=sup, kind=kind)
        for q in random_offaxis_points(rng, 10, zmin=0.15):
            res = laplacian_residual(lambda p: internal_harmonic(idx, p, m), q)
            assert res < 1e-5


def test_external_harmonicity_and_decay(m05):
    m = m05
    rng = np.random.default_rng(6)
    idx = HarmonicIndex(m=1, n=2, kind=HarmonicKind.HC)
    for q in random_offaxis_points(rng, 10, zmin=0.2):
        res = laplacian_residual(lambda p: external_harmonic(idx, p, m), q)
        assert res < 1e-5
    v10 = abs(external_harmonic(idx, CartesianPoint(7.0, 0.2, 7.1), m))
    v100 = abs(external_harmonic(idx, CartesianPoint(70.0, 0.2, 71.0), m))
    assert v100 < v10
    # Kelvin symmetry with the external sign pattern
    q = CartesianPoint(0.3, 0.1, 0.25)
    nrm = math.sqrt(q.x ** 2 + q.y ** 2 + q.z ** 2)
    sig = CartesianPoint(q.x / nrm ** 2, q.y / nrm ** 2, q.z / nrm ** 2)
    hc = external_harmonic(idx, q, m)
    assert external_harmonic(idx, sig, m) == pytest.approx(nrm * hc, rel=1e-10)
    idx_s = HarmonicIndex(m=1, n=2, kind=HarmonicKind.HS)
    hs = external_harmonic(idx_s, q, m)
    assert external_harmonic(idx_s, sig, m) == pytest.approx(-nrm * hs, rel=1e-10)


def test_external_bounded_near_axis(m05):
    m = m05
    idx = HarmonicIndex(m=1, n=0, kind=HarmonicKind.HC)
    v8 = external_harmonic(idx, CartesianPoint(1e-8, 0.0, 0.5), m)
    v6 = external_harmonic(idx, CartesianPoint(1e-6, 0.0, 0.5), m)
    assert cmath.isfinite(v8)
    # order-1 harmonics vanish linearly in the axis distance
    assert abs(v8) == pytest.approx(abs(v6) * 1e-2, rel=1e-3)


def test_external_annulus_error(m05):
    m = m05
    idx = HarmonicIndex(m=0, n=0, kind=HarmonicKind.HC)
    with pytest.raises(DomainError):
        external_harmonic(idx, CartesianPoint(1.0, 0.0, 0.0), m)


def test_green_expansion_canonical_config(m05):
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    r = flatring_to_cartesian(FlatRingPoint(s=0.7 * K, t=0.2 * Kp, phi=0.3, modulus=m))
    rs = flatring_to_cartesian(FlatRingPoint(s=1.1 * K, t=0.6 * Kp, phi=-0.5, modulus=m))
    direct = 1.0 / math.dist(r, rs)
    val, tail, shells = green_expansion(r, rs, Truncation(20, 20), m)
    assert abs(val - direct) / direct <= 1e-8
    # geometric decay of the shell magnitudes: fitted ratio below 1
    mags = np.array([abs(s) for s in shells[5:]])
    mags = np.maximum(mags, 1e-300)
    slope = np.polyfit(np.arange(mags.size), np.log(mags), 1)[0]
    assert math.exp(slope) < 1.0


def test_green_expansion_ordering_violation(m05):
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    r = flatring_to_cartesian(FlatRingPoint(s=0.7 * K, t=0.2 * Kp, phi=0.3, modulus=m))
    rs = flatring_to_cartesian(FlatRingPoint(s=1.1 * K, t=0.6 * Kp, phi=-0.5, modulus=m))
    with pytest.raises(OrderingError):
        green_expansion(rs, r, Truncation(6, 6), m)


def test_harmonics_on_arrays_match_pointwise(m05):
    m = m05
    pts = random_offaxis_points(np.random.default_rng(47), 12)
    grid = CartesianPoint(*np.array(pts).T.reshape(3, 3, 4))
    for idx, f in ((HarmonicIndex(m=2, n=1, kind=HarmonicKind.GC), internal_harmonic),
                   (HarmonicIndex(m=-1, n=2, kind=HarmonicKind.GS), internal_harmonic),
                   (HarmonicIndex(m=1, n=0, kind=HarmonicKind.HC), external_harmonic),
                   (HarmonicIndex(m=3, n=1, kind=HarmonicKind.HS), external_harmonic)):
        whole = f(idx, grid, m)
        assert whole.shape == (3, 4)
        one = np.array([f(idx, q, m) for q in pts]).reshape(3, 4)
        assert isinstance(f(idx, pts[0], m), complex)
        np.testing.assert_allclose(whole, one, rtol=1e-13, atol=0.0)


def test_green_expansion_on_arrays_matches_pointwise(m05):
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    rng = np.random.default_rng(53)
    r = flatring_to_cartesian(FlatRingPoint(s=rng.uniform(-1.8, 1.8, 5) * K,
                                            t=rng.uniform(0.05, 0.3, 5) * Kp,
                                            phi=rng.uniform(-3.0, 3.0, 5), modulus=m))
    rs = flatring_to_cartesian(FlatRingPoint(s=1.1 * K, t=0.6 * Kp, phi=-0.5, modulus=m))
    tr = Truncation(8, 8)
    val, tail, shells = green_expansion(r, rs, tr, m)
    assert val.shape == tail.shape == (5,) and len(shells) == 9
    for i, q in enumerate(zip(*r)):
        v1, t1, sh1 = green_expansion(CartesianPoint(*q), rs, tr, m)
        assert all(type(x) is float for x in (v1, t1, *sh1))
        assert val[i] == pytest.approx(v1, rel=1e-13)
        assert tail[i] == pytest.approx(t1, rel=1e-12)
        assert [sh[i] for sh in shells] == pytest.approx(sh1, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("limits", [(0, 6), (6, 0), (0, 0)])
def test_expansions_refuse_truncations_too_short_to_extrapolate(m05, limits):
    # the tail rule needs two orders and two shells; with one of either it
    # reported a near-zero tail beside a large true error
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    pairs = [(flatring_to_cartesian(FlatRingPoint(s=0.7 * K, t=0.2 * Kp, phi=0.3, modulus=m)),
              flatring_to_cartesian(FlatRingPoint(s=1.1 * K, t=0.6 * Kp, phi=-0.5, modulus=m))),
             (toroidal_to_cartesian(ToroidalPoint(tau=2.0, psi=0.4, phi=0.1)),
              toroidal_to_cartesian(ToroidalPoint(tau=1.0, psi=-0.7, phi=0.9)))]
    runs = [lambda tr: green_expansion(*pairs[0], tr, m),
            lambda tr: toroidal_green_expansion(*pairs[1], tr)]
    for run in runs:
        with pytest.raises(DomainError, match="m_max >= 1 and n_max >= 1"):
            run(Truncation(*limits))
        val, tail, shells = run(Truncation(1, 1))  # the smallest legal truncation
        assert len(shells) == 2 and math.isfinite(val) and tail > 0.0


def test_green_matches_complex_pairing(m05):
    # the folded real evaluation agrees with the literal complex pairing
    # (1/2) sum G_m(r) H_{-m}(r*) of internal/external harmonics
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    r = flatring_to_cartesian(FlatRingPoint(s=0.6 * K, t=0.25 * Kp, phi=0.4, modulus=m))
    rs = flatring_to_cartesian(FlatRingPoint(s=-0.9 * K, t=0.7 * Kp, phi=-1.1, modulus=m))
    tr = Truncation(3, 3)
    val, _, _ = green_expansion(r, rs, tr, m)
    total = 0.0 + 0.0j
    for mm in range(-3, 4):
        for sup in range(0, 4):
            gc = internal_harmonic(HarmonicIndex(m=mm, n=sup, kind=HarmonicKind.GC), r, m)
            hc = external_harmonic(HarmonicIndex(m=-mm, n=sup, kind=HarmonicKind.HC), rs, m)
            gs = internal_harmonic(HarmonicIndex(m=mm, n=sup + 1, kind=HarmonicKind.GS), r, m)
            hs = external_harmonic(HarmonicIndex(m=-mm, n=sup + 1, kind=HarmonicKind.HS), rs, m)
            total += 0.5 * (gc * hc + gs * hs)
    assert abs(total.imag) < 1e-12
    assert total.real == pytest.approx(val, rel=1e-12)


def test_real_valued_combination(m05):
    # conjugate-symmetric coefficient pairs produce real values
    m = m05
    q = CartesianPoint(0.7, -0.2, 0.4)
    coeff = 0.8 + 0.3j
    val = (coeff * internal_harmonic(HarmonicIndex(m=2, n=1, kind=HarmonicKind.GC), q, m)
           + coeff.conjugate() * internal_harmonic(
               HarmonicIndex(m=-2, n=1, kind=HarmonicKind.GC), q, m))
    assert abs(val.imag) <= 1e-12 * max(1.0, abs(val.real))


def test_toroidal_green_expansion():
    r = toroidal_to_cartesian(ToroidalPoint(tau=2.0, psi=0.4, phi=0.1))
    rs = toroidal_to_cartesian(ToroidalPoint(tau=1.0, psi=-0.7, phi=0.9))
    direct = 1.0 / math.dist(r, rs)
    val, tail, _ = toroidal_green_expansion(r, rs, Truncation(20, 20))
    assert abs(val - direct) / direct <= 1e-9
    with pytest.raises(OrderingError):
        toroidal_green_expansion(rs, r, Truncation(6, 6))


def test_toroidal_summand_order_symmetry():
    # the Gamma-ratio weight makes the m and -m terms identical
    for n in (0, 1, 3):
        for mm in (1, 2, 5):
            a = toroidal_summand(mm, n, 1.5, 0.8)
            b = toroidal_summand(-mm, n, 1.5, 0.8)
            assert a == pytest.approx(b, rel=1e-12)


def test_toroidal_azimuthal_coefficient_matches_chi_form():
    # summing the toroidal expansion over n at fixed m reproduces the
    # azimuthal Fourier coefficient Q_{m-1/2}(chi) / (pi sqrt(R R*))
    r = toroidal_to_cartesian(ToroidalPoint(tau=2.2, psi=0.5, phi=0.0))
    rs = toroidal_to_cartesian(ToroidalPoint(tau=1.0, psi=-0.4, phi=0.0))
    p, ps = cartesian_to_toroidal(r), cartesian_to_toroidal(rs)
    big_r, big_rs = math.hypot(r.x, r.y), math.hypot(rs.x, rs.y)
    chi = (big_r ** 2 + big_rs ** 2 + (r.z - rs.z) ** 2) / (2.0 * big_r * big_rs)
    d = math.cosh(p.tau) - math.cos(p.psi)
    ds = math.cosh(ps.tau) - math.cos(ps.psi)
    for mm in (0, 1, 2):
        acc = 0.0
        for n in range(0, 40):
            eps = 1.0 if n == 0 else 2.0
            acc += eps * math.cos(n * (p.psi - ps.psi)) * toroidal_summand(
                mm, n, p.tau, ps.tau)
        acc *= math.sqrt(d * ds) / math.pi
        expected = legendre_q(mm - 0.5, 0.0, chi) / (math.pi * math.sqrt(big_r * big_rs))
        assert acc == pytest.approx(expected, rel=1e-9)


def test_toroidal_harmonic_values():
    p = ToroidalPoint(tau=1.2, psi=0.7, phi=0.3)
    d = math.cosh(p.tau) - math.cos(p.psi)
    g = toroidal_harmonic(2, 1, p)
    expected = math.sqrt(d) * legendre_q(0.5, 2.0, math.cosh(p.tau)) * cmath.exp(
        1j * (p.psi + 2 * p.phi))
    assert g == pytest.approx(expected, rel=1e-12)


def test_addition_theorem(m05):
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    s, ss, t, ts = 0.6 * K, 1.3 * K, 0.25 * Kp, 0.65 * Kp
    chi = flatring_chi(s, t, ss, ts, m)
    for mm, nmax in ((1, 25), (0, 30)):
        rhs = addition_theorem_rhs(mm, s, ss, t, ts, nmax, m)
        lhs = legendre_q(mm - 0.5, 0.0, chi)
        assert rhs == pytest.approx(lhs, rel=1e-8)
    with pytest.raises(OrderingError):
        addition_theorem_rhs(1, s, ss, ts, t, 10, m)


def test_single_order_callers_build_their_panels_once(m05, monkeypatch):
    # addition_theorem_rhs and flatring_summand read through the kept set of
    # their cached basis: a second call with the same basis builds no panel
    m = m05
    kp = m.quarter_Kp
    built = []
    build = lame._ImagPanels._build_panel
    monkeypatch.setattr(lame._ImagPanels, "_build_panel",
                        lambda panels, t_to: (built.append(t_to), build(panels, t_to))[1])
    lame.clear_caches()
    for call in (lambda: addition_theorem_rhs(2, 0.3, 1.1, 0.25 * kp, 0.8 * kp, 6, m),
                 lambda: flatring_summand(2, 3, 0.4 * kp, 0.2 * kp, 0.5, 1.0, m)):
        first = call()
        count = len(built)
        assert count > 0
        assert call() == first and len(built) == count


def test_addition_theorem_term_decay(m05):
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    s, ss, t, ts = 0.6 * K, 1.3 * K, 0.25 * Kp, 0.65 * Kp
    partials = [addition_theorem_rhs(1, s, ss, t, ts, n, m) for n in range(4, 22, 3)]
    terms = np.abs(np.diff(partials))
    terms = np.maximum(terms, 1e-300)
    slope = np.polyfit(np.arange(terms.size), np.log(terms), 1)[0]
    assert math.exp(slope) < 1.0


def test_integral_relations(m05):
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    lhs, rhs = integral_relation_check(0.5, 0, "c", 0.8 * K, 0.2 * Kp, 0.7 * Kp, m)
    assert abs(lhs - rhs) / abs(rhs) <= 1e-7
    lhs, rhs = integral_relation_check(0.5, 1, "s", 0.8 * K, 0.2 * Kp, 0.7 * Kp, m)
    assert abs(lhs - rhs) / abs(rhs) <= 1e-7
    # real-degree extension
    lhs, rhs = integral_relation_check(0.75, 1, "c", 0.8 * K, 0.2 * Kp, 0.7 * Kp, m)
    assert abs(lhs - rhs) / abs(rhs) <= 1e-6
    with pytest.raises(OrderingError):
        integral_relation_check(0.5, 0, "c", 0.8 * K, 0.7 * Kp, 0.2 * Kp, m)


def test_normalization_constant_on_full_interval(m05):
    # int over (-2K, 2K) of E^2 equals 4 for every normalized eigenfunction
    x, w = np.polynomial.legendre.leggauss(512)
    s = 2.0 * m05.quarter_K * x
    w = 2.0 * m05.quarter_K * w
    from flatring.lame import LameFamily
    for fam in LameFamily:
        b, cols = basis_for([(fam, 1)], 0.5, m05)
        total = sum(wi * b.real(float(si), cols=cols)[0, 0, 0] ** 2 for si, wi in zip(s, w))
        assert total == pytest.approx(4.0, abs=1e-10)


def test_limit_comparison_monotone():
    rows = limit_comparison(1, 2, 1.2, 0.5, 0.4, 5.38, [0.1, 0.03, 0.01])
    diffs = [r["abs_diff"] for r in rows]
    assert diffs[0] > diffs[1] > diffs[2]


def test_limit_comparison_n_zero_has_no_sine_term():
    rows = limit_comparison(1, 0, 1.0, 0.4, 0.9, 4.9, [0.05])
    assert math.isfinite(rows[0]["abs_diff"])
    mk = Modulus.from_k(0.05)
    a_val = flatring_summand(1, 0, 1.0, 0.4, 0.9, 4.9, mk)
    assert rows[0]["A"] == a_val


def test_toroidal_limit_summand_identity():
    # cos cos + sin sin = cos(n (psi - psi*)) is applied exactly
    n, tau, tau_s, psi, psi_s = 2, 1.2, 0.5, 0.4, 5.38
    eps = 2.0
    pref = math.sqrt((math.cosh(tau) - math.cos(psi))
                     * (math.cosh(tau_s) - math.cos(psi_s))) / math.pi
    explicit = (math.cos(n * (0.5 * math.pi - psi)) * math.cos(n * (0.5 * math.pi - psi_s))
                + math.sin(n * (0.5 * math.pi - psi)) * math.sin(n * (0.5 * math.pi - psi_s)))
    expected = pref * eps * explicit * toroidal_summand(1, n, tau, tau_s)
    assert toroidal_limit_summand(1, n, tau, tau_s, psi, psi_s) == pytest.approx(
        expected, rel=1e-14)


def test_green_pair_takes_one_inverse_map(m05, monkeypatch):
    # r and r* are converted by one cartesian_to_flatring call on the two
    # points stacked, which gives the coordinates and prefactors of two
    # separate calls bit for bit, for one pair and for arrays of pairs
    from flatring import harmonics

    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    rng = np.random.default_rng(61)
    r = flatring_to_cartesian(FlatRingPoint(s=rng.uniform(-1.8, 1.8, 5) * K,
                                            t=rng.uniform(0.05, 0.3, 5) * Kp,
                                            phi=rng.uniform(-3.0, 3.0, 5), modulus=m))
    rs = flatring_to_cartesian(FlatRingPoint(s=-0.7 * K, t=0.6 * Kp, phi=2.5, modulus=m))
    for inner in (CartesianPoint(*(c[0] for c in r)), r):
        both, pref = harmonics._flatring_of(harmonics._stacked(inner, rs), m)
        for i, q in enumerate((inner, rs)):
            one, pref_one = harmonics._flatring_of(q, m)
            for got, want in zip((both.s, both.t, both.phi, pref),
                                 (one.s, one.t, one.phi, pref_one)):
                assert np.array_equal(got[i], np.broadcast_to(want, got[i].shape))
    calls, inverse = [], harmonics.cartesian_to_flatring

    def counted(*args, **kwargs):
        calls.append(args)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(harmonics, "cartesian_to_flatring", counted)
    green_expansion(r, rs, Truncation(4, 4), m)
    assert len(calls) == 1
    with pytest.raises(OrderingError):
        green_expansion(rs, r, Truncation(4, 4), m)
    with pytest.raises(DomainError):
        green_expansion(CartesianPoint(0.0, 0.0, 0.5), rs, Truncation(4, 4), m)

"""Fourier-Galerkin Lame eigensolver: eigenvalues pinned from the earlier
shooting solver, an ODE-residual oracle through mpmath's sn, basis-size
stability in a deep well, orientation, and the basis cache: rebuilds after
clearing or eviction, object identity, and modes shared across depths."""

import mpmath
import numpy as np
import pytest
from scipy.special import ellipe, ellipk

from flatring import lame
from flatring.elliptic import Modulus, sn2_fourier_coeffs
from flatring.lame import LameFamily, basis_for

ALL_11 = [(fam, n) for fam in LameFamily for n in range(11)]  # zero counts 0..10 of each family

# Eigenvalues at k = 0.5 from the RK8 Pruefer-shooting solver this module
# used before the Galerkin method: (nu, kind) -> superscripts 0..21 (Ec) or
# 1..21 (Es).
SHOOTING_K05 = {
    (-0.5, "c"): [
        -0.03251287422905793, 0.8202519156958372, 3.441372710064562, 7.782029218280559,
        13.8599073138677, 21.6743052638674, 31.22523909899527, 42.51270743435542,
        55.53670991777067, 70.29724638165861, 86.794316739824, 105.0279209441006,
        124.9980589658247, 146.7047307870577, 170.147936396101, 195.3276757850583,
        222.2439489484419, 250.8967558823409, 281.286096583907, 313.4119710510255,
        347.2743792820996, 382.8733212759054,
    ],
    (-0.5, "s"): [
        0.8514664554280597, 3.440110703229339, 7.78206465881902, 13.8599064469029,
        21.67430528358766, 31.22523909856642, 42.51270743436447, 55.53670991777049,
        70.29724638165861, 86.794316739824, 105.0279209441006, 124.9980589658247,
        146.7047307870577, 170.147936396101, 195.3276757850583, 222.2439489484419,
        250.8967558823409, 281.286096583907, 313.4119710510255, 347.2743792820996,
        382.8733212759054,
    ],
    (2.5, "c"): [
        0.9666216210794859, 2.504395975361049, 4.72422564687602, 8.969724275135027,
        15.03675859227366, 22.84687429314874, 32.39556031911746, 43.68169977754387,
        56.70485012842639, 71.46480700842152, 87.96146508169855, 106.1947654606985,
        126.1646730886158, 147.8711660202168, 171.3142299409081, 196.4938551870169,
        223.4100350416586, 252.0627647176603, 282.4520407280132, 314.5778604837183,
        348.4402220297163, 384.0391238672224,
    ],
    (2.5, "s"): [
        1.412270845847992, 4.59708666735074, 8.968099538806573, 15.03676919082775,
        22.84687415902431, 32.39556032116755, 43.68169977750983, 56.70485012842699,
        71.4648070084215, 87.96146508169853, 106.1947654606985, 126.1646730886158,
        147.8711660202168, 171.3142299409081, 196.4938551870169, 223.4100350416586,
        252.0627647176603, 282.4520407280132, 314.5778604837183, 348.4402220297163,
        384.0391238672224,
    ],
    (9.5, "c"): [
        4.677871336161123, 13.30977297261588, 20.08693409620843, 24.56750397445184,
        28.8861319002186, 35.63432302998313, 44.81901034191854, 55.92751270416229,
        68.8400770189061, 83.52522351599896, 99.96876295639676, 118.1629456537638,
        138.1031958328789, 159.7866606446001, 183.2114830691753, 208.3764107641599,
        235.2805737016202, 263.9233519229472, 294.3042938531327, 326.4230641844526,
        360.2794096789249, 395.8731361691488,
    ],
    (9.5, "s"): [
        4.679624941953506, 13.3732627695742, 20.85153125529097, 27.8155859913611,
        35.51189261504048, 44.81235216213438, 55.92731389450627, 68.84007377039882,
        83.52522349042074, 99.96876295634107, 118.1629456537639, 138.1031958328789,
        159.7866606446001, 183.2114830691753, 208.3764107641599, 235.2805737016202,
        263.9233519229472, 294.3042938531327, 326.4230641844526, 360.2794096789249,
        395.8731361691488,
    ],
    (19.5, "c"): [
        9.683612979390402, 28.39978387709869, 45.77712173838429, 61.71926180268137,
        76.02869932560375, 88.10026966308629, 96.91846575357819, 104.1402538952081,
        113.7097302871681, 126.7441572614036, 142.2688113673137, 159.835534871479,
        179.3118018504345, 200.6393649458007, 223.7842875182919, 248.7247116947273,
        275.4458527576904, 303.9373575439872, 334.1917735471015, 366.2036124111595,
        399.9687532129475, 435.4840495122858,
    ],
    (19.5, "s"): [
        9.683613068716852, 28.3997919083812, 45.77744116442561, 61.72658057915498,
        76.13304497056966, 88.99868857935405, 100.8754920417797, 113.0299026349873,
        126.6657254109625, 142.2627419250973, 159.8351951599039, 179.3117876854533,
        200.6393645005865, 223.7842875077391, 248.7247116945405, 275.445852757688,
        303.9373575439871, 334.1917735471014, 366.2036124111595, 399.9687532129475,
        435.4840495122858,
    ],
}


@pytest.mark.parametrize("nu", [-0.5, 2.5, 9.5, 19.5])
def test_eigenvalues_match_shooting_values(m05, nu):
    got = {}
    b, cols = basis_for(ALL_11, nu, m05)
    for (fam, n), j in zip(ALL_11, cols):
        got[fam.kind, fam.superscript(n)] = b.h[0, j]
    for kind, first in (("c", 0), ("s", 1)):
        for sup, ref in enumerate(SHOOTING_K05[nu, kind], start=first):
            assert abs(got[kind, sup] - ref) <= 1e-12 * abs(ref), (kind, sup)


@pytest.mark.parametrize("k, nu", [(0.5, 2.5), (0.5, 19.5), (0.9, 9.5)])
def test_ode_residual_against_mpmath_sn(k, nu):
    m = Modulus.from_k(k)
    coef = nu * (nu + 1.0) * k * k
    s = np.linspace(-0.5 * m.quarter_K, 2.0 * m.quarter_K, 21)
    sn2 = np.array([float(mpmath.ellipfun("sn", float(x), m=k * k)) ** 2 for x in s])
    b, cols = basis_for(ALL_11, nu, m)
    for (fam, n), j in zip(ALL_11, cols):
        # the mode's coefficients on cos or sin of the frequencies j pi/(2K)
        trig_coef = b._coef[int(not fam.even_at_zero), :, j]
        trig = (np.cos if fam.even_at_zero else np.sin)(np.outer(s, b._freq))
        e = trig @ trig_coef
        e_ss = -trig @ (trig_coef * b._freq ** 2)
        assert np.max(np.abs(e - [b.real(float(x), cols=[j])[0, 0, 0] for x in s])) <= 1e-14
        resid = -e_ss + (coef * sn2 - b.h[0, j]) * e
        scale = (abs(b.h[0, j]) + coef) * np.max(np.abs(e))
        assert np.max(np.abs(resid)) <= 1e-12 * scale, (fam, n)
        assert b.tail[0, j] <= 1e-15


def test_sn2_fourier_coefficients_against_scipy():
    for k in (1e-3, 0.5, 0.99):
        a = sn2_fourier_coeffs(Modulus.from_k(k), 64)
        big_k, big_e = ellipk(k * k), ellipe(k * k)
        assert a[0] * k * k == pytest.approx(1.0 - big_e / big_k, rel=1e-13)
        s = np.linspace(0.0, 2.0 * big_k, 9)
        series = np.cos(np.outer(s, np.arange(64) * np.pi / big_k)) @ a
        sn2 = np.array([float(mpmath.ellipfun("sn", float(x), m=k * k)) ** 2 for x in s])
        assert np.max(np.abs(series - sn2)) <= 1e-13


def test_deep_well_eigenvalues_stable_across_basis_sizes():
    # k = 0.9, nu = 19.5 defeated the shooting solver
    m = Modulus.from_k(0.9)
    for size in (64, 128, 256):
        op, _, _ = lame._galerkin_operator(LameFamily.EC_EVEN, 19.5, m, size)
        h = np.linalg.eigvalsh(op)
        assert h[0] == pytest.approx(17.54736442, abs=1e-8)
        assert h[1] == pytest.approx(84.11215824, abs=1e-8)


@pytest.mark.parametrize("k, nu", [(0.5, 2.5), (0.5, 19.5), (0.9, 9.5)])
def test_orientation_convention(k, nu):
    m = Modulus.from_k(k)
    b, cols = basis_for(ALL_11, nu, m)
    for (fam, _), j in zip(ALL_11, cols):
        if fam.kind == "c":
            assert b.real(m.quarter_K, cols=[j])[0, 0, 0] > 0.0
        else:
            assert b.real(m.quarter_K, derivative=True, cols=[j])[0, 0, 0] < 0.0


def test_clear_caches_rebuild_is_bit_identical(m05):
    specs = [(fam, n) for fam in LameFamily for n in range(4)]
    ts = [0.1 * m05.quarter_Kp, 0.5 * m05.quarter_Kp, 0.9 * m05.quarter_Kp]

    def build():
        b, cols = basis_for(specs, 2.5, m05)
        return (b.h[0, cols].tolist(),
                [b.imag(t, cols=[j])[0, 0, 0] for j in cols for t in ts],
                [b.second(t, cols=cols[:1])[0, 0, 0] for t in ts])

    lame.clear_caches()
    first = build()
    lame.clear_caches()
    assert lame.basis.cache_info().currsize == 0
    assert build() == first


def test_same_key_returns_same_basis(m05):
    b = lame.basis(2.5, m05, 3)
    assert lame.basis(2.5, m05, 3) is b
    assert lame.basis(2.5, Modulus.from_k(0.5), 3) is b  # an equal modulus is the same key
    assert basis_for([(LameFamily.ES_EVEN, 1)], 2.5, m05)[0] is b  # Es^4 needs depth 3
    assert lame.basis(2.5, m05, 4) is not b


def test_evicted_basis_rebuilds_bit_identical(m05):
    kp, big_k = m05.quarter_Kp, m05.quarter_K
    s = np.linspace(-2.0, 2.0, 9) * big_k
    t = np.linspace(0.05, 0.95, 9) * kp
    first = lame.basis(3.5, m05, 4)
    values = [first.real(s), first.imag(t), first.second(t)]
    for i in range(lame._BASIS_CACHE_SIZE):  # as many other keys as the cache holds
        lame.basis(0.5 + i, m05, 0)
    rebuilt = lame.basis(3.5, m05, 4)
    assert rebuilt is not first
    # read in the opposite order: the panels do not depend on the order of requests
    again = [rebuilt.real(s), rebuilt.imag(t[::-1])[::-1], rebuilt.second(t[::-1])[::-1]]
    assert all(np.array_equal(a, b) for a, b in zip(values, again))


@pytest.mark.parametrize("nu", [-0.5, 2.5, 9.5])
def test_shared_modes_agree_across_depths(m05, nu):
    small, big = lame.basis(nu, m05, 3), lame.basis(nu, m05, 20)
    cols = [big.column(fam, n) for fam, n in small.specs]
    kp = m05.quarter_Kp
    s = np.linspace(-2.0, 2.0, 17) * m05.quarter_K
    t = np.linspace(0.05, 0.95, 19) * kp
    for derivative in (False, True):
        for read, x in (("real", s), ("imag", t), ("second", t)):
            ref = getattr(big, read)(x, derivative, cols)
            err = np.abs(getattr(small, read)(x, derivative) - ref) / np.max(np.abs(ref), axis=0)
            assert np.max(err) <= 1e-12, (read, derivative)

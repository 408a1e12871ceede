"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Runtime-limited criteria time themselves (including any cache build they
need) and assert the budget.  Lines are written through sys.__stdout__ so
they stay visible under pytest capture.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy.special import ellipj

from flatring import lame
from flatring.coords import (
    CartesianPoint,
    FlatRingPoint,
    ToroidalPoint,
    Variant,
    algebraic_to_cartesian,
    cartesian_to_flatring,
    coordinate_line_residual,
    flatring_to_cartesian,
    toroidal_to_cartesian,
)
from flatring.coords import AlgebraicFlatRing
from flatring.dirichlet import FlatRingDomain, external_from_boundary, solve_interior, solve_point_source
from flatring.elliptic import Modulus
from flatring.harmonics import (
    HarmonicIndex,
    HarmonicKind,
    Truncation,
    addition_theorem_rhs,
    external_harmonic,
    flatring_chi,
    green_expansion,
    integral_relation_check,
    internal_harmonic,
    limit_comparison,
    toroidal_green_expansion,
)
from flatring.lame import LameFamily, basis_for, family_of_superscript
from flatring.legendre import legendre_q


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          file=sys.__stdout__, flush=True)


def spectral_eigenvalues(family, nu, m, nmodes=200, nquad=1024):
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


def test_criterion_01_coordinate_bijectivity():
    start = time.time()
    rng = np.random.default_rng(101)
    m = Modulus.from_k(1.0 / math.sqrt(2.0))
    K, Kp = m.quarter_K, m.quarter_Kp
    worst_rt = 0.0
    for variant in Variant:
        for _ in range(1000):
            if variant is Variant.V1:
                s = rng.uniform(-2 * K + 1e-3, 2 * K - 1e-3)
                t = rng.uniform(1e-3, Kp - 1e-3)
            elif variant is Variant.V2:
                s = rng.uniform(1e-3, 2 * K - 1e-3)
                t = rng.uniform(-Kp + 1e-3, Kp - 1e-3)
            else:
                s = rng.uniform(1e-3, 4 * K - 1e-3)
                t = rng.uniform(1e-3, Kp - 1e-3)
            p = FlatRingPoint(s=s, t=t, phi=rng.uniform(-math.pi, math.pi),
                              modulus=m, variant=variant)
            c = flatring_to_cartesian(p)
            b = cartesian_to_flatring(c, m, variant)
            worst_rt = max(worst_rt, abs(b.s - s), abs(b.t - t), abs(b.phi - p.phi))
    worst_line = 0.0
    for _ in range(300):
        mu = -math.exp(rng.uniform(-6.0, 2.0))
        rho = rng.uniform(1e-5, 1 - 1e-5)
        c = algebraic_to_cartesian(AlgebraicFlatRing(mu=mu, rho=rho, phi=0.0, a=2.0))
        for tau in (mu, rho):
            worst_line = max(worst_line, abs(coordinate_line_residual(c.x, c.z, 2.0, tau)))
    elapsed = time.time() - start
    ok = worst_rt <= 1e-11 and worst_line <= 1e-12 and elapsed < 5.0
    _report("criterion 1 (coordinate bijectivity)", ok,
            f"roundtrip {worst_rt:.2e}, line residual {worst_line:.2e}, {elapsed:.1f}s")
    assert worst_rt <= 1e-11
    assert worst_line <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_lame_eigen_suite():
    start = time.time()
    nus = (-0.5, 0.5, 1.5, 2.5)
    ks = (0.3, 0.5, 0.8)
    worst_spec = 0.0
    worst_gram = 0.0
    bracket_ok = True
    x, w = np.polynomial.legendre.leggauss(256)
    for k in ks:
        m = Modulus.from_k(k)
        s_nodes = 0.5 * m.quarter_K * (x + 1.0)
        s_w = 0.5 * m.quarter_K * w
        for nu in nus:
            b, cols = basis_for([(fam, n) for fam in LameFamily for n in range(13)], nu, m)
            for f, fam in enumerate(LameFamily):
                fam_cols = cols[13 * f:13 * (f + 1)]
                ref = spectral_eigenvalues(fam, nu, m)
                for i, j in enumerate(fam_cols):
                    lo, hi = b.bracket[j]
                    if not (lo - 1e-8 <= b.h[j] <= hi + 1e-8):
                        bracket_ok = False
                    worst_spec = max(
                        worst_spec, abs(b.h[j] - ref[i]) / max(1.0, abs(ref[i])))
                vals = b.real(s_nodes, cols=fam_cols).T
                gram = (vals * s_w) @ vals.T
                worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(13)))))
    elapsed = time.time() - start
    ok = bracket_ok and worst_gram <= 1e-8 and worst_spec <= 1e-8 and elapsed < 60.0
    _report("criterion 2 (Lame eigen suite)", ok,
            f"brackets {bracket_ok}, gram {worst_gram:.2e}, spectral {worst_spec:.2e}, "
            f"{elapsed:.1f}s")
    assert bracket_ok
    assert worst_gram <= 1e-8
    assert worst_spec <= 1e-8
    assert elapsed < 60.0


def test_criterion_03_wronskian_normalization():
    m = Modulus.from_k(0.5)
    worst = 0.0
    count = 0
    ts = np.linspace(0.05, 0.95, 20) * m.quarter_Kp
    for nu in (-0.5, 0.5, 1.5, 2.5):
        b, cols = basis_for([(fam, n) for fam in LameFamily for n in range(4)], nu, m)
        count += len(cols)
        for t in ts:
            wr = (b.second(float(t), cols=cols) * b.imag(float(t), derivative=True, cols=cols)
                  - b.imag(float(t), cols=cols) * b.second(float(t), derivative=True, cols=cols))
            worst = max(worst, float(np.max(np.abs(wr - 1.0))))
    ok = worst <= 1e-9
    _report("criterion 3 (Wronskian normalization)", ok,
            f"{count} second-kind objects x 20 samples, worst {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_04_flatring_green_expansion():
    lame.clear_caches()
    start = time.time()
    m = Modulus.from_k(0.5)
    K, Kp = m.quarter_K, m.quarter_Kp
    configs = [
        (0.7 * K, 0.20 * Kp, 0.3, 1.1 * K, 0.65 * Kp, -0.5),
        (-0.5 * K, 0.15 * Kp, 1.0, 1.5 * K, 0.62 * Kp, 2.0),
        (1.8 * K, 0.25 * Kp, -2.0, 0.4 * K, 0.70 * Kp, 0.6),
        (0.2 * K, 0.30 * Kp, 0.0, -1.2 * K, 0.78 * Kp, 1.2),
        (1.4 * K, 0.22 * Kp, 0.7, -0.3 * K, 0.72 * Kp, -2.2),
    ]
    worst = 0.0
    decay_ok = True
    for s, t, ph, ss, ts, ps in configs:
        assert ts - t >= 0.3 * Kp
        r = flatring_to_cartesian(FlatRingPoint(s=s, t=t, phi=ph, modulus=m))
        rs = flatring_to_cartesian(FlatRingPoint(s=ss, t=ts, phi=ps, modulus=m))
        direct = 1.0 / math.dist(r, rs)
        val, _, shells = green_expansion(r, rs, Truncation(20, 20), m, return_shells=True)
        worst = max(worst, abs(val - direct) / direct)
        mags = np.maximum([abs(x) for x in shells[5:]], 1e-300)
        slope = np.polyfit(np.arange(len(mags)), np.log(mags), 1)[0]
        if math.exp(slope) >= 1.0:
            decay_ok = False
    elapsed = time.time() - start
    ok = worst <= 1e-8 and decay_ok and elapsed < 120.0
    _report("criterion 4 (flat-ring expansion)", ok,
            f"worst rel {worst:.2e}, geometric decay {decay_ok}, {elapsed:.1f}s "
            f"incl cache build")
    assert worst <= 1e-8
    assert decay_ok
    assert elapsed < 120.0


def test_criterion_05_toroidal_expansion():
    start = time.time()
    configs = [
        (2.2, 0.4, 0.1, 1.0, -0.7, 0.9),
        (2.4, -1.5, 2.0, 0.9, 0.8, -1.6),
        (2.5, 2.8, 0.5, 0.9, -0.5, -2.0),
        (2.6, -0.9, 1.9, 0.85, 2.2, -0.7),
        (2.8, 2.9, -0.6, 0.95, -0.3, 1.9),
    ]
    worst = 0.0
    for tau, psi, phi, tau_s, psi_s, phi_s in configs:
        r = toroidal_to_cartesian(ToroidalPoint(tau=tau, psi=psi, phi=phi))
        rs = toroidal_to_cartesian(ToroidalPoint(tau=tau_s, psi=psi_s, phi=phi_s))
        direct = 1.0 / math.dist(r, rs)
        val, _ = toroidal_green_expansion(r, rs, Truncation(20, 20))
        worst = max(worst, abs(val - direct) / direct)
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report("criterion 5 (toroidal expansion)", ok,
            f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_06_addition_theorem():
    m = Modulus.from_k(0.5)
    K, Kp = m.quarter_K, m.quarter_Kp
    configs = {
        0: (0.6 * K, 1.3 * K, 0.25 * Kp, 0.65 * Kp, 30),
        1: (0.6 * K, 1.3 * K, 0.25 * Kp, 0.65 * Kp, 25),
        2: (0.8 * K, -0.9 * K, 0.30 * Kp, 0.70 * Kp, 25),
        3: (1.2 * K, 0.4 * K, 0.20 * Kp, 0.60 * Kp, 25),
    }
    worst = 0.0
    for mm, (s, ss, t, ts, nmax) in configs.items():
        rhs = addition_theorem_rhs(mm, s, ss, t, ts, nmax, m)
        lhs = legendre_q(mm - 0.5, 0.0, flatring_chi(s, t, ss, ts, m))
        worst = max(worst, abs(rhs - lhs) / abs(lhs))
    ok = worst <= 1e-8
    _report("criterion 6 (addition theorem)", ok, f"m in 0..3, worst rel {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_07_integral_relations():
    m = Modulus.from_k(0.5)
    K, Kp = m.quarter_K, m.quarter_Kp
    lhs, rhs = integral_relation_check(0.5, 0, "c", 0.8 * K, 0.2 * Kp, 0.7 * Kp, m)
    rel_c = abs(lhs - rhs) / abs(rhs)
    lhs, rhs = integral_relation_check(0.5, 1, "s", 0.8 * K, 0.2 * Kp, 0.7 * Kp, m)
    rel_s = abs(lhs - rhs) / abs(rhs)
    lhs, rhs = integral_relation_check(0.75, 1, "c", 0.8 * K, 0.2 * Kp, 0.7 * Kp, m)
    rel_nu = abs(lhs - rhs) / abs(rhs)
    ok = rel_c <= 1e-7 and rel_s <= 1e-7 and rel_nu <= 1e-6
    _report("criterion 7 (integral relations)", ok,
            f"Ec {rel_c:.2e}, Es {rel_s:.2e}, real-nu {rel_nu:.2e}")
    assert rel_c <= 1e-7
    assert rel_s <= 1e-7
    assert rel_nu <= 1e-6


def test_criterion_08_toroidal_limits():
    m = Modulus.from_k(1e-3)
    worst_h = 0.0
    for nu in (0.5, 1.5):
        for kind in ("c", "s"):
            for sup in range(0 if kind == "c" else 1, 5):
                b, cols = basis_for([family_of_superscript(kind, sup)], nu, m)
                worst_h = max(worst_h, abs(b.h[cols[0]] - sup * sup))
    b, cols = basis_for([family_of_superscript("c", 2)], 1.5, m)
    grid = np.linspace(0.0, m.quarter_K, 40)
    limit = math.sqrt(4.0 / math.pi) * np.cos(2.0 * (0.5 * math.pi - grid))
    sup_dist = float(np.max(np.abs(
        [b.real(float(s), cols=cols)[0, 0] for s in grid] - limit)))
    monotone_ok = True
    for mm, n in ((1, 2), (0, 1), (2, 0), (1, 3)):
        rows = limit_comparison(mm, n, 1.2, 0.5, 0.4, 5.38, [0.1, 0.03, 0.01])
        diffs = [r["abs_diff"] for r in rows]
        if not (diffs[0] > diffs[1] > diffs[2]):
            monotone_ok = False
    ok = worst_h <= 5e-3 and sup_dist <= 1e-2 and monotone_ok
    _report("criterion 8 (toroidal limits)", ok,
            f"|h - n^2| {worst_h:.2e}, eigenfunction sup {sup_dist:.2e}, "
            f"A->B monotone {monotone_ok}")
    assert worst_h <= 5e-3
    assert sup_dist <= 1e-2
    assert monotone_ok


def test_criterion_09_dirichlet_solver():
    m = Modulus.from_k(0.5)
    K, Kp = m.quarter_K, m.quarter_Kp
    dom = FlatRingDomain(t0=0.4 * Kp, modulus=m)
    r_star = flatring_to_cartesian(FlatRingPoint(
        s=1.2 * K, t=0.8 * Kp, phi=-0.7, modulus=m))
    coeffs = solve_point_source(dom, r_star, Truncation(12, 12))
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10):
        q = flatring_to_cartesian(FlatRingPoint(
            s=rng.uniform(-2 * K + 0.3, 2 * K - 0.3),
            t=rng.uniform(0.05 * Kp, 0.5 * dom.t0),
            phi=rng.uniform(-3.0, 3.0), modulus=m))
        u = solve_interior(dom, coeffs, q)
        f = 1.0 / math.dist(q, r_star)
        worst = max(worst, abs(u - f) / abs(f))
    r_out = flatring_to_cartesian(FlatRingPoint(s=0.9 * K, t=0.8 * Kp, phi=0.5, modulus=m))
    worst_rep = 0.0
    for mm, sup, kind in ((1, 0, HarmonicKind.HC), (1, 2, HarmonicKind.HS)):
        idx = HarmonicIndex(m=mm, n=sup, kind=kind)
        via = external_from_boundary(dom, idx, r_out)
        direct = external_harmonic(idx, r_out, m)
        worst_rep = max(worst_rep, abs(via - direct) / abs(direct))
    ok = worst <= 1e-6 and worst_rep <= 1e-6
    _report("criterion 9 (Dirichlet solver)", ok,
            f"point-source {worst:.2e} over 10 probes, integral rep {worst_rep:.2e}")
    assert worst <= 1e-6
    assert worst_rep <= 1e-6


def test_criterion_10_harmonicity():
    m = Modulus.from_k(0.5)
    rng = np.random.default_rng(1010)
    h = 1e-3
    worst = {}
    for kind in HarmonicKind:
        idx = HarmonicIndex(m=2, n=2, kind=kind)
        fn = internal_harmonic if kind.internal else external_harmonic
        res_max = 0.0
        count = 0
        while count < 50:
            x = rng.uniform(-1.3, 1.3)
            y = rng.uniform(-1.3, 1.3)
            z = rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.8)
            if not 0.2 < math.hypot(x, y) < 1.8:
                continue
            q = CartesianPoint(x, y, z)
            c = fn(idx, q, m)
            acc = -6.0 * c
            mx = abs(c)
            for d in ((h, 0, 0), (-h, 0, 0), (0, h, 0), (0, -h, 0), (0, 0, h), (0, 0, -h)):
                v = fn(idx, CartesianPoint(q.x + d[0], q.y + d[1], q.z + d[2]), m)
                acc += v
                mx = max(mx, abs(v))
            res_max = max(res_max, abs(acc) / mx)
            count += 1
        worst[kind.value] = res_max
    ok = all(v <= 1e-5 for v in worst.values())
    _report("criterion 10 (harmonicity)", ok,
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    for kind, v in worst.items():
        assert v <= 1e-5, kind

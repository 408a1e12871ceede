"""Self-contained property suites behind the `verify` CLI subcommand.

Each check returns {"check", "residual", "tolerance", "pass"}; a suite
passes when every check does.  Residuals are scaled so the listed tolerance
is meaningful regardless of the sampled magnitudes, and every random grid is
drawn from a seeded generator so runs are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from . import coords, dirichlet, harmonics, lame, legendre
from .elliptic import Modulus, complete_k, jacobi_imag, jacobi_real, ns2_series_coeffs
from .errors import DomainError

_DEFAULT_K = 0.5


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "check": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def suite_elliptic(seed: int = 0, tol_scale: float = 1.0) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for _ in range(200):
        k = rng.uniform(0.05, 0.95)
        u = rng.uniform(-8.0, 8.0)
        m = Modulus.from_k(k)
        t = jacobi_real(u, m)
        worst = max(worst, abs(t.sn ** 2 + t.cn ** 2 - 1.0),
                    abs(t.dn ** 2 + k * k * t.sn ** 2 - 1.0))
    out.append(_check("jacobi.pythagorean", worst, 1e-13 * tol_scale))

    m = Modulus.from_k(_DEFAULT_K)
    worst = 0.0
    for u in rng.uniform(-4.0, 4.0, 50):
        a = jacobi_real(u, m)
        b = jacobi_real(u + 4.0 * m.quarter_K, m)
        c = jacobi_real(u + 2.0 * m.quarter_K, m)
        worst = max(worst, abs(a.sn - b.sn), abs(a.cn - b.cn), abs(a.dn - c.dn))
    out.append(_check("jacobi.periodicity", worst, 1e-12 * tol_scale))

    ks = np.linspace(0.05, 0.95, 19)
    kv = [complete_k(k) for k in ks]
    kpv = [complete_k(math.sqrt(1 - k * k)) for k in ks]
    mono = min(np.diff(kv)) > 0.0 and max(np.diff(kpv)) < 0.0
    out.append(_check("complete_k.monotone", 0.0 if mono else 1.0, 0.5))

    worst = 0.0
    for t in rng.uniform(0.0, 0.9 * m.quarter_Kp, 40):
        a = jacobi_imag(t, m)
        b = jacobi_imag(-t, m)
        worst = max(worst, abs(a.sn_im + b.sn_im), abs(a.cn - b.cn), abs(a.dn - b.dn))
    out.append(_check("jacobi_imag.parity", worst, 1e-14 * tol_scale))

    r = ns2_series_coeffs(m, 8)
    out.append(_check("ns2.constant_term", abs(r[0] - 1.0), 1e-15 * tol_scale))
    out.append(_check(
        "ns2.tau2_term",
        abs(r[1] - (1.0 + m.k_prime ** 2) / 3.0),
        1e-13 * tol_scale,
    ))
    # the full 64-term sum at 0.6 of its radius 2 min(K, K')
    tau = 1.2 * min(m.quarter_K, m.quarter_Kp)
    direct = (tau / jacobi_real(tau, Modulus.from_k(m.k_prime)).sn) ** 2
    series = np.polynomial.polynomial.polyval(tau * tau, ns2_series_coeffs(m, 64))
    out.append(_check("ns2.series_sum", abs(series - direct) / direct, 1e-13 * tol_scale))

    # one array round trip over random V1 points and the corners next to the
    # unit sphere (K - s = 1e-8, both sides and signs) and the axis (t = 0.99 K')
    k_big, kp = m.quarter_K, m.quarter_Kp
    near = k_big - 1e-8
    s = np.append(rng.uniform(-1.99, 1.99, 200) * k_big, [near, -near, k_big + 1e-8, 0.3 * k_big])
    t = np.append(rng.uniform(0.01, 0.99, 200) * kp, [0.5 * kp, 0.1 * kp, 0.99 * kp, 0.99 * kp])
    p = coords.FlatRingPoint(s=s, t=t, phi=rng.uniform(-math.pi, math.pi, s.size), modulus=m)
    back = coords.cartesian_to_flatring(coords.flatring_to_cartesian(p), m)
    worst = max(np.max(np.abs(back.s - s)), np.max(np.abs(back.t - t)),
                np.max(np.abs(back.phi - p.phi)))
    out.append(_check("coords.inverse_roundtrip", worst, 1e-12 * tol_scale))
    return out


def suite_lame(seed: int = 0, tol_scale: float = 1.0) -> list[dict]:
    out = []
    m = Modulus.from_k(_DEFAULT_K)
    worst_bracket = worst_wronskian = worst_sup = 0.0
    grid = np.linspace(0.0, 4.0 * m.quarter_K, 40)
    ts = np.linspace(0.1, 0.9, 7) * m.quarter_Kp
    for nu in (-0.5, 0.5, 2.5):
        for fam in lame.LameFamily:
            b, cols = lame.basis_for([(fam, n) for n in range(5)], nu, m)
            lo, hi = b.bracket[cols].T
            worst_bracket = max(worst_bracket, float(np.max(lo - b.h[cols])),
                                float(np.max(b.h[cols] - hi)))
            sup = np.max(b.real(grid, cols=cols) ** 2, axis=0) - b.sup_bound
            worst_sup = max(worst_sup, float(np.max(sup)))
            third = cols[2:3]
            w = (b.second(ts, cols=third) * b.imag(ts, derivative=True, cols=third)
                 - b.imag(ts, cols=third) * b.second(ts, derivative=True, cols=third))
            worst_wronskian = max(worst_wronskian, float(np.max(np.abs(w - 1.0))))
    out.append(_check("lame.bracket", worst_bracket, 1e-8 * tol_scale))
    out.append(_check("lame.sup_bound", worst_sup, 0.0 + 1e-12))
    out.append(_check("lame.wronskian", worst_wronskian, 1e-9 * tol_scale))

    x, w = np.polynomial.legendre.leggauss(192)
    s_nodes = 0.5 * m.quarter_K * (x + 1.0)
    s_w = 0.5 * m.quarter_K * w
    b, cols = lame.basis_for([(lame.LameFamily.ES_ODD, n) for n in range(6)], 0.5, m)
    vals = b.real(s_nodes, cols=cols).T
    gram = (vals * s_w) @ vals.T
    out.append(_check("lame.orthonormal", float(np.max(np.abs(gram - np.eye(6)))),
                      1e-9 * tol_scale))
    return out


def suite_harmonics(seed: int = 0, tol_scale: float = 1.0) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    m = Modulus.from_k(_DEFAULT_K)

    idx = harmonics.HarmonicIndex(m=1, n=2, kind=harmonics.HarmonicKind.GC)
    q = rng.uniform([0.3, -0.5, 0.1], [1.2, 0.5, 0.8], (20, 3)).T
    nrm2 = np.sum(q * q, axis=0)
    gv = harmonics.internal_harmonic(idx, coords.CartesianPoint(*q), m)
    gs = harmonics.internal_harmonic(idx, coords.CartesianPoint(*(q / nrm2)), m)
    worst = np.max(np.abs(gs - np.sqrt(nrm2) * gv) / np.maximum(np.abs(gv), 1e-30))
    out.append(_check("harmonics.kelvin", worst, 1e-10 * tol_scale))

    # seven-point Laplacian: the centre, then +h and -h along each axis
    h = 1e-3
    centres = rng.uniform([0.35, -0.4, 0.15], [1.1, 0.4, 0.7], (12, 3))
    steps = np.vstack([np.zeros(3), h * np.eye(3), -h * np.eye(3)])
    v = harmonics.internal_harmonic(
        idx, coords.CartesianPoint(*np.moveaxis(centres[:, None] + steps, -1, 0)), m)
    worst = np.max(np.abs(v[:, 1:].sum(axis=1) - 6.0 * v[:, 0]) / np.abs(v).max(axis=1))
    out.append(_check("harmonics.laplacian", worst, 1e-5 * tol_scale))

    K, Kp = m.quarter_K, m.quarter_Kp
    r = coords.flatring_to_cartesian(coords.FlatRingPoint(
        s=0.7 * K, t=0.2 * Kp, phi=0.3, modulus=m))
    rs = coords.flatring_to_cartesian(coords.FlatRingPoint(
        s=1.1 * K, t=0.65 * Kp, phi=-0.5, modulus=m))
    direct = 1.0 / math.dist(r, rs)
    val = harmonics.green_expansion(r, rs, harmonics.Truncation(10, 10), m)[0]
    out.append(_check("harmonics.green", abs(val - direct) / direct, 1e-4 * tol_scale))

    rt = coords.toroidal_to_cartesian(coords.ToroidalPoint(tau=2.0, psi=0.4, phi=0.1))
    rts = coords.toroidal_to_cartesian(coords.ToroidalPoint(tau=1.0, psi=-0.7, phi=0.9))
    direct = 1.0 / math.dist(rt, rts)
    val = harmonics.toroidal_green_expansion(rt, rts, harmonics.Truncation(16, 16))[0]
    out.append(_check("harmonics.toroidal_green", abs(val - direct) / direct,
                      1e-6 * tol_scale))

    # near the axis (tau < 0.3, cosh tau < 1.05), where the tables run closest to z = 1
    rt = coords.toroidal_to_cartesian(coords.ToroidalPoint(tau=0.25, psi=1.0, phi=0.2))
    rts = coords.toroidal_to_cartesian(coords.ToroidalPoint(tau=0.1, psi=-1.0, phi=2.0))
    direct = 1.0 / math.dist(rt, rts)
    val = harmonics.toroidal_green_expansion(rt, rts, harmonics.Truncation(30, 100))[0]
    out.append(_check("harmonics.toroidal_green_near_axis", abs(val - direct) / direct,
                      1e-8 * tol_scale))

    rhs = harmonics.addition_theorem_rhs(1, 0.6 * K, 1.3 * K, 0.25 * Kp, 0.65 * Kp, 11, m)
    q_half = legendre.toroidal_q_table(harmonics.flatring_chi(
        0.6 * K, 0.25 * Kp, 1.3 * K, 0.65 * Kp, m), 0, 1)
    lhs = float(q_half[0, 1])
    out.append(_check("harmonics.addition", abs(rhs - lhs) / abs(lhs), 1e-4 * tol_scale))

    lhs_i, rhs_i = harmonics.integral_relation_check(
        0.5, 0, "c", 0.8 * K, 0.2 * Kp, 0.7 * Kp, m, n_quad=256)
    out.append(_check("harmonics.integral_relation", abs(lhs_i - rhs_i) / abs(rhs_i),
                      1e-7 * tol_scale))
    return out


def suite_dirichlet(seed: int = 0, tol_scale: float = 1.0) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    m = Modulus.from_k(_DEFAULT_K)
    K, Kp = m.quarter_K, m.quarter_Kp
    dom = dirichlet.FlatRingDomain(t0=0.4 * Kp, modulus=m)
    r_star = coords.flatring_to_cartesian(coords.FlatRingPoint(
        s=1.2 * K, t=0.8 * Kp, phi=-0.7, modulus=m))
    coeffs = dirichlet.solve_point_source(dom, r_star, harmonics.Truncation(8, 8),
                                          n_s=64, n_phi=48)
    s, t, phi = rng.uniform([-2 * K + 0.3, 0.05 * Kp, -3.0],
                            [2 * K - 0.3, 0.5 * dom.t0, 3.0], (5, 3)).T
    probes = coords.flatring_to_cartesian(coords.FlatRingPoint(s=s, t=t, phi=phi, modulus=m))
    f = 1.0 / np.sqrt(sum((a - b) ** 2 for a, b in zip(probes, r_star)))
    worst = float(np.max(np.abs(dirichlet.solve_interior(dom, coeffs, probes) - f) / f))
    out.append(_check("dirichlet.point_source", worst, 1e-6 * tol_scale))
    out.append(_check("dirichlet.parseval", coeffs.parseval_residual, 1e-6 * tol_scale))

    idx = harmonics.HarmonicIndex(m=1, n=0, kind=harmonics.HarmonicKind.HC)
    r_out = coords.flatring_to_cartesian(coords.FlatRingPoint(
        s=0.9 * K, t=0.8 * Kp, phi=0.5, modulus=m))
    via = dirichlet.external_from_boundary(dom, idx, r_out, n_s=96, n_phi=48)
    direct = harmonics.external_harmonic(idx, r_out, m)
    out.append(_check("dirichlet.integral_representation",
                      abs(via - direct) / abs(direct), 1e-6 * tol_scale))
    return out


def suite_limits(seed: int = 0, tol_scale: float = 1.0) -> list[dict]:
    out = []
    mt = Modulus.from_k(1e-3)
    b, cols = lame.basis_for([lame.family_of_superscript("c", sup) for sup in range(5)], 0.5, mt)
    worst = float(np.max(np.abs(b.h[cols] - np.arange(5) ** 2)))
    out.append(_check("limits.eigenvalue", worst, 5e-3 * tol_scale))

    fam, nz = lame.family_of_superscript("c", 2)
    grid = np.linspace(0.0, mt.quarter_K, 30)
    lim = math.sqrt(4.0 / math.pi) * np.cos(2.0 * (0.5 * math.pi - grid))
    b, cols = lame.basis_for([(fam, nz)], 1.5, mt)
    vals = b.real(grid, cols=cols)[:, 0]
    out.append(_check("limits.eigenfunction", float(np.max(np.abs(vals - lim))),
                      1e-2 * tol_scale))

    rows = harmonics.limit_comparison(1, 2, 1.2, 0.5, 0.4, 5.38, [0.1, 0.03, 0.01])
    diffs = [row["abs_diff"] for row in rows]
    monotone = all(a > b for a, b in zip(diffs, diffs[1:]))
    out.append(_check("limits.flatring_to_toroidal",
                      0.0 if monotone else 1.0, 0.5))
    out.append(_check("limits.final_gap", diffs[-1], 1e-4 * tol_scale))
    return out


SUITES = {
    "elliptic": suite_elliptic,
    "lame": suite_lame,
    "harmonics": suite_harmonics,
    "dirichlet": suite_dirichlet,
    "limits": suite_limits,
}


def run_suites(names: list[str], seed: int = 0, tol_scale: float = 1.0) -> list[dict]:
    if not 0.0 < tol_scale < math.inf:
        raise DomainError(f"tolerance scale must be positive and finite, got {tol_scale!r}")
    checks = []
    for name in names:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        checks.extend(SUITES[name](seed=seed, tol_scale=tol_scale))
    return checks

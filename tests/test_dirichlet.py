import math

import numpy as np
import pytest

from flatring.coords import CartesianPoint, FlatRingPoint, flatring_to_cartesian
from flatring.dirichlet import (
    BoundaryData,
    FlatRingDomain,
    coefficients,
    external_from_boundary,
    solve_interior,
    solve_point_source,
)
from flatring.errors import DomainError
from flatring.harmonics import HarmonicIndex, HarmonicKind, Truncation, external_harmonic, internal_harmonic


@pytest.fixture(scope="module")
def setup(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    r_star = flatring_to_cartesian(FlatRingPoint(
        s=1.2 * m.quarter_K, t=0.8 * m.quarter_Kp, phi=-0.7, modulus=m))
    coeffs = solve_point_source(dom, r_star, Truncation(12, 12))
    return m, dom, r_star, coeffs


def test_domain_membership(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    inner = flatring_to_cartesian(FlatRingPoint(
        s=0.5 * m.quarter_K, t=0.2 * m.quarter_Kp, phi=0.3, modulus=m))
    outer = flatring_to_cartesian(FlatRingPoint(
        s=0.5 * m.quarter_K, t=0.7 * m.quarter_Kp, phi=0.3, modulus=m))
    assert dom.contains(inner)
    assert not dom.contains(outer)
    # the scaled t-surface residual: positive inside, negative outside, zero on the surface
    assert dom.membership(inner) > 0.0 > dom.membership(outer)
    for s, phi in ((0.5 * m.quarter_K, 0.3), (-1.7 * m.quarter_K, -2.0), (0.0, 1.0)):
        assert abs(dom.membership(dom.surface_point(s, phi))) <= 1e-12
    with pytest.raises(DomainError):
        FlatRingDomain(t0=1.5 * m.quarter_Kp, modulus=m)


def test_constant_boundary_only_symmetric_modes(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    table = coefficients(dom, BoundaryData(g=lambda s, phi: 1.0), Truncation(3, 3))
    for j, order in enumerate(range(-3, 4)):
        if order != 0:
            assert np.max(np.abs(table.c[j])) < 1e-12
    # odd-in-s families integrate to zero against even data
    assert np.max(np.abs(table.d)) < 1e-12


def test_single_mode_recovery(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    idx = HarmonicIndex(m=1, n=2, kind=HarmonicKind.GC)
    data = BoundaryData.from_function(dom, lambda q: internal_harmonic(idx, q, m).real)
    table = coefficients(dom, data, Truncation(4, 4))
    # Re Gc_1^2 projects onto the (m, n) = (+-1, 2) pair with weight 1/2
    assert table.c_of(1, 2) == pytest.approx(0.5, abs=1e-10)
    assert table.c_of(-1, 2) == pytest.approx(0.5, abs=1e-10)
    worst = 0.0
    for order in range(-4, 5):
        for sup in range(5):
            if abs(order) == 1 and sup == 2:
                continue
            worst = max(worst, abs(table.c_of(order, sup)))
        for sup in range(1, 5):
            worst = max(worst, abs(table.d_of(order, sup)))
    assert worst < 1e-10


def test_point_source_coefficients_match_external_harmonics(setup):
    m, dom, r_star, coeffs = setup
    for order in (-2, 0, 1):
        for sup in (0, 1, 3):
            expected = 0.5 * external_harmonic(
                HarmonicIndex(m=-order, n=sup, kind=HarmonicKind.HC), r_star, m)
            assert coeffs.c_of(order, sup) == pytest.approx(expected, abs=1e-7)
        for sup in (1, 2):
            expected = 0.5 * external_harmonic(
                HarmonicIndex(m=-order, n=sup, kind=HarmonicKind.HS), r_star, m)
            assert coeffs.d_of(order, sup) == pytest.approx(expected, abs=1e-7)


def test_interior_point_source_reproduction(setup):
    m, dom, r_star, coeffs = setup
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = FlatRingPoint(
            s=rng.uniform(-2 * m.quarter_K + 0.3, 2 * m.quarter_K - 0.3),
            t=rng.uniform(0.05 * m.quarter_Kp, 0.5 * dom.t0),
            phi=rng.uniform(-3.0, 3.0), modulus=m)
        q = flatring_to_cartesian(p)
        u = solve_interior(dom, coeffs, q)
        f = 1.0 / math.dist(q, r_star)
        assert u == pytest.approx(f, rel=1e-6)


def test_interior_on_arrays_matches_sequence(setup):
    m, dom, r_star, coeffs = setup
    rng = np.random.default_rng(10)
    q = flatring_to_cartesian(FlatRingPoint(
        s=rng.uniform(-1.8, 1.8, (2, 3)) * m.quarter_K,
        t=rng.uniform(0.05 * m.quarter_Kp, 0.5 * dom.t0, (2, 3)),
        phi=rng.uniform(-3.0, 3.0, (2, 3)), modulus=m))
    whole = solve_interior(dom, coeffs, q)
    seq = solve_interior(dom, coeffs, [CartesianPoint(*p) for p in zip(*(c.ravel() for c in q))])
    assert whole.shape == (2, 3) and seq.shape == (6,)
    np.testing.assert_allclose(whole.ravel(), seq, rtol=1e-13)
    assert solve_interior(dom, coeffs, []).shape == (0,)


def test_mesh_sampling_of_cartesian_data_matches_pointwise(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    idx = HarmonicIndex(m=1, n=2, kind=HarmonicKind.GC)
    f = lambda q: internal_harmonic(idx, q, m).real  # noqa: E731
    s, phi = np.linspace(-2.0, 2.0, 7), np.linspace(-3.0, 3.0, 5)
    mesh = BoundaryData.from_function(dom, f).sample(s, phi)

    def node(a, b):  # g at one node, from a CartesianPoint of floats
        q = dom.surface_point(float(a), float(b))
        return (q.x * q.x + q.y * q.y) ** 0.25 * f(q)

    np.testing.assert_allclose(mesh, [[node(a, b) for b in phi] for a in s],
                               rtol=1e-13, atol=1e-15)


def test_basis_reproduction(m05):
    # boundary data pulled from one internal harmonic reproduces it exactly
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    idx = HarmonicIndex(m=2, n=1, kind=HarmonicKind.GC)
    data = BoundaryData.from_function(dom, lambda q: internal_harmonic(idx, q, m).real)
    table = coefficients(dom, data, Truncation(4, 4))
    q = flatring_to_cartesian(FlatRingPoint(
        s=0.9 * m.quarter_K, t=0.5 * dom.t0, phi=0.8, modulus=m))
    u = solve_interior(dom, table, q)
    assert u == pytest.approx(internal_harmonic(idx, q, m).real, abs=1e-9)


def test_maximum_principle(setup):
    m, dom, r_star, coeffs = setup
    # boundary sup of f = 1/|.-r*| over a parameter grid
    sup_f = 0.0
    for s in np.linspace(-1.95, 1.95, 41) * m.quarter_K:
        for phi in np.linspace(-math.pi, math.pi, 41):
            q = dom.surface_point(float(s), float(phi))
            sup_f = max(sup_f, 1.0 / math.dist(q, r_star))
    rng = np.random.default_rng(13)
    for _ in range(8):
        q = flatring_to_cartesian(FlatRingPoint(
            s=rng.uniform(-1.8, 1.8) * m.quarter_K,
            t=rng.uniform(0.1, 0.5) * dom.t0,
            phi=rng.uniform(-3.0, 3.0), modulus=m))
        assert abs(solve_interior(dom, coeffs, q)) <= sup_f * (1.0 + 1e-6)


def test_weak_boundary_attainment(setup):
    # L2 distance of the t-slice trace to g decreases as t -> t0
    m, dom, r_star, coeffs = setup
    s_grid = np.linspace(-1.9, 1.9, 24) * m.quarter_K
    phi_grid = np.linspace(-math.pi, math.pi, 17)[:-1]

    def trace_l2(t):
        acc = 0.0
        for s in s_grid:
            for phi in phi_grid:
                q = flatring_to_cartesian(FlatRingPoint(
                    s=float(s), t=float(t), phi=float(phi), modulus=m))
                big_r = math.hypot(q.x, q.y)
                u = solve_interior(dom, coeffs, q) * big_r ** 0.25
                qb = dom.surface_point(float(s), float(phi))
                g = (qb.x ** 2 + qb.y ** 2) ** 0.25 / math.dist(qb, r_star)
                acc += (u - g) ** 2
        return math.sqrt(acc)

    dists = [trace_l2(f * dom.t0) for f in (0.5, 0.75, 0.9)]
    assert dists[0] > dists[1] > dists[2]


def test_under_resolved_data_warns(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    rough = BoundaryData(g=lambda s, phi: np.copysign(1.0, np.sin(9.0 * s + 5.0 * phi)),
                         n_s=24, n_phi=16)
    from flatring.errors import QuadratureWarning
    with pytest.warns(QuadratureWarning):
        coefficients(dom, rough, Truncation(2, 2))


def test_quadrature_resolution_stability(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    r_star = flatring_to_cartesian(FlatRingPoint(
        s=1.2 * m.quarter_K, t=0.8 * m.quarter_Kp, phi=-0.7, modulus=m))
    c1 = solve_point_source(dom, r_star, Truncation(6, 6), n_s=64, n_phi=48)
    c2 = solve_point_source(dom, r_star, Truncation(6, 6), n_s=128, n_phi=96)
    q = flatring_to_cartesian(FlatRingPoint(
        s=0.6 * m.quarter_K, t=0.4 * dom.t0, phi=0.5, modulus=m))
    assert solve_interior(dom, c1, q) == pytest.approx(
        solve_interior(dom, c2, q), abs=1e-8)


def test_interior_margin_enforced(setup):
    m, dom, r_star, coeffs = setup
    q = flatring_to_cartesian(FlatRingPoint(
        s=0.5 * m.quarter_K, t=dom.t0 - 1e-6, phi=0.0, modulus=m))
    with pytest.raises(DomainError):
        solve_interior(dom, coeffs, q)


def test_point_source_must_be_outside(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    inside = flatring_to_cartesian(FlatRingPoint(
        s=0.5 * m.quarter_K, t=0.1 * m.quarter_Kp, phi=0.0, modulus=m))
    with pytest.raises(DomainError):
        solve_point_source(dom, inside, Truncation(4, 4))


def test_external_from_boundary(setup):
    m, dom, r_star, _ = setup
    r_out = flatring_to_cartesian(FlatRingPoint(
        s=0.9 * m.quarter_K, t=0.8 * m.quarter_Kp, phi=0.5, modulus=m))
    for mm, sup, kind in ((1, 0, HarmonicKind.HC), (0, 2, HarmonicKind.HC),
                          (1, 2, HarmonicKind.HS)):
        idx = HarmonicIndex(m=mm, n=sup, kind=kind)
        via = external_from_boundary(dom, idx, r_out)
        direct = external_harmonic(idx, r_out, m)
        assert via == pytest.approx(direct, rel=1e-6)


def test_external_from_boundary_parity_null(setup):
    # odd-superscript harmonic at a z = 0 exterior point: both sides vanish
    m, dom, _, _ = setup
    r_plane = CartesianPoint(0.25, 0.0, 0.0)  # inside the focal disc, outside D1
    assert not dom.contains(r_plane)
    idx = HarmonicIndex(m=0, n=1, kind=HarmonicKind.HC)
    via = external_from_boundary(dom, idx, r_plane)
    direct = external_harmonic(idx, r_plane, m)
    assert abs(via) < 1e-10 and abs(direct) < 1e-10


def test_external_from_boundary_quadrature_convergence(setup):
    m, dom, _, _ = setup
    r_out = flatring_to_cartesian(FlatRingPoint(
        s=0.9 * m.quarter_K, t=0.8 * m.quarter_Kp, phi=0.5, modulus=m))
    idx = HarmonicIndex(m=1, n=0, kind=HarmonicKind.HC)
    a = external_from_boundary(dom, idx, r_out, n_s=96, n_phi=48)
    b = external_from_boundary(dom, idx, r_out, n_s=192, n_phi=96)
    assert abs(a - b) < 1e-8


def test_containment_violation(setup):
    m, dom, _, _ = setup
    inside = flatring_to_cartesian(FlatRingPoint(
        s=0.5 * m.quarter_K, t=0.1 * m.quarter_Kp, phi=0.0, modulus=m))
    idx = HarmonicIndex(m=1, n=0, kind=HarmonicKind.HC)
    with pytest.raises(DomainError):
        external_from_boundary(dom, idx, inside)


def test_non_finite_boundary_data_is_refused(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    for bad in (math.inf, math.nan):
        data = BoundaryData(g=lambda s, phi: np.where(s > 1.0, bad, 1.0) + 0.0 * phi,
                            n_s=24, n_phi=16)
        with pytest.raises(DomainError, match="non-finite boundary data"):
            coefficients(dom, data, Truncation(2, 2))

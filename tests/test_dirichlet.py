import math

import numpy as np
import pytest

from flatring import dirichlet
from flatring.coords import CartesianPoint, FlatRingPoint, Variant, cartesian_to_flatring, flatring_to_cartesian
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
from flatring.lame import OrderSet, order_set


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


def test_far_point_is_outside(m05):
    # no power of a far point overflows in the residual, past the inversion's
    # guard too; a source past the guard FAR_GUARD k is refused before any is taken
    dom = FlatRingDomain(t0=0.4 * m05.quarter_Kp, modulus=m05)
    for far in (1e80, 1e150, -1e120, 1e155, 1e200, -1e300):
        assert dom.membership(CartesianPoint(far, 0.0, 1.0)) < 0.0
        assert dom.membership(CartesianPoint(0.0, 1.0, far)) < 0.0
    r_star = CartesianPoint(1e150, 0.0, 1.0)
    with pytest.raises(DomainError, match="too far from the origin"):
        solve_point_source(dom, r_star, Truncation(2, 2))
    with pytest.raises(DomainError, match="too far from the origin"):
        external_from_boundary(dom, HarmonicIndex(m=1, n=0, kind=HarmonicKind.HC), r_star)


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


# --- the per-order loops that the stacked projection and fold replace -----------


def _coefficients_by_order(dom, data, tr):
    """c and d side by side, (2 m_max + 1, 2 n_max + 2): the phi quadrature
    of every signed order, then one E product and one W(t0) per |m|, shared
    by +m and -m."""
    s_nodes, s_weights, phi_nodes, dphi = dirichlet._surface_quadrature(dom.modulus, data.n_s,
                                                                        data.n_phi)
    gvals = data.sample(s_nodes, phi_nodes)
    orders = np.arange(-tr.m_max, tr.m_max + 1)
    g_hat = (np.exp(-1j * np.outer(orders, phi_nodes)) * dphi @ gvals.T) * s_weights
    cd = np.zeros((2 * tr.m_max + 1, 2 * (tr.n_max + 1)), dtype=complex)
    bases = order_set(dom.modulus, tr.m_max, tr.n_max)
    e_all, (edges,) = bases.real(s_nodes).transpose(1, 0, 2), bases.imag(dom.t0)
    for order, (e, edge) in enumerate(zip(e_all, edges)):
        rows = sorted({tr.m_max + order, tr.m_max - order})
        cd[rows] = (g_hat[rows] @ e) / (8.0 * math.pi * edge)
    return cd


def _solve_interior_by_order(dom, coeffs, q):
    """The interior sum at a CartesianPoint of arrays, order by order and
    sign by sign."""
    p = cartesian_to_flatring(q, dom.modulus, Variant.V1)
    s, t, phi = (np.ravel(v) for v in (p.s, p.t, p.phi))
    cd = np.hstack([coeffs.c, coeffs.d])
    bases = order_set(dom.modulus, coeffs.m_max, coeffs.n_max)
    products = (bases.real(s) * bases.imag(t)).transpose(1, 0, 2)
    total = np.zeros(t.size, dtype=complex)
    for order, base in enumerate(products):
        for j in {order, -order}:
            total += (base @ cd[coeffs.m_max + j]) * np.exp(1j * j * phi)
    return (np.ravel(q.x) ** 2 + np.ravel(q.y) ** 2) ** -0.25 * total.real


@pytest.mark.filterwarnings("ignore::flatring.errors.QuadratureWarning")
@pytest.mark.parametrize("m_max", [0, 1, 12])
def test_stacked_projection_and_fold_match_the_per_order_loops(m05, m_max):
    # data odd in phi at |m| = 1 and 3, with an even part at m = 0 and a
    # smaller one at |m| = 1: c_-m = conj(c_m) != c_m
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    data = BoundaryData(g=lambda s, phi: (np.exp(0.3 * s) * np.sin(phi) + 0.2 * s * np.sin(3.0 * phi)
                                          + np.cos(0.5 * s) * (0.5 + 0.1 * np.cos(phi))),
                        n_s=48, n_phi=40)
    tr = Truncation(m_max, 6)
    table = coefficients(dom, data, tr)
    cd = np.hstack([table.c, table.d])
    ref = _coefficients_by_order(dom, data, tr)
    np.testing.assert_allclose(cd, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
    if m_max:
        assert np.abs(cd[m_max + 1] - cd[m_max - 1]).max() > 0.1 * np.abs(cd).max()
    rng = np.random.default_rng(17)
    q = flatring_to_cartesian(FlatRingPoint(
        s=rng.uniform(-1.9, 1.9, 20) * m.quarter_K, t=rng.uniform(0.05, 0.9, 20) * dom.t0,
        phi=rng.uniform(-math.pi, math.pi, 20), modulus=m))
    ref = _solve_interior_by_order(dom, table, q)
    np.testing.assert_allclose(solve_interior(dom, table, q), ref,
                               rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_second_point_source_solve_reads_no_basis(m05, monkeypatch):
    # the projection's E at the s-nodes and W at t0 are read once per surface
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    r_star = flatring_to_cartesian(FlatRingPoint(
        s=1.2 * m.quarter_K, t=0.8 * m.quarter_Kp, phi=-0.7, modulus=m))
    tr = Truncation(5, 5)
    first = solve_point_source(dom, r_star, tr, n_s=40, n_phi=32)
    reads = []
    for name in ("real", "imag"):
        read = getattr(OrderSet, name)
        monkeypatch.setattr(OrderSet, name, lambda self, *a, read=read, name=name, **kw:
                            reads.append(name) or read(self, *a, **kw))
    second = solve_point_source(dom, r_star, tr, n_s=40, n_phi=32)
    assert reads == []
    assert np.array_equal(second.c, first.c) and np.array_equal(second.d, first.d)
    # another r* on the same surface reads nothing either; another t0 reads both
    solve_point_source(dom, CartesianPoint(0.1, 0.2, 1.5), tr, n_s=40, n_phi=32)
    assert reads == []
    solve_point_source(FlatRingDomain(t0=0.3 * m.quarter_Kp, modulus=m), r_star, tr,
                       n_s=40, n_phi=32)
    assert sorted(reads) == ["imag", "real"]


def _surface_arrays(surface):
    """Every array of a cached surface, the mesh's three among them."""
    return [x for v in surface._asdict().values() for x in (v if isinstance(v, tuple) else (v,))
            if isinstance(x, np.ndarray)]


def test_cached_surface_is_read_only(m05):
    m = m05
    surface = dirichlet._surface(m, 0.4 * m.quarter_Kp, 16, 12, 2, 2)
    arrays = _surface_arrays(surface)
    assert len(arrays) == 10
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[(0,) * x.ndim] = 1.0
    with pytest.raises(AttributeError):
        surface.edge = np.zeros_like(surface.edge)


def test_surface_cache_bound(m05):
    # one surface, and at the CLI defaults ((10, 10), 64 x 48 nodes) 0.21 MB:
    # the projection, one block per order m >= 0, takes 0.12 MB of it
    m = m05
    assert dirichlet._surface.cache_info().maxsize == 1
    surface = dirichlet._surface(m, 0.4 * m.quarter_Kp, 64, 48, 10, 10)
    held = {id(x): x for x in (a if a.base is None else a.base for a in _surface_arrays(surface))}
    assert 0.2e6 < sum(x.nbytes for x in held.values()) <= 0.22e6
    assert surface.projection.shape == (11, 64, 22)


def test_cartesian_data_is_sampled_on_the_cached_mesh(m05, monkeypatch):
    # from_function's data and the point source read the surface's mesh and
    # root_r: no mapping once the surface is cached, and the coefficients of
    # sampling g itself, bit for bit
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    idx = HarmonicIndex(m=1, n=2, kind=HarmonicKind.GC)
    data = BoundaryData.from_function(dom, lambda q: internal_harmonic(idx, q, m).real,
                                      n_s=40, n_phi=32)
    tr = Truncation(4, 4)
    through_g = coefficients(dom, BoundaryData(g=data.g, n_s=40, n_phi=32), tr)
    maps = []
    monkeypatch.setattr(dirichlet, "flatring_to_cartesian",
                        lambda p, f=flatring_to_cartesian: maps.append(p) or f(p))
    table = coefficients(dom, data, tr)
    r_star = CartesianPoint(0.1, 0.2, 1.5)
    solve_point_source(dom, r_star, tr, n_s=40, n_phi=32)
    assert maps == []
    assert np.array_equal(table.c, through_g.c) and np.array_equal(table.d, through_g.d)
    assert table.parseval_residual == through_g.parseval_residual
    source = BoundaryData.from_function(dom, lambda q: 1.0 / np.sqrt(
        (q.x - r_star.x) ** 2 + (q.y - r_star.y) ** 2 + (q.z - r_star.z) ** 2), n_s=40, n_phi=32)
    by_g = coefficients(dom, BoundaryData(g=source.g, n_s=40, n_phi=32), tr)
    point = solve_point_source(dom, r_star, tr, n_s=40, n_phi=32)
    assert np.array_equal(point.c, by_g.c) and np.array_equal(point.d, by_g.d)


def test_cartesian_data_belong_to_their_domain(m05):
    # from_function's f and domain are not constructor fields, and its data
    # projected for another domain are refused, not sampled on that surface
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    idx = HarmonicIndex(m=1, n=2, kind=HarmonicKind.GC)
    data = BoundaryData.from_function(dom, lambda q: internal_harmonic(idx, q, m).real,
                                      n_s=40, n_phi=32)
    assert data.dom is dom and "f=" not in repr(data)
    with pytest.raises(TypeError):
        BoundaryData(g=data.g, f=data.f)
    tr = Truncation(4, 4)
    same = coefficients(FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m), data, tr)
    assert np.array_equal(same.c, coefficients(dom, data, tr).c)
    with pytest.raises(DomainError, match="another domain"):
        coefficients(FlatRingDomain(t0=0.5 * m.quarter_Kp, modulus=m), data, tr)
    # hand-built data carry no f: g is sampled on the given domain's nodes
    other = coefficients(FlatRingDomain(t0=0.5 * m.quarter_Kp, modulus=m),
                         BoundaryData(g=data.g, n_s=40, n_phi=32), tr)
    assert np.all(np.isfinite(other.c))

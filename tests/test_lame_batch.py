"""Array evaluation of Lame sets: agreement with one-point, one-column
reads, the panel read against Clenshaw summation, the read of a set of
several orders against each order's one-nu set, parity on the imaginary axis, the Frobenius
hand-off, batched interior probes, and the array forms of the elliptic and
coordinate maps they rest on."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev

from flatring.coords import (
    FlatRingPoint,
    cartesian_to_flatring,
    chi_flatring,
    flatring_chi,
    flatring_to_cartesian,
)
from flatring.dirichlet import FlatRingDomain, solve_interior, solve_point_source
from flatring.elliptic import Modulus, _sncndn, jacobi_imag
from flatring.errors import DomainError, QuadratureWarning
from flatring.harmonics import Truncation, _double_series, _lame_products, green_expansion
from flatring.lame import (
    LameFamily,
    OrderSet,
    _ImagPanels,
    basis,
    basis_for,
    family_of_superscript,
    order_set,
    shell_specs,
)


def _close(batch_values, scalar_values, rtol=1e-14):
    """Elementwise agreement, relative to each column's largest magnitude."""
    scale = np.max(np.abs(scalar_values), axis=0, keepdims=True)
    assert np.all(np.abs(batch_values - scalar_values) <= rtol * scale)


@pytest.fixture(scope="module")
def mixed(m05):
    """Order-5 modes of all four families, low (Es^2, Ec^0, Es^1, Es^4) and
    high (Ec^27, Es^26), as a scrambled column subset of the basis that
    holds them, with their second kinds."""
    specs = [family_of_superscript(kind, sup) for kind, sup in
             (("s", 2), ("c", 27), ("c", 0), ("s", 1), ("s", 26), ("s", 4))]
    b, cols = basis_for(specs, 4.5, m05)
    return m05, b, cols


def test_batch_spans_families_and_panel_sets(mixed):
    _, b, cols = mixed
    assert {b.specs[j][0] for j in cols} == set(LameFamily)
    # the high modes set the depth; one panel set serves low and high columns
    assert b.n_max == 27 and sorted(cols) == [0, 27, 28, 29, 31, 53]


def test_real_axis_batch_matches_scalar(mixed):
    m, b, cols = mixed
    s = np.linspace(-3.0, 3.0, 41) * m.quarter_K
    for derivative in (False, True):
        scalar = np.array([[b.real(float(x), derivative, [j])[0, 0, 0] for j in cols]
                           for x in s])
        _close(b.real(s, derivative, cols)[:, 0], scalar)
        _close(b.real(s, derivative)[:, 0, cols], scalar)


def test_imaginary_axis_batch_matches_scalar(mixed):
    m, b, cols = mixed
    # several panels, t = 0 and negative t
    t = np.concatenate([[0.0], np.linspace(-0.85, 0.85, 35) * m.quarter_Kp])
    for derivative in (False, True):
        values = b.imag(t, derivative, cols)[:, 0]
        scalar = np.array([[b.imag(float(x), derivative, [j])[0, 0, 0] for j in cols]
                           for x in t])
        _close(values, scalar)
        _close(b.imag(t, derivative)[:, 0, cols], scalar)
        assert np.array_equal(values[0], b.boundary_data[0, cols, int(derivative)])
    assert len(b._first.edges) - 1 > 3


def test_second_kind_batch_matches_scalar_across_handoff(mixed):
    m, b, cols = mixed
    kp, tau0 = m.quarter_Kp, b._second_kind[1]
    # panel zone, both sides of the Frobenius hand-off, and the series zone
    t = np.concatenate([np.linspace(0.1, 0.85, 12) * kp,
                        kp - tau0 * np.array([1.0 + 1e-3, 1.0 - 1e-3, 0.5, 1e-3])])
    for derivative in (False, True):
        scalar = np.array([[b.second(float(x), derivative, [j])[0, 0, 0] for j in cols]
                           for x in t])
        _close(b.second(t, derivative, cols)[:, 0], scalar)
        _close(b.second(t, derivative)[:, 0, cols], scalar)
    # the two zones join continuously at the hand-off
    across = b.second(kp - tau0 * np.array([1.0 + 1e-9, 1.0 - 1e-9]), cols=cols)
    assert np.all(np.abs(across[0] - across[1]) <= 1e-7 * np.abs(across[0]))


def test_second_kind_domain(mixed):
    m, b, cols = mixed
    for bad in (0.0, m.quarter_Kp, -0.1, math.nan):
        with pytest.raises(DomainError):
            b.second([0.3, bad], cols=cols)


def test_imaginary_axis_parity_of_values_and_derivatives(mixed):
    # W has its family's parity and W' the opposite one
    m, b, cols = mixed
    t = np.array([0.2, 0.45]) * m.quarter_Kp
    even = np.array([b.specs[j][0].even_at_zero for j in cols])
    w, wm = b.imag(t, cols=cols), b.imag(-t, cols=cols)
    d, dm = b.imag(t, True, cols), b.imag(-t, True, cols)
    assert np.array_equal(wm, np.where(even, w, -w))
    assert np.array_equal(dm, np.where(even, -d, d))
    # W' at negative t against a central difference of W
    h = 1e-5
    fd = (b.imag(-t + h, cols=cols) - b.imag(-t - h, cols=cols)) / (2.0 * h)
    assert np.all(np.abs(fd - dm) <= 1e-6 * np.abs(dm).max(axis=0))


def test_panel_read_matches_clenshaw(mixed):
    # every panel of both sets, in build orientation: panel j runs from
    # edges[j] (x = -1) to edges[j+1] (x = +1), upward for the first kind and
    # downward for the continuation of the second.  An inner edge is read
    # from the panel that starts there, so each panel is read from its start
    # up to its end, exclusive but for the set's last edge.  The read agrees
    # with chebval to 1e-14 of each column's largest |value|, at x clipped
    # to [-1, 1] as the read clips a rounded edge.
    m, b, _ = mixed
    b.imag(0.85 * m.quarter_Kp), b.second(0.1 * m.quarter_Kp)  # grow both sets
    first, cont = b._first, b._second_kind[2]
    # and a downward set of two panels, whose one inner edge sets no direction
    two = _ImagPanels(m, first.h, first.c, 0.5 * m.quarter_Kp, b._boundary, 0.0, b.h.size)
    two.extend_to(0.5 * m.quarter_Kp - 1e-3)
    two.extend_to(two.edges[1] - 1e-3)
    assert len(two.edges) - 1 == 2
    for panels in (first, cont, two):
        edges = panels.edges
        for j, (a, z) in enumerate(zip(edges[:-1], edges[1:])):
            t = np.concatenate([[a], a + (z - a) * np.linspace(0.01, 0.99, 9),
                                [z] if j == len(edges) - 2 else []])
            x = np.clip((2.0 * t - (a + z)) / (z - a), -1.0, 1.0)
            for derivative in (False, True):
                read = panels.values(t, derivative)
                _close(read, chebyshev.chebval(x, panels.coeffs[j, int(derivative)]).T)
        assert len(panels.coeffs) == len(edges) - 1 > 1


def test_multi_basis_read_equals_each_basis_read(m05):
    # one read of a set of several orders against the read of each order's
    # one-nu set, every set fresh: both kinds, values and derivatives,
    # column subsets, points across several panels, t = 0, t < 0, and both
    # sides of the Frobenius hand-off.  The set's panels are sized by its
    # widest column, a one-nu set's by its own, so the two agree to 1e-13
    # of each column's largest |value|, and exactly at t = 0
    m = m05
    kp = m.quarter_Kp
    nus = [order - 0.5 for order in range(5)]
    alone = [OrderSet([nu], m, 6) for nu in nus]
    tau0 = OrderSet(nus, m, 6)._second_kind[1]
    t_first = np.concatenate([[0.0], np.linspace(-0.85, 0.85, 23) * kp, [0.0]])
    t_second = np.concatenate([np.linspace(0.1, 0.85, 12) * kp,
                               kp - tau0 * np.array([1.0 + 1e-3, 1.0 - 1e-3, 0.5, 1e-3])])
    for cols in (slice(None), [13, 0, 7, 4]):
        for derivative in (False, True):
            for second, t in ((False, t_first), (True, t_second)):
                read = (OrderSet(nus, m, 6).second if second
                        else OrderSet(nus, m, 6).imag)(t, derivative, cols)
                assert read.shape[1] == len(nus)
                for b, values in zip(alone, read.transpose(1, 0, 2)):
                    own = (b.second if second else b.imag)(t, derivative, cols)[:, 0]
                    assert values.shape == own.shape
                    _close(values, own, 1e-13)
                    if not second:
                        assert np.array_equal(values[t == 0.0], own[t == 0.0])
    assert len(alone[0]._first.edges) - 1 > 3


def test_multi_basis_second_kind_read_across_different_handoffs():
    # at k = 0.9 the orders 9.5, 19.5 and 40.5 alone hand off at three
    # distances tau0; a set of them hands off at the least, so between the
    # hand-offs it reads F from panels where a one-nu set reads its series,
    # and the two agree to 1e-13 of each column's largest |value|
    m = Modulus.from_k(0.9)
    kp = m.quarter_Kp
    nus = (40.5, 9.5, 19.5)
    alone = [OrderSet([nu], m, 6) for nu in nus]
    tau0 = sorted(b._second_kind[1] for b in alone)
    assert tau0[0] < tau0[1] < tau0[2] == 0.6 * kp  # 0.3 R with R = 2K' here
    assert OrderSet(nus, m, 6)._second_kind[1] == tau0[0]
    t = kp - np.concatenate([[0.5 * tau0[0], tau0[0]], np.linspace(tau0[0], tau0[2], 7)[1:],
                             [1.001 * tau0[2]], np.linspace(0.65, 0.9, 4) * kp])
    for cols in (slice(None), [9, 0, 4]):
        for derivative in (False, True):
            read = OrderSet(nus, m, 6).second(t, derivative, cols)
            for b, values in zip(alone, read.transpose(1, 0, 2)):
                own = b.second(t, derivative, cols)[:, 0]
                assert values.shape == own.shape
                _close(values, own, 1e-13)


def test_green_region_pair_builds_no_continuation_panel(m05):
    # at k = 0.5 every order of a (20, 20) expansion hands off at 0.3 R, so a
    # pair at t <= 0.3 K' and t* >= 0.6 K' reads F from the series alone; the
    # first-kind panels end at the panel that covers the hand-off read of W
    # at K' - tau0 = 0.53 K', past t
    m = m05
    kp = m.quarter_Kp
    together = OrderSet([order - 0.5 for order in range(21)], m, 20)
    _lame_products(together, 0.0, 0.0, 0.3 * kp, 0.6 * kp)
    _, tau0, cont = together._second_kind
    assert tau0 == 0.6 * min(m.quarter_K, kp)
    assert len(cont.edges) - 1 == 0
    edges = together._first.edges
    assert 0.3 * kp < edges[-2] < kp - tau0 <= edges[-1]


def test_multi_basis_real_read_equals_each_basis_read(m05):
    # one cos/sin table over orders with frequency grids of different
    # lengths (orders and depths differ) against each order's one-nu set
    # and against the two matrix products on the order's own grid, to 1e-14
    # of each column's largest |value|; a set holds one depth, so each depth
    # is read through its own set
    m = m05
    groups = [([0.5], 3), ([7.5, 19.5], 6), ([2.5], 10)]
    bases = [basis(nu, m, depth) for nus, depth in groups for nu in nus]
    assert len({b._freq.size for b in bases}) == len(bases)
    s = np.concatenate([np.linspace(-2.0, 2.0, 37) * m.quarter_K, [0.0, 5.3, -9.1]])
    for cols in (slice(None), [3, 0, 2]):
        for derivative in (False, True):
            for nus, depth in groups:
                read = OrderSet(nus, m, depth).real(s, derivative, cols)
                assert read.shape[1] == len(nus)
                group = [basis(nu, m, depth) for nu in nus]
                for b, values in zip(group, read.transpose(1, 0, 2)):
                    x = np.multiply.outer(s, b._freq)
                    cos_c, sin_c = b._coef[:, :, cols]
                    f = b._freq[:, None]
                    own = (np.cos(x) @ (f * sin_c) - np.sin(x) @ (f * cos_c) if derivative
                           else np.cos(x) @ cos_c + np.sin(x) @ sin_c)
                    _close(values, own)
                    _close(values, b.real(s, derivative, cols)[:, 0])
    assert OrderSet([7.5, 19.5], m, 6).real(0.3).shape == (1, 2, bases[1].h.size)


def test_second_kind_keeps_only_the_panels_read(m05):
    # the hand-off reads W(K' - tau0) from the set's own first-kind panels:
    # they grow from the panel that covers the highest read to the one that
    # covers K' - tau0, keep every panel built before, and later reads above
    # them match a fresh set's bit for bit
    m = m05
    kp = m.quarter_Kp
    b = OrderSet([4.5], m, 6)
    b.imag(0.3 * kp)
    first = b._first
    edges = first.edges.copy()
    assert edges[-2] < 0.3 * kp <= edges[-1]
    b.second(0.7 * kp)
    t1 = kp - b._second_kind[1]
    assert np.array_equal(first.edges[:edges.size], edges)
    assert first.edges[-2] < t1 <= first.edges[-1]
    assert len(first.coeffs) == len(first.edges) - 1
    fresh = OrderSet([4.5], m, 6)
    fresh.second(0.7 * kp)
    assert len(fresh._second_kind[2].edges) - 1 == 0  # F at 0.7K' is read from its series
    assert np.array_equal(fresh._first.edges, first.edges)
    high = np.array([0.5, 0.8, 0.85]) * kp
    for derivative in (False, True):
        assert np.array_equal(b.second(high, derivative), fresh.second(high, derivative))
        assert np.array_equal(b.imag(high, derivative), fresh.imag(high, derivative))


def test_w_read_after_the_second_kind_builds_no_panel(m05, monkeypatch):
    # the second kind's hand-off grows the set's first-kind panels to
    # K' - tau0 and they keep what they built, so a W read up to that panel's
    # end, past K' - tau0, builds no panel
    m = m05
    kp = m.quarter_Kp
    built = []
    build = _ImagPanels._build_panel
    monkeypatch.setattr(_ImagPanels, "_build_panel",
                        lambda panels, t_to: (built.append(t_to), build(panels, t_to))[1])
    together = OrderSet([order - 0.5 for order in range(6)], m, 6)
    together.second(0.7 * kp)
    count = len(built)
    assert count > 0
    t1, end = kp - together._second_kind[1], together._first.edges[-1]
    assert t1 <= end
    for derivative in (False, True):
        together.imag(np.concatenate([np.linspace(0.0, t1, 9), [0.5 * (t1 + end), end]]),
                      derivative)
    assert len(built) == count


def test_panel_read_in_blocks_equals_its_halves(m05):
    # a read of more points than one block gives each point the bits of its
    # read in any other block: W, and F below the hand-off, where it is read
    # from its continuation panels, and their derivatives
    m = m05
    kp = m.quarter_Kp
    together = OrderSet([order - 0.5 for order in range(4)], m, 4)
    t = np.random.default_rng(7).uniform(0.02, 0.5, 600) * kp
    assert t.max() < kp - together._second_kind[1]
    for read in (together.imag, together.second):
        for derivative in (False, True):
            whole = read(t, derivative)
            assert np.array_equal(whole, np.concatenate([read(t[:300], derivative),
                                                         read(t[300:], derivative)]))


def test_panel_read_memory_is_of_the_order_of_its_answer(m05):
    # a W read of 20,000 points at (10, 10) holds its answer and one panel's
    # product beside it, not a (points, 25, columns) gather
    m = m05
    together = order_set(m, 10, 10)
    t = np.linspace(0.01, 0.9, 20_000) * m.quarter_Kp
    together.imag(t[-1:])  # the panels, which the set keeps, built before the count
    tracemalloc.start()
    try:
        answer = together.imag(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert answer.shape == (t.size,) + together.h.shape
    assert peak <= 3 * answer.nbytes


def test_real_and_continuation_read_memory_is_of_the_order_of_their_answer(m05):
    # an E read of 20,000 points at (10, 10) holds its answer and its
    # (points, 2, rows) table, and an F read below the hand-off its answer
    # and one panel's product: values and derivatives
    m = m05
    together = order_set(m, 10, 10)
    s = np.linspace(-2.0, 2.0, 20_000) * m.quarter_K
    t = np.linspace(0.01, 0.5, 20_000) * m.quarter_Kp
    assert t[-1] < m.quarter_Kp - together._second_kind[1]
    together.second(t[:1])  # the continuation panels, built before the count
    for read, x in ((together.real, s), (together.second, t)):
        for derivative in (False, True):
            tracemalloc.start()
            try:
                answer = read(x, derivative)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert answer.shape == (x.size,) + together.h.shape
            assert peak <= 3 * answer.nbytes


@pytest.mark.parametrize("k", [1e-3, 0.5, 0.99])
def test_reads_in_pieces_agree_with_the_whole_read(k):
    # the same points read one, two and five at a time against one read of
    # all 610, which spans several first-kind panels (and continuation panels
    # but at k = 0.99, where one panel reaches t = 0) and both sides of the
    # hand-off, to 1e-14 of each column's largest |value|: a product's last
    # bits depend on how many points share it, so they are not kept; and
    # the empty read keeps its shape
    m = Modulus.from_k(k)
    kp = m.quarter_Kp
    together = OrderSet([order - 0.5 for order in range(4)], m, 4)
    rng = np.random.default_rng(5)
    reads = ((together.real, rng.uniform(-2.0, 2.0, 610) * m.quarter_K),
             (together.imag, rng.uniform(-0.9, 0.9, 610) * kp),
             (together.second, rng.uniform(0.05, 0.95, 610) * kp))
    for read, x in reads:
        for derivative in (False, True):
            whole = read(x, derivative)
            assert read(x[:0], derivative).shape == (0,) + whole.shape[1:]
            for width in (1, 2, 5):
                pieces = [read(x[i:i + width], derivative) for i in range(0, x.size, width)]
                _close(np.concatenate(pieces), whole)
    assert len(together._first.edges) - 1 >= 4 and len(together._second_kind[2].edges) - 1 >= 1


def test_lame_batch_columns_follow_specs(m05):
    specs = shell_specs(4)
    b = basis(2.5, m05, 4)
    assert b.specs == specs
    assert [b.column(fam, n) for fam, n in specs] == list(range(len(specs)))
    # each second-kind column is the companion of the first-kind one
    t = 0.5 * m05.quarter_Kp
    w = b.second(t) * b.imag(t, derivative=True) - b.imag(t) * b.second(t, derivative=True)
    assert np.all(np.abs(w - 1.0) <= 1e-9)


def test_green_expansion_matches_per_mode_sum(m05):
    # shells and tail against the per-mode scalar products, summed in order
    m = m05
    K, Kp = m.quarter_K, m.quarter_Kp
    r = flatring_to_cartesian(FlatRingPoint(s=0.6 * K, t=0.25 * Kp, phi=0.4, modulus=m))
    rs = flatring_to_cartesian(FlatRingPoint(s=-0.9 * K, t=0.7 * Kp, phi=-1.1, modulus=m))
    tr = Truncation(5, 6)
    val, tail, shells = green_expansion(r, rs, tr, m)
    a, b = cartesian_to_flatring(r, m), cartesian_to_flatring(rs, m)
    bases = [basis(order - 0.5, m, tr.n_max) for order in range(tr.m_max + 1)]
    pref = 0.5 * (r.x ** 2 + r.y ** 2) ** -0.25 * (rs.x ** 2 + rs.y ** 2) ** -0.25
    expected, m_tail = [], 0.0
    for sup in range(tr.n_max + 1):
        shell, mags = 0.0, []
        for order in range(tr.m_max + 1):
            term = 0.0
            for kind, n in (("c", sup), ("s", sup + 1)):
                lb = bases[order]
                col = [lb.column(*family_of_superscript(kind, n))]
                term += (lb.real(a.s, cols=col)[0, 0, 0] * lb.real(b.s, cols=col)[0, 0, 0]
                         * lb.imag(a.t, cols=col)[0, 0, 0] * lb.second(b.t, cols=col)[0, 0, 0])
            shell += (1.0 if order == 0 else 2.0) * math.cos(order * (a.phi - b.phi)) * term
            mags.append(2.0 * abs(term))
        expected.append(pref * shell)
        rho = min(mags[-1] / mags[-2], 0.95)
        m_tail += pref * mags[-1] * rho / (1.0 - rho)
    assert shells == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert val == pytest.approx(sum(expected), rel=1e-12)
    last = [abs(x) for x in expected[-3:]]
    ratio = min(max(last[1] / last[0], last[2] / last[1]), 0.95)
    assert tail == pytest.approx(last[-1] * ratio / (1.0 - ratio) + m_tail, rel=1e-9)


def test_green_expansion_matches_per_order_products(m05):
    # the (20, 20) series on array pairs, with every order's W and F read
    # together, against per-order reads, whose panels and hand-off are each
    # order's own: value, tail and shells to 1e-13 of the value
    m = m05
    kp, big_k = m.quarter_Kp, m.quarter_K
    rng = np.random.default_rng(13)
    inner = FlatRingPoint(s=rng.uniform(-1.9, 1.9, 4) * big_k, t=rng.uniform(0.1, 0.3, 4) * kp,
                          phi=rng.uniform(-3.0, 3.0, 4), modulus=m)
    outer = FlatRingPoint(s=rng.uniform(-1.9, 1.9, 4) * big_k,
                          t=np.array([0.6, 0.7, 0.8, 0.95]) * kp,  # the last in the Frobenius zone
                          phi=rng.uniform(-3.0, 3.0, 4), modulus=m)
    r, rs = flatring_to_cartesian(inner), flatring_to_cartesian(outer)
    tr = Truncation(20, 20)
    value, tail, shells = green_expansion(r, rs, tr, m)
    a, b = cartesian_to_flatring(r, m), cartesian_to_flatring(rs, m)
    terms = np.array([_lame_products(basis(order - 0.5, m, tr.n_max), a.s, b.s, a.t, b.t)[0]
                      for order in range(tr.m_max + 1)])
    scale = 0.5 * (r.x ** 2 + r.y ** 2) ** -0.25 * (rs.x ** 2 + rs.y ** 2) ** -0.25
    n1 = tr.n_max + 1
    ref_value, ref_tail, ref_shells = _double_series(terms[..., :n1] + terms[..., n1:],
                                                     a.phi - b.phi, scale, (4,))
    for got, ref in zip([value, tail, *shells], [ref_value, ref_tail, *ref_shells]):
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref_value))
    assert len(shells) == n1


@pytest.fixture(scope="module")
def interior(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    r_star = flatring_to_cartesian(FlatRingPoint(
        s=1.2 * m.quarter_K, t=0.8 * m.quarter_Kp, phi=-0.7, modulus=m))
    coeffs = solve_point_source(dom, r_star, Truncation(8, 8), n_s=64, n_phi=48)
    rng = np.random.default_rng(21)
    probes = [flatring_to_cartesian(FlatRingPoint(
        s=rng.uniform(-1.9, 1.9) * m.quarter_K, t=rng.uniform(0.05, 0.5) * dom.t0,
        phi=rng.uniform(-3.0, 3.0), modulus=m)) for _ in range(12)]
    return m, dom, r_star, coeffs, probes


def test_batched_probes_equal_single_calls(interior):
    m, dom, r_star, coeffs, probes = interior
    values = solve_interior(dom, coeffs, probes)
    assert isinstance(values, np.ndarray) and values.shape == (len(probes),)
    single = [solve_interior(dom, coeffs, q) for q in probes]
    assert all(isinstance(v, float) for v in single)
    assert values == pytest.approx(single, rel=1e-13)
    assert values == pytest.approx([1.0 / math.dist(q, r_star) for q in probes], rel=1e-6)
    assert solve_interior(dom, coeffs, []).shape == (0,)


def test_batch_with_one_probe_past_margin_raises(interior):
    m, dom, _, coeffs, probes = interior
    outside = flatring_to_cartesian(FlatRingPoint(
        s=0.5 * m.quarter_K, t=dom.t0 - 1e-6, phi=0.0, modulus=m))
    with pytest.raises(DomainError):
        solve_interior(dom, coeffs, probes[:5] + [outside] + probes[5:])


def test_sncndn_array_matches_scalar():
    u = np.linspace(-9.0, 9.0, 57)
    for k in (0.0, 1e-3, 0.5, 0.9):
        sn, cn, dn = _sncndn(u, k)
        scalar = np.array([_sncndn(float(x), k) for x in u])
        assert np.max(np.abs(np.stack([sn, cn, np.broadcast_to(dn, u.shape)], axis=1) - scalar)) <= 1e-15


def test_forward_map_and_chi_on_arrays(m05):
    m = m05
    s = np.linspace(-1.9, 1.9, 7)[:, None] * m.quarter_K
    phi = np.linspace(-3.0, 3.0, 5)[None, :]
    t = 0.35 * m.quarter_Kp
    c = flatring_to_cartesian(FlatRingPoint(s=s, t=t, phi=phi, modulus=m))
    assert c.x.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            q = flatring_to_cartesian(FlatRingPoint(
                s=float(s[i, 0]), t=t, phi=float(phi[0, j]), modulus=m))
            assert np.allclose([c.x[i, j], c.y[i, j], c.z[i, j]], q, rtol=1e-15, atol=1e-15)
    assert c.y.shape == c.z.shape == (7, 5)
    with pytest.raises(DomainError):
        FlatRingPoint(s=np.array([0.1, 9.0]), t=t, phi=0.0, modulus=m)
    other = FlatRingPoint(s=0.3, t=0.7 * m.quarter_Kp, phi=0.0, modulus=m)
    chi = flatring_chi(s[:, 0], t, other.s, other.t, m)
    for i in range(7):
        assert chi[i] == pytest.approx(chi_flatring(
            FlatRingPoint(s=float(s[i, 0]), t=t, phi=0.0, modulus=m), other), rel=1e-15)
    im = jacobi_imag(np.array([0.1, 0.2]), m)
    assert im.cn.shape == (2,)


@pytest.mark.parametrize("k", [1e-3, 1e-2, 0.5, 0.9])
def test_quarter_period_kprime_against_mpmath(k):
    with mpmath.workdps(40):
        exact = mpmath.ellipk(1 - mpmath.mpf(k) ** 2)
        kp = Modulus.from_k(k).quarter_Kp
        assert abs(mpmath.mpf(kp) - exact) / exact <= 1e-15


def test_coefficients_match_per_mode_projection(m05):
    # the projection against the per-mode scalar loop it replaced
    from flatring.dirichlet import BoundaryData, coefficients

    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    data = BoundaryData(g=lambda s, phi: np.exp(0.3 * np.sin(s)) * (1.0 + 0.2 * np.cos(phi)),
                        n_s=24, n_phi=16)
    with pytest.warns(QuadratureWarning):  # (3, 3) does not capture all of g
        table = coefficients(dom, data, Truncation(3, 3))
    x, w = np.polynomial.legendre.leggauss(data.n_s)
    s_nodes, s_weights = 2.0 * m.quarter_K * x, 2.0 * m.quarter_K * w
    phi_nodes = -math.pi + 2.0 * math.pi * np.arange(data.n_phi) / data.n_phi
    g = np.array([[data.g(float(s), float(p)) for p in phi_nodes] for s in s_nodes])
    for order in range(-3, 4):
        g_hat = (g * np.exp(-1j * order * phi_nodes)).sum(axis=1) * 2.0 * math.pi / data.n_phi
        for kind, sups in (("c", range(4)), ("s", range(1, 5))):
            for sup in sups:
                lb = basis(abs(order) - 0.5, m, 3)
                col = [lb.column(*family_of_superscript(kind, sup))]
                e_s = np.array([lb.real(float(s), cols=col)[0, 0, 0] for s in s_nodes])
                expected = (np.sum(s_weights * e_s * g_hat)
                            / (8.0 * math.pi * lb.imag(dom.t0, cols=col)[0, 0, 0]))
                got = table.c_of(order, sup) if kind == "c" else table.d_of(order, sup)
                assert abs(got - expected) <= 1e-13 * max(abs(expected), 1e-3)


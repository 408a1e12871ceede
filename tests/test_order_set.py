"""The read of an expansion's orders (lame.OrderSet) and its cache: a set's
reads at fixed t do not depend on how far it has grown, they agree with
the one-nu set of each order, F keeps its unit Wronskian across the set's
hand-off, each panel resolves its columns, and an expansion with more
orders than the basis cache holds stays warm."""

import gc
import weakref

import numpy as np
import pytest

from flatring import lame
from flatring.coords import FlatRingPoint, flatring_to_cartesian
from flatring.elliptic import Modulus
from flatring.harmonics import Truncation, green_expansion
from flatring.lame import OrderSet, order_set


def _array_bytes(obj, seen=None) -> int:
    """Bytes of every numpy array reachable from obj through attributes,
    lists, tuples and dicts, each array (or the array it views) once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else _array_bytes(obj.base, seen)
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(x, seen) for x in obj.values())
    return sum(_array_bytes(x, seen) for x in getattr(obj, "__dict__", {}).values())


def _reaches(obj, cls, seen=None) -> bool:
    """Whether an instance of cls is reachable from obj as `_array_bytes` walks it."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, cls):
        return True
    if isinstance(obj, (list, tuple)):
        return any(_reaches(x, cls, seen) for x in obj)
    if isinstance(obj, dict):
        return any(_reaches(x, cls, seen) for x in obj.values())
    return any(_reaches(x, cls, seen) for x in getattr(obj, "__dict__", {}).values())


def _pair(m: Modulus):
    """A pair of the `green` bench region: t = 0.3K' and t* = 0.6K'."""
    kp, big_k = m.quarter_Kp, m.quarter_K
    return (flatring_to_cartesian(FlatRingPoint(s=0.3 * big_k, t=0.3 * kp, phi=0.2, modulus=m)),
            flatring_to_cartesian(FlatRingPoint(s=-0.5 * big_k, t=0.6 * kp, phi=-0.4, modulus=m)))


def _reads(together: OrderSet, t) -> list[np.ndarray]:
    """W, W', F and F' of every nu of the set at t (F only where 0 < t)."""
    t = np.asarray(t, dtype=float)
    return [(together.second if second else together.imag)(t[t > 0.0] if second else t, d)
            for second in (False, True) for d in (False, True)]


def _colmax_err(got, ref) -> float:
    """Largest difference relative to each column's largest |reference| over the points."""
    scale = np.max(np.abs(ref), axis=0)
    return float(np.max(np.abs(got - ref) / np.where(scale > 0.0, scale, 1.0), initial=0.0))


@pytest.fixture(scope="module")
def wide():
    """The (20, 6) orders at k = 0.9, whose one-nu sets hand off from 0.553K'
    to 0.6K' (0.277R to 0.3R), and the least of those."""
    m = Modulus.from_k(0.9)
    nus = [order - 0.5 for order in range(21)]
    return m, nus, min(OrderSet([nu], m, 6)._second_kind[1] for nu in nus)


def test_reads_stay_exact_as_panel_sets_grow(wide):
    # a set's reads at fixed t are bit-identical whether the set is fresh or
    # was first grown past t: W upward to 0.97K', F downward to 0.05K', or
    # W past K' - tau0 before F is built, so that F's scale comes from the
    # kept panels and not from a throwaway extension
    for m, nus in ((Modulus.from_k(0.5), wide[1]), wide[:2]):
        kp = m.quarter_Kp
        tau0 = OrderSet(nus, m, 6)._second_kind[1]
        t = np.concatenate([[0.6, 0.05, 0.0, -0.3, 0.85, 0.2, 0.35],
                            1.0 - np.linspace(0.9, 1.1, 5) * tau0 / kp]) * kp
        grown = [OrderSet(nus, m, 6) for _ in range(4)]
        grown[0].imag(0.97 * kp), grown[1].second(0.05 * kp)
        grown[2].imag(0.97 * kp), grown[2].second(0.05 * kp), grown[3].second(0.97 * kp)
        for point in [t[i:i + 1] for i in range(t.size)] + [t]:
            fresh = _reads(OrderSet(nus, m, 6), point)
            for together in grown:
                assert all(map(np.array_equal, _reads(together, point), fresh))
        assert grown[0]._first.edges[-1] > 0.97 * kp and grown[1]._second_kind[2].edges[-1] < 0.05 * kp


def test_read_exact_after_a_basis_grows_outside_the_set():
    # the cached one-nu set of an order grows its own panels, not those of
    # a set of every order: that set reads as a fresh set does, bit for bit
    m = Modulus.from_k(0.5)
    kp = m.quarter_Kp
    nus = [order - 0.5 for order in range(6)]
    together = OrderSet(nus, m, 6)
    together.imag(0.3 * kp)
    edges = together._first.edges.copy()
    alone = lame.basis(nus[2], m, 6)
    alone.imag(0.6 * kp), alone.second(0.1 * kp)
    assert np.array_equal(together._first.edges, edges)
    t = np.array([edges[-1], 0.1 * kp])
    assert all(map(np.array_equal, _reads(together, t), _reads(OrderSet(nus, m, 6), t)))


@pytest.mark.parametrize("k", [1e-3, 0.1, 0.5, 0.9, 0.99])
def test_set_reads_agree_with_each_basis_alone(k, wide):
    # panels sized by the set's widest column, and the set's hand-off, the
    # least of the one-nu sets' own, against the one-nu set of each order:
    # to 1e-13 of each column's largest |value|, W from 0 to 0.9K' and F on
    # both sides of the set's tau0 and of every one-nu set's own
    m = Modulus.from_k(k)
    kp = m.quarter_Kp
    sets = [([-0.5, 0.5, 9.5, 19.5, 40.5], 8)]
    if k == 0.9:
        sets.append((wide[1], 6))
    for nus, depth in sets:
        together = OrderSet(nus, m, depth)
        tau0 = together._second_kind[1]
        t_w = np.concatenate([[0.0, -0.4], np.linspace(0.02, 0.9, 23)]) * kp
        t_f = np.concatenate([np.linspace(0.05, 0.95, 23) * kp,
                              kp - tau0 * np.array([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.5])])
        for derivative in (False, True):
            for t, name in ((t_w, "imag"), (t_f, "second")):
                values = getattr(together, name)(t, derivative)
                for j, nu in enumerate(nus):
                    own = getattr(OrderSet([nu], m, depth), name)(t, derivative)[:, 0]
                    assert _colmax_err(values[:, j], own) <= 1e-13


def test_unit_wronskian_across_the_set_handoff(wide):
    # F W' - W F' = 1 in every column of the (20, 6) set at k = 0.9, from
    # panels and series on both sides of its tau0 and of every one-nu set's own
    m, nus, tau0 = wide
    kp = m.quarter_Kp
    together = OrderSet(nus, m, 6)
    assert together._second_kind[1] == tau0
    t = np.concatenate([np.linspace(0.05, 0.95, 37) * kp,
                        kp - tau0 * np.array([1.0 - 1e-9, 1.0 + 1e-9])])
    wronskian = (together.second(t) * together.imag(t, True)
                 - together.imag(t) * together.second(t, True))
    assert np.max(np.abs(wronskian - 1.0)) <= 1e-13


@pytest.mark.parametrize("k", [1e-3, 0.1, 0.5, 0.9, 0.99])
def test_panel_tail_is_rounding(k, wide):
    # at the panel degree, the last Chebyshev coefficient of every W and W'
    # panel and every continuation panel of F and F' is below 1e-14 of the
    # largest of its panel, column by column
    assert lame._PANEL_DEG == 24
    m = Modulus.from_k(k)
    kp = m.quarter_Kp
    sets = [OrderSet([-0.5, 0.5, 9.5, 19.5, 40.5], m, 8)]
    if k == 0.9:
        sets.append(OrderSet(wide[1], m, 6))
    for together in sets:
        together.imag(0.95 * kp), together.second(0.05 * kp)
        for panels in (together._first, together._second_kind[2]):
            coeffs = np.abs(panels.coeffs)  # (panels, 2, degree + 1, columns)
            assert len(coeffs) > 1
            assert np.all(coeffs[:, :, -1] <= 1e-14 * coeffs.max(axis=2))


def test_one_basis_reads_keep_one_set():
    # a one-nu set against its slot in a set of several orders: the same
    # eigenvalues and boundary data, E to 1e-14 and W and F to 1e-13 of
    # each column's largest |value|, both reads (points, nus, modes); and a
    # read set that no one holds is freed at once, without the cycle
    # collector
    m = Modulus.from_k(0.5)
    s = np.array([0.3, -1.7, 4.1]) * m.quarter_K
    t = np.array([0.2, 0.7, 0.05]) * m.quarter_Kp
    together = OrderSet([0.5, 1.5, 9.5], m, 4)
    b = OrderSet([1.5], m, 4)
    assert np.array_equal(b.h[0], together.h[1])
    assert np.array_equal(b.boundary_data[0], together.boundary_data[1])
    for name, x in (("real", s), ("imag", t), ("second", t)):
        for derivative in (False, True):
            for cols in (slice(None), [3, 0]):
                own = getattr(b, name)(x, derivative, cols)
                read = getattr(together, name)(x, derivative, cols)
                assert own.shape == (3, 1, read.shape[2])
                assert _colmax_err(read[:, 1], own[:, 0]) <= (1e-14 if name == "real" else 1e-13)
    freed = weakref.ref(b)
    gc.disable()
    try:
        del b
        assert freed() is None
    finally:
        gc.enable()


def test_order_set_is_one_object_per_key():
    m = Modulus.from_k(0.5)
    lame.clear_caches()
    s = order_set(m, 3, 2)
    assert order_set(Modulus.from_k(0.5), 3, 2) is s
    assert s._nu.ravel().tolist() == [-0.5, 0.5, 1.5, 2.5]
    assert lame.basis.cache_info().currsize == 0  # its orders are in no other cache
    assert order_set(m, 3, 3) is not s


def test_evicted_set_is_freed_with_its_block(m05):
    # nothing but the set holds its block, and no cycle holds the set, so
    # once the set cache drops the set, both go without the cycle collector
    lame.clear_caches()
    s = order_set(m05, 6, 6)
    t = np.array([0.05, 0.5, 0.9]) * m05.quarter_Kp
    s.real(t), s.imag(t), s.second(t)
    freed, block = weakref.ref(s), weakref.ref(s._coef)
    gc.disable()
    try:
        del s
        for m_max in range(1, 1 + lame._SET_CACHE_SIZE):
            order_set(m05, m_max, 1)
        assert freed() is None and block() is None
    finally:
        gc.enable()


def test_clear_caches_empties_both_caches():
    order_set(Modulus.from_k(0.5), 2, 2)
    lame.clear_caches()
    assert order_set.cache_info().currsize == 0
    assert lame.basis.cache_info().currsize == 0


@pytest.mark.parametrize("m_max, n_max", [(32, 6), (40, 40)])
def test_expansion_past_the_basis_cache_stays_warm(m_max, n_max, basis_builds):
    # more orders than the basis cache holds: the first call solves each
    # order once, and later calls read the cached set and solve nothing
    assert m_max + 1 > lame._BASIS_CACHE_SIZE
    m = Modulus.from_k(0.5)
    r, r_star = _pair(m)
    tr = Truncation(m_max, n_max)
    lame.clear_caches()
    first = green_expansion(r, r_star, tr, m)
    assert basis_builds == [(order - 0.5, n_max) for order in range(m_max + 1)]
    for _ in range(2):
        assert green_expansion(r, r_star, tr, m) == first
    assert len(basis_builds) == m_max + 1
    assert order_set.cache_info().hits == 2


def test_alternating_truncations_stay_warm(basis_builds):
    # 21 + 31 orders of one modulus, more than the basis cache holds
    m = Modulus.from_k(0.5)
    r, r_star = _pair(m)
    truncations = [Truncation(20, 20), Truncation(30, 30)]
    lame.clear_caches()
    for tr in truncations:
        green_expansion(r, r_star, tr, m)
    built = len(basis_builds)
    for _ in range(2):
        for tr in truncations:
            green_expansion(r, r_star, tr, m)
    assert len(basis_builds) == built == 52


def test_set_cache_bound():
    # the bound that the _SET_CACHE_SIZE note states: in sets, and in bytes
    # of a (20, 20) and a (40, 40) set at k = 0.5, after a bench-region read
    # (its first-kind panels grown to the hand-off at K' - tau0), and with
    # both panel sets grown to 0.9K' and 0.05K' and both halves read; the
    # panels are the set's, and it holds no other set
    m = Modulus.from_k(0.5)
    lame.clear_caches()
    first = order_set(m, 1, 1)
    for m_max in range(2, 2 + lame._SET_CACHE_SIZE):
        order_set(m, m_max, 1)
    assert order_set.cache_info().currsize == lame._SET_CACHE_SIZE == 2
    assert order_set(m, 1, 1) is not first  # evicted, the oldest
    r, r_star = _pair(m)
    t = np.array([0.05, 0.9]) * m.quarter_Kp
    for tr, read, grown in ((Truncation(20, 20), 3.8e6, 11.5e6), (Truncation(40, 40), 34e6, 76e6)):
        green_expansion(r, r_star, tr, m)
        full = order_set(m, tr.m_max, tr.n_max)
        assert _array_bytes(full) <= read
        for derivative in (False, True):
            full.imag(t, derivative), full.second(t, derivative)
        assert 0.6 * grown < _array_bytes(full) <= grown
        assert not any(_reaches(x, OrderSet) for x in vars(full).values())

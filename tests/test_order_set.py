"""The stacked read of an expansion's orders (lame.OrderSet) and its cache:
reads stay equal to each basis's own read as panel sets grow, and an
expansion with more orders than the basis cache holds stays warm."""

import gc
import weakref

import numpy as np
import pytest

from flatring import lame
from flatring.coords import FlatRingPoint, flatring_to_cartesian
from flatring.elliptic import Modulus
from flatring.harmonics import Truncation, green_expansion
from flatring.lame import LameBasis, OrderSet, order_set


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


def _pair(m: Modulus):
    """A pair of the `green` bench region: t = 0.3K' and t* = 0.6K'."""
    kp, big_k = m.quarter_Kp, m.quarter_K
    return (flatring_to_cartesian(FlatRingPoint(s=0.3 * big_k, t=0.3 * kp, phi=0.2, modulus=m)),
            flatring_to_cartesian(FlatRingPoint(s=-0.5 * big_k, t=0.6 * kp, phi=-0.4, modulus=m)))


def _assert_reads_equal(together: OrderSet, alone: list[LameBasis], t, second: bool):
    """Every read of the set at t equals each lone basis's read, bit for bit:
    values and derivatives, all columns and a scrambled subset."""
    for cols in (slice(None), [9, 0, 4, 13]):
        for derivative in (False, True):
            read = (together.second if second else together.imag)(t, derivative, cols)
            assert read.shape[:2] == (t.size, len(alone))
            for j, b in enumerate(alone):
                own = (b.second if second else b.imag)(t, derivative, cols)
                assert np.array_equal(read[:, j], own)


def test_reads_stay_exact_as_panel_sets_grow():
    # at k = 0.9 the orders of a (20, 6) series hand off in four groups,
    # 0.277R to 0.3R; each read below reaches past the panels that the set
    # has stacked, so its block must be restacked to stay exact
    m = Modulus.from_k(0.9)
    kp = m.quarter_Kp
    together = OrderSet([LameBasis(order - 0.5, m, 6) for order in range(21)])
    alone = [LameBasis(order - 0.5, m, 6) for order in range(21)]
    radius = 2.0 * min(m.quarter_K, kp)
    tau0 = sorted({g.tau0 for g in together._handoffs})
    assert len(tau0) == 4 and tau0[0] == pytest.approx(0.277 * radius, abs=1e-3 * radius)
    assert tau0[-1] == 0.3 * radius
    for t in (0.2, 0.85):  # W grows up to 0.85K'
        _assert_reads_equal(together, alone, np.array([t * kp]), second=False)
    for t in (0.85, 0.35):  # F from the series alone, then from panels down to 0.35K'
        _assert_reads_equal(together, alone, np.array([t * kp]), second=True)
    first_edges = [b._first.edges.size for b in together.bases]
    cont_edges = [b._second_kind[2].edges.size for b in together.bases]
    # mixed t: past both reaches, t = 0 and t < 0 for W; between the hand-offs,
    # in every series zone and down to 0.05K' for F, where the high orders
    # take more panels (one panel spans [0, 0.4K'] for the lowest)
    mixed = np.array([0.6, 0.05, 0.0, -0.3, 0.97, 0.2]) * kp
    between = kp - np.linspace(tau0[0], tau0[-1], 5)
    _assert_reads_equal(together, alone, mixed, second=False)
    _assert_reads_equal(together, alone, np.concatenate([[0.05 * kp, 0.97 * kp], between,
                                                         [0.3 * kp]]), second=True)
    assert all(b._first.edges.size > n for b, n in zip(together.bases, first_edges))
    assert any(b._second_kind[2].edges.size > n for b, n in zip(together.bases, cont_edges))


def test_read_exact_after_a_basis_grows_outside_the_set():
    # the basis of the set whose panels end first grows through its own read:
    # a set read at its old last edge, which the set has stacked and so does
    # not extend to, now takes the panel that starts there, as the lone
    # basis does
    m = Modulus.from_k(0.5)
    kp = m.quarter_Kp
    bases = [LameBasis(order - 0.5, m, 6) for order in range(6)]
    together = OrderSet(bases)
    together.imag(0.3 * kp)
    first = int(np.argmin([b._first.edges[-1] for b in bases]))
    edge = bases[first]._first.edges[-1]
    bases[first].imag(0.6 * kp)
    alone = [LameBasis(order - 0.5, m, 6) for order in range(6)]
    alone[first].imag(0.6 * kp)
    _assert_reads_equal(together, alone, np.array([edge, 0.1 * kp]), second=False)


def test_one_basis_reads_keep_one_set():
    # LameBasis.real, .imag and .second read through one set of the basis,
    # built on the first read: each read equals that of a set built for it,
    # bit for bit, and the set holds the basis weakly, so a basis that no
    # one holds is freed at once, without the cycle collector
    m = Modulus.from_k(0.5)
    t = np.array([0.2, 0.7, 0.05]) * m.quarter_Kp
    b = LameBasis(1.5, m, 4)
    for name in ("real", "imag", "second"):
        for derivative in (False, True):
            for cols in (slice(None), [3, 0]):
                own = getattr(b, name)(t, derivative, cols)
                assert np.array_equal(own, getattr(OrderSet([b]), name)(t, derivative, cols)[:, 0])
    alone = b._alone
    b.real(t), b.imag(t), b.second(t)
    assert b._alone is alone
    freed = weakref.ref(b)
    gc.disable()
    try:
        del b, alone
        assert freed() is None
    finally:
        gc.enable()


def test_order_set_is_one_object_per_key():
    m = Modulus.from_k(0.5)
    s = order_set(m, 3, 2)
    assert order_set(Modulus.from_k(0.5), 3, 2) is s
    assert [b.nu for b in s.bases] == [-0.5, 0.5, 1.5, 2.5]
    assert all(b is lame.basis(b.nu, m, 2) for b in s.bases)
    assert order_set(m, 3, 3) is not s


def test_clear_caches_empties_both_caches():
    order_set(Modulus.from_k(0.5), 2, 2)
    lame.clear_caches()
    assert order_set.cache_info().currsize == 0
    assert lame.basis.cache_info().currsize == 0


@pytest.mark.parametrize("m_max, n_max", [(32, 6), (40, 40)])
def test_expansion_past_the_basis_cache_stays_warm(m_max, n_max):
    # more orders than the basis cache holds: the first call builds each
    # basis once, and later calls read the cached set and build nothing
    assert m_max + 1 > lame._BASIS_CACHE_SIZE
    m = Modulus.from_k(0.5)
    r, r_star = _pair(m)
    tr = Truncation(m_max, n_max)
    lame.clear_caches()
    first = green_expansion(r, r_star, tr, m)
    built = lame.basis.cache_info().misses
    assert built == m_max + 1
    for _ in range(2):
        assert green_expansion(r, r_star, tr, m) == first
    assert lame.basis.cache_info().misses == built
    assert order_set.cache_info().hits == 2


def test_alternating_truncations_stay_warm():
    # 21 + 31 bases of one modulus, more than the basis cache holds
    m = Modulus.from_k(0.5)
    r, r_star = _pair(m)
    truncations = [Truncation(20, 20), Truncation(30, 30)]
    lame.clear_caches()
    for tr in truncations:
        green_expansion(r, r_star, tr, m)
    built = lame.basis.cache_info().misses
    for _ in range(2):
        for tr in truncations:
            green_expansion(r, r_star, tr, m)
    assert lame.basis.cache_info().misses == built == 52


def test_set_cache_bound():
    # the bound that the _SET_CACHE_SIZE note states: in sets, and in bytes
    # of a (20, 20) and a (40, 40) set at k = 0.5, after a bench-region read
    # and with every panel set grown to 0.9K' and 0.05K' and both halves
    # stacked; a stacked panel is held once, so a set holds little more
    # than its bases
    m = Modulus.from_k(0.5)
    lame.clear_caches()
    first = order_set(m, 1, 1)
    for m_max in range(2, 2 + lame._SET_CACHE_SIZE):
        order_set(m, m_max, 1)
    assert order_set.cache_info().currsize == lame._SET_CACHE_SIZE == 2
    assert order_set(m, 1, 1) is not first  # evicted, the oldest
    r, r_star = _pair(m)
    t = np.array([0.05, 0.9]) * m.quarter_Kp
    for tr, read, grown in ((Truncation(20, 20), 3.6e6, 11.5e6), (Truncation(40, 40), 22e6, 76e6)):
        green_expansion(r, r_star, tr, m)
        full = order_set(m, tr.m_max, tr.n_max)
        assert _array_bytes(full) <= read
        for derivative in (False, True):
            full.imag(t, derivative), full.second(t, derivative)
        assert 0.6 * grown < _array_bytes(full) <= grown
        assert _array_bytes(full) <= 1.05 * _array_bytes(list(full.bases))

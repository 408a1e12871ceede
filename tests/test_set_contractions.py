"""The three reads of an OrderSet, each one contraction over every basis of
the set: E, E' against each basis's own cosine and sine matrix products, W,
W' and the continuation panels of F, F' against numpy's chebval on the
stored panel coefficients of the set, and the Frobenius series of F, F'
against Horner's rule, all to 1e-14 of each column's largest |value|, with
points on panel edges (x = -1 and x = +1) and empty inputs."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from flatring.elliptic import Modulus
from flatring.lame import LameBasis, OrderSet

KS = [1e-3, 0.1, 0.5, 0.9, 0.99]
NUS = [-0.5, 0.5, 9.5, 19.5, 40.5]
DEPTH = 8
RTOL = 1e-14


def _colmax_err(got, ref):
    """Largest difference relative to each column's largest |reference|."""
    scale = np.max(np.abs(ref), axis=0)
    return float(np.max(np.abs(got - ref) / np.where(scale > 0.0, scale, 1.0)))


@pytest.fixture(scope="module", params=KS)
def bases(request):
    """Fresh bases of the five orders at one k, read together by one set."""
    m = Modulus.from_k(request.param)
    return m, [LameBasis(nu, m, DEPTH) for nu in NUS]


def test_real_read_matches_two_products_per_basis(bases):
    m, group = bases
    s = np.concatenate([np.linspace(-2.0, 2.0, 29) * m.quarter_K, [0.0, 5.3, -9.1]])
    for derivative in (False, True):
        read = OrderSet(group).real(s, derivative)
        for b, got in zip(group, read.transpose(1, 0, 2)):
            x = np.multiply.outer(s, b._freq)
            cos_c, sin_c = b._coef
            f = b._freq[:, None]
            ref = (np.cos(x) @ (f * sin_c) - np.sin(x) @ (f * cos_c) if derivative
                   else np.cos(x) @ cos_c + np.sin(x) @ sin_c)
            assert _colmax_err(got, ref) <= RTOL


def _edge_points(panels):
    """Every edge of a panel set and two points inside each panel, with the
    index of the panel each is read from and its x there: an edge starts the
    panel after it (x = -1), the last edge ends the last (x = +1).  Rounding
    may put an edge's x just past -1 or +1; the read clips it to the panel,
    which moves the value by less than the rounding of x does elsewhere, so
    the reference takes the clipped x too."""
    edges = panels.edges
    t, at = [], []
    for j, (a, z) in enumerate(zip(edges[:-1], edges[1:])):
        inner = [a, a + 0.3 * (z - a), a + 0.8 * (z - a)] + ([z] if j == len(edges) - 2 else [])
        t += inner
        at += [j] * len(inner)
    t, at = np.array(t), np.array(at)
    lo, hi = edges[at], edges[at + 1]
    return t, at, np.clip((2.0 * t - (lo + hi)) / (hi - lo), -1.0, 1.0)


def _panel_reference(panels, derivative, at, x):
    """chebval on each point's own panel of the set, (points, modes)."""
    coeffs = panels.coeffs[:, int(derivative)]
    return np.array([chebyshev.chebval(xi, coeffs[j]) for j, xi in zip(at, x)])


@pytest.mark.parametrize("second", [False, True])
def test_panel_read_matches_chebval(bases, second):
    # the first-kind panels of the set grown upward to 0.85K', and the
    # continuation panels of its second kind grown downward to 0.05K'
    m, group = bases
    kp = m.quarter_Kp
    together = OrderSet(group)
    panels = together._second_kind[2] if second else together._first
    panels.values(np.array([0.05 if second else 0.85]) * kp)
    assert len(panels.edges) > 2
    t, at, x = _edge_points(panels)
    for derivative in (False, True):
        got = panels.values(t, derivative)
        assert _colmax_err(got, _panel_reference(panels, derivative, at, x)) <= RTOL


def test_series_read_matches_horner(bases):
    # F = tau^(nu+1) sum_p b_p tau^(2p) and dF/dt = -tau^nu sum_p (nu+1+2p)
    # b_p tau^(2p) inside each basis's hand-off tau0, at tau = K' - t as the
    # read takes it (tau^(nu+1) carries the rounding of t by nu + 1)
    m, group = bases
    kp = m.quarter_Kp
    together = OrderSet(group)
    frobenius, tau0, _ = together._second_kind
    t = kp - tau0 * np.array([1e-3, 0.1, 0.5, 0.9, 0.999])
    tau = kp - t
    for derivative in (False, True):
        read = together.second(t, derivative)
        for i, (b, got) in enumerate(zip(group, read.transpose(1, 0, 2))):
            coeffs = frobenius[:, i]
            if derivative:
                coeffs = coeffs * (b.nu + 1.0 + 2.0 * np.arange(len(coeffs)))[:, None]
            acc = np.zeros((tau.size, coeffs.shape[1]))
            for row in coeffs[::-1]:
                acc = acc * (tau * tau)[:, None] + row
            ref = acc * (tau ** (b.nu + 1.0 - derivative))[:, None]
            assert _colmax_err(got, -ref if derivative else ref) <= RTOL


def test_empty_reads_keep_their_shape(bases):
    _, group = bases
    together = OrderSet(group)
    width = group[0].h.size
    for derivative in (False, True):
        for read in (together.real, together.imag, together.second):
            assert read([], derivative).shape == (0, len(group), width)
            assert read(np.empty(0), derivative, [3, 0]).shape == (0, len(group), 2)
        assert group[0].imag([], derivative).shape == (0, width)


@pytest.mark.parametrize("k", KS)
def test_read_just_below_the_handoff(k):
    # one ulp below K' - tau0 a point lies past tau0, so it is read from the
    # continuation panels, though within the slack that growth allows past
    # their first edge: the set still builds its first panel, and the value
    # joins the series value at K' - tau0
    m = Modulus.from_k(k)
    for nu in (0.5, 19.5):
        b = LameBasis(nu, m, 2)
        _, tau0, panels = b._alone._second_kind
        t1 = m.quarter_Kp - tau0
        below = np.nextafter(t1, 0.0)
        assert m.quarter_Kp - below > tau0
        across = b.second(np.array([below, t1]))
        assert len(panels.edges) == 2
        assert np.all(np.abs(across[0] - across[1]) <= 1e-10 * np.abs(across[1]))

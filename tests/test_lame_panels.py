"""Imaginary-axis panels built by spectral integration at Chebyshev-Lobatto
nodes: the node-to-coefficient fit against chebfit, the integration
matrices against 40-digit mpmath entries, the batched Frobenius
coefficients against the one-eigenvalue call, and W, W', F, F' against a
sequential fixed-step DOP853 stepper and against scipy's solve_ivp."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import DOP853
from scipy.special import ellipj

import flatring
from flatring import lame
from flatring.elliptic import Modulus, jacobi_imag
from flatring.lame import LameBasis

# (k, nu); at nu = 40.5 the second kind hands off inside 0.3 of the series radius
CASES = [(0.5, -0.5), (0.5, 19.5), (0.9, 9.5), (0.5, 40.5), (0.9, 40.5)]
T_LO, T_HI = 0.05, 0.85  # fractions of K' checked on the panels


def _colmax_err(got, ref):
    """Largest difference relative to each column's largest reference value."""
    return float(np.max(np.abs(got - ref) / np.max(np.abs(ref), axis=0)))


def test_panel_build_does_not_import_scipy_integrate():
    code = (
        "import sys\n"
        "from flatring.elliptic import Modulus\n"
        "from flatring.lame import basis\n"
        "m = Modulus.from_k(0.5)\n"
        "b = basis(2.5, m, 3)\n"
        "b.imag([0.5 * m.quarter_Kp]); b.second([0.2 * m.quarter_Kp])\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(flatring.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("deg", [24, 32, 40])
def test_lobatto_fit_matches_chebfit(deg):
    x = -np.cos(np.pi * np.arange(deg + 1) / deg)
    rng = np.random.default_rng(deg)
    values = np.column_stack([np.exp(3.0 * x), 1.0 / (1.2 - x), rng.standard_normal(deg + 1)])
    ours = lame._lobatto(deg)[0] @ values
    reference = chebyshev.chebfit(x, values, deg)
    assert _colmax_err(ours, reference) <= 1e-14


@pytest.mark.parametrize("deg", [24, 32, 40])
def test_lobatto_integrals_match_mpmath(deg):
    # S1[i, j] is the integral from -1 to x_i of the j-th Lagrange polynomial,
    # here from 40-digit Chebyshev coefficients and the antiderivatives
    # T_(k+1)/(2(k+1)) - T_(k-1)/(2(k-1)); S2 = S1 S1
    with mpmath.workdps(40):
        n = deg + 1
        theta = [mpmath.pi * (deg - j) / deg for j in range(n)]  # x_j = cos(theta_j)

        def antiderivative(k, th):
            if k == 0:
                return mpmath.cos(th)
            if k == 1:
                return mpmath.cos(2 * th) / 4
            return (mpmath.cos((k + 1) * th) / (2 * (k + 1))
                    - mpmath.cos((k - 1) * th) / (2 * (k - 1)))

        weight = [mpmath.mpf(0.5) if j in (0, deg) else mpmath.mpf(1) for j in range(n)]
        fit = mpmath.matrix([[2 * weight[k] * weight[j] * mpmath.cos(k * theta[j]) / deg
                              for j in range(n)] for k in range(n)])
        integral = mpmath.matrix([[antiderivative(k, theta[i]) - antiderivative(k, mpmath.pi)
                                   for k in range(n)] for i in range(n)])
        s1 = integral * fit
        s2 = s1 * s1
        for ours, reference in zip(lame._lobatto(deg)[1:], (s1, s2)):
            err = max(abs(mpmath.mpf(float(ours[i, j])) - reference[i, j])
                      for i in range(n) for j in range(n))
            assert err <= 2e-16


def test_batched_frobenius_columns_match_single_calls():
    m = Modulus.from_k(0.9)
    nu = 9.5
    h = LameBasis(nu, m, 4).h
    batched = lame._frobenius_coeffs(nu, h, m, 64)
    single = np.column_stack([lame._frobenius_coeffs(nu, hi, m, 64) for hi in h])
    assert batched.shape == (64, h.size)
    assert _colmax_err(batched, single) <= 1e-15


def _sequential_rk8(panels, state):
    """An independent reference on the panels' edges: scipy's DOP853 tableau
    stepped one fixed step at a time on the state, at least two steps per
    gap between Chebyshev-Lobatto nodes and lam h <= 1/12, with lam the
    panel's growth rate.  Returns each panel's nodes after the first and
    the state [W..., W'...] there."""
    c_stage, a, b = DOP853.C, DOP853.A, DOP853.B
    y, mlen = np.array(state, dtype=float), panels.h.size
    ts, ys = [], []
    for t_from, t_to in zip(panels.edges[:-1], panels.edges[1:]):
        lam = panels._lambda(max(abs(t_from), abs(t_to)))
        nodes = t_from + (t_to - t_from) * 0.5 * (
            1.0 - np.cos(np.pi * np.arange(lame._PANEL_DEG + 1) / lame._PANEL_DEG))
        gaps = np.diff(nodes)
        sub = np.maximum(2, np.ceil(np.abs(gaps) * lam * 12.0).astype(int))
        seg = np.repeat(np.arange(gaps.size), sub)
        pos = np.arange(seg.size) - np.repeat(np.cumsum(sub) - sub, sub)
        h = (gaps / sub)[seg]
        t = nodes[seg] + pos * h
        sc2 = jacobi_imag(t[:, None] + h[:, None] * c_stage, panels.m).sn_im ** 2
        stages = np.empty((12, y.size))
        for j in range(t.size):
            for i in range(12):
                tmp = y + h[j] * (a[i, :i] @ stages[:i]) if i else y
                stages[i, :mlen] = tmp[mlen:]
                stages[i, mlen:] = (panels.h + panels.c * sc2[j, i]) * tmp[:mlen]
            y = y + h[j] * (b @ stages)
            if j + 1 == t.size or seg[j + 1] != seg[j]:
                ts.append(nodes[seg[j] + 1])
                ys.append(y)
    return np.array(ts), np.array(ys)


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"k{c[0]}-nu{c[1]}")
def case(request):
    """A fresh (uncached) basis of depth 4, all four families, and its second
    kind, panels built over the checked range."""
    k, nu = request.param
    m = Modulus.from_k(k)
    b = LameBasis(nu, m, 4)
    kp = m.quarter_Kp
    b.imag([T_HI * kp])
    b.second([T_LO * kp])
    return m, nu, b


def _in_range(t, kp):
    return (t >= T_LO * kp) & (t <= T_HI * kp)


def test_first_kind_panels_match_sequential_stepper(case):
    m, _, batch = case
    panels = batch._alone._first
    mlen = len(batch.specs)
    start = np.concatenate([batch.imag(0.0)[0], batch.imag(0.0, derivative=True)[0]])
    t, ys = _sequential_rk8(panels, start)
    keep = _in_range(t, m.quarter_Kp)
    assert keep.sum() > 2 * lame._PANEL_DEG  # nodes of more than two panels
    assert _colmax_err(batch.imag(t[keep]), ys[keep, :mlen]) <= 1e-13
    assert _colmax_err(batch.imag(t[keep], derivative=True), ys[keep, mlen:]) <= 1e-13


def test_second_kind_panels_match_sequential_stepper(case):
    # the continuation panels run from K' - tau0 down; at depth 4 two panels
    # can span all of them, so a fresh depth-16 basis is checked from the
    # hand-off down to T_LO K'
    m, nu, _ = case
    batch = LameBasis(nu, m, 16)
    batch.second(T_LO * m.quarter_Kp)
    _, tau0, panels = batch._alone._second_kind
    mlen = len(batch.specs)
    t1 = panels.edges[0]  # K' - tau0, where the Frobenius series hands over
    assert t1 == pytest.approx(m.quarter_Kp - tau0)
    start = np.concatenate([batch.second(t1)[0], batch.second(t1, derivative=True)[0]])
    t, ys = _sequential_rk8(panels, start)
    keep = t >= T_LO * m.quarter_Kp
    assert keep.sum() > 2 * lame._PANEL_DEG  # nodes of more than two panels
    assert _colmax_err(batch.second(t[keep]), ys[keep, :mlen]) <= 1e-13
    assert _colmax_err(batch.second(t[keep], derivative=True), ys[keep, mlen:]) <= 1e-13


def _reference(m, nu, batch, t_span, start, t_eval):
    """W'' = (h + nu(nu+1) k^2 sc^2(t, k')) W by solve_ivp, sc from scipy's ellipj."""
    h = batch.h
    coef = nu * (nu + 1.0) * m.k * m.k
    mlen = h.size

    def rhs(t, y):
        sn, cn, _, _ = ellipj(t, m.k_prime ** 2)
        return np.concatenate([y[mlen:], (h + coef * (sn / cn) ** 2) * y[:mlen]])

    sol = solve_ivp(rhs, t_span, start, method="DOP853", t_eval=t_eval, rtol=1e-13,
                    atol=1e-20 * np.max(np.abs(start)))  # F starts near 1e-24 at nu = 19.5
    assert sol.success
    return sol.y[:mlen].T, sol.y[mlen:].T


def test_first_kind_matches_solve_ivp(case):
    m, nu, batch = case
    kp = m.quarter_Kp
    t = np.linspace(T_LO, T_HI, 33) * kp
    start = np.concatenate([batch.imag(0.0)[0], batch.imag(0.0, derivative=True)[0]])
    w, wp = _reference(m, nu, batch, (0.0, t[-1]), start, t)
    assert _colmax_err(batch.imag(t), w) <= 1e-10
    assert _colmax_err(batch.imag(t, derivative=True), wp) <= 1e-10


def test_second_kind_matches_solve_ivp_on_both_sides_of_tau0(case):
    m, nu, batch = case
    kp = m.quarter_Kp
    tau0 = batch._alone._second_kind[1]
    # from tau0/2 (Frobenius series) down through the hand-off at tau0 and
    # the continuation panels to T_LO K'
    t_start = kp - 0.5 * tau0
    series_side = kp - tau0 * np.linspace(0.55, 1.0, 6)
    t = np.concatenate([series_side, np.linspace(kp - tau0, T_LO * kp, 34)[1:]])
    start = np.concatenate([batch.second(t_start)[0], batch.second(t_start, derivative=True)[0]])
    f, fp = _reference(m, nu, batch, (t_start, t[-1]), start, t)
    assert _colmax_err(batch.second(t), f) <= 1e-10
    assert _colmax_err(batch.second(t, derivative=True), fp) <= 1e-10

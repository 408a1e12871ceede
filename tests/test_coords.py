import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatring.coords import (
    FAR_GUARD,
    AlgebraicFlatRing,
    CartesianPoint,
    FlatRingPoint,
    ToroidalPoint,
    Variant,
    algebraic_to_cartesian,
    cartesian_to_algebraic,
    cartesian_to_flatring,
    cartesian_to_toroidal,
    chi_cylindrical,
    chi_flatring,
    coordinate_line_residual,
    coordinate_surface_residual,
    cylindrical_of,
    flatring_to_cartesian,
    metric_h,
    toroidal_to_cartesian,
)
from flatring.elliptic import Modulus, _sncndn, jacobi_imag
from flatring.errors import DomainError

M_A2 = Modulus.from_k(1.0 / math.sqrt(2.0))  # a = 1/k^2 = 2


def test_focal_radius_closed_forms():
    a = 2.0
    assert M_A2.b_ring == pytest.approx(
        (math.sqrt(a) - 1.0) / math.sqrt(a - 1.0), abs=1e-15)
    assert M_A2.b_ring == pytest.approx(M_A2.k_prime / (1.0 + M_A2.k), abs=1e-15)


def test_algebraic_z_vanishes_with_mu():
    p = AlgebraicFlatRing(mu=-1e-12, rho=0.5, phi=0.0, a=2.0)
    c = algebraic_to_cartesian(p)
    assert abs(c.z) < 1e-6


def test_algebraic_point_satisfies_coordinate_lines():
    p = AlgebraicFlatRing(mu=-1.0, rho=0.5, phi=0.0, a=2.0)
    c = algebraic_to_cartesian(p)
    for tau in (p.mu, p.rho):
        assert abs(coordinate_line_residual(c.x, c.z, 2.0, tau)) < 1e-12


def test_algebraic_forward_lands_in_quarter_disc():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        mu = -math.exp(rng.uniform(-8.0, 3.0))
        rho = rng.uniform(1e-6, 1.0 - 1e-6)
        c = algebraic_to_cartesian(AlgebraicFlatRing(mu=mu, rho=rho, phi=0.0, a=2.0))
        assert c.x > 0.0 and c.z > 0.0 and c.x ** 2 + c.z ** 2 < 1.0


def test_algebraic_inverse_against_quadratic_oracle():
    x, z, a = 0.5, 0.3, 2.0
    u = x * x + z * z
    # roots of the inversion quadratic via the numpy companion oracle
    coeffs = [4.0 * x * x,
              a * (u - 1.0) ** 2 - (u + 1.0) ** 2 + 4.0 * (1.0 + a) * z * z,
              -4.0 * a * z * z]
    roots = sorted(np.roots(coeffs))
    q = cartesian_to_algebraic(CartesianPoint(x, 0.0, z), a)
    assert q.mu == pytest.approx(roots[0], rel=1e-12)
    assert q.rho == pytest.approx(roots[1], rel=1e-12)
    back = algebraic_to_cartesian(q)
    assert abs(back.x - x) < 1e-12 and abs(back.z - z) < 1e-12


def test_algebraic_inverse_boundary_labels():
    # z -> 0 with x in (0, b): the rho root collapses to 0
    b = (math.sqrt(2.0) - 1.0)
    q = cartesian_to_algebraic(CartesianPoint(0.3, 0.0, 1e-8), 2.0)
    assert 0.3 < b
    assert q.rho < 1e-8


def test_algebraic_inverse_sign_preconditions():
    with pytest.raises(DomainError):
        cartesian_to_algebraic(CartesianPoint(0.5, 0.0, 0.0), 2.0)  # F(0) < 0 fails
    with pytest.raises(DomainError):
        cartesian_to_algebraic(CartesianPoint(0.8, 0.0, 0.6), 2.0)  # outside Q


def test_transcendental_matches_algebraic_composition():
    rng = np.random.default_rng(11)
    m = M_A2
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(1e-3, m.quarter_K - 1e-3)
        t = rng.uniform(1e-3, m.quarter_Kp - 1e-3)
        rho = _sncndn(s, m.k)[0] ** 2
        mu = -jacobi_imag(t, m).sn_im ** 2
        c1 = flatring_to_cartesian(FlatRingPoint(s=s, t=t, phi=0.3, modulus=m))
        c2 = algebraic_to_cartesian(AlgebraicFlatRing(mu=mu, rho=rho, phi=0.3, a=m.a))
        worst = max(worst, abs(c1.x - c2.x), abs(c1.y - c2.y), abs(c1.z - c2.z))
    assert worst < 1e-12


def test_transcendental_boundary_limit():
    # s = K, t -> 0: the image approaches (x, z) -> (1, 0)
    m = M_A2
    c = flatring_to_cartesian(FlatRingPoint(s=m.quarter_K, t=1e-6, phi=0.0, modulus=m))
    assert abs(c.x - 1.0) < 1e-9
    assert abs(c.z) < 1e-5


def test_inversion_symmetry():
    m = M_A2
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = rng.uniform(1e-3, 2.0 * m.quarter_K - 1e-3)
        t = rng.uniform(1e-3, m.quarter_Kp - 1e-3)
        c = flatring_to_cartesian(FlatRingPoint(s=s, t=t, phi=0.0, modulus=m))
        ci = flatring_to_cartesian(FlatRingPoint(
            s=2.0 * m.quarter_K - s, t=t, phi=0.0, modulus=m))
        u = c.x ** 2 + c.z ** 2
        assert abs(ci.x - c.x / u) < 1e-12
        assert abs(ci.z - c.z / u) < 1e-12


@pytest.mark.parametrize("variant", list(Variant))
def test_roundtrip_all_variants(variant):
    m = M_A2
    rng = np.random.default_rng(17)
    K, Kp = m.quarter_K, m.quarter_Kp
    worst = 0.0
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
        back = cartesian_to_flatring(c, m, variant)
        worst = max(worst, abs(back.s - s), abs(back.t - t), abs(back.phi - p.phi))
    assert worst < 1e-11


def test_reflection_sign_bookkeeping():
    m = M_A2
    p = FlatRingPoint(s=0.8 * m.quarter_K, t=0.4 * m.quarter_Kp, phi=0.0, modulus=m)
    c = flatring_to_cartesian(p)
    below = CartesianPoint(c.x, c.y, -c.z)
    back = cartesian_to_flatring(below, m, Variant.V1)
    assert back.s == pytest.approx(-p.s, abs=1e-11)
    back2 = cartesian_to_flatring(below, m, Variant.V2)
    assert back2.t == pytest.approx(-p.t, abs=1e-11)
    back3 = cartesian_to_flatring(below, m, Variant.V3)
    assert back3.s == pytest.approx(4.0 * m.quarter_K - p.s, abs=1e-11)


def test_cut_guard():
    m = M_A2
    with pytest.raises(DomainError):
        cartesian_to_flatring(CartesianPoint(m.b_ring + 0.1, 0.0, 0.0), m, Variant.V1)
    with pytest.raises(DomainError):
        cartesian_to_flatring(CartesianPoint(m.b_ring + 0.1, 0.0, 1e-12), m, Variant.V1)
    # the same point is valid in variant 2
    p = cartesian_to_flatring(CartesianPoint(m.b_ring + 0.1, 0.0, 0.0), m, Variant.V2)
    assert p.t == 0.0


NEAR_K = (1e-9, 1e-8, 1e-7, 1e-5, 1e-3, 0.1)  # K - s, or s - K on the inverted side
T_FRACTIONS = (1e-3, 0.1, 0.5, 0.99)  # of K'


def _near_unit_sphere(m, variant):
    """(s, t) pairs within NEAR_K of the unit sphere s = K (or s = 3K in
    variant 3), on both sides of it and on both sides of z = 0."""
    K, Kp = m.quarter_K, m.quarter_Kp
    pairs = []
    for d in NEAR_K:
        for tf in T_FRACTIONS:
            t = tf * Kp
            if variant is Variant.V1:
                pairs += [(sign * (K + side * d), t) for sign in (1, -1) for side in (1, -1)]
            elif variant is Variant.V2:
                pairs += [(K + side * d, sign * t) for sign in (1, -1) for side in (1, -1)]
            else:
                pairs += [(centre + side * d, t) for centre in (K, 3 * K) for side in (1, -1)]
    return pairs


@pytest.mark.parametrize("k", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("variant", list(Variant))
def test_roundtrip_near_unit_sphere(variant, k):
    # 1 - rho comes from the root product, not from rho: s keeps its digits at s -> K
    m = Modulus.from_k(k)
    worst = 0.0
    for s, t in _near_unit_sphere(m, variant):
        c = flatring_to_cartesian(FlatRingPoint(s=s, t=t, phi=0.7, modulus=m, variant=variant))
        back = cartesian_to_flatring(c, m, variant)
        worst = max(worst, abs(back.s - s), abs(back.t - t))
    assert worst <= 1e-13


@pytest.mark.parametrize("variant", list(Variant))
def test_inverse_on_arrays_matches_pointwise(variant):
    m = Modulus.from_k(0.7)
    rng = np.random.default_rng(41)
    K, Kp = m.quarter_K, m.quarter_Kp
    lo, hi = {Variant.V1: (-2 * K, 2 * K), Variant.V2: (0.0, 2 * K),
              Variant.V3: (0.0, 4 * K)}[variant]
    s = rng.uniform(lo + 1e-3, hi - 1e-3, (6, 7))
    t = rng.uniform(1e-3, Kp - 1e-3, (6, 7))
    if variant is Variant.V2:
        t *= rng.choice([-1.0, 1.0], t.shape)
    c = flatring_to_cartesian(FlatRingPoint(s=s, t=t, phi=rng.uniform(-3, 3, (6, 7)),
                                            modulus=m, variant=variant))
    whole = cartesian_to_flatring(c, m, variant)
    assert whole.s.shape == whole.t.shape == whole.phi.shape == (6, 7)
    for i in np.ndindex(6, 7):
        one = cartesian_to_flatring(CartesianPoint(c.x[i], c.y[i], c.z[i]), m, variant)
        assert all(type(v) is float for v in (one.s, one.t, one.phi))
        assert (one.s, one.t, one.phi) == pytest.approx(
            (whole.s[i], whole.t[i], whole.phi[i]), rel=0.0, abs=1e-15)
    assert np.max(np.abs(whole.s - s)) < 1e-13 and np.max(np.abs(whole.t - t)) < 1e-13


def test_inverse_on_arrays_refuses_any_cut_point():
    m = M_A2
    x = np.array([0.3, m.b_ring + 0.1, 0.4])
    with pytest.raises(DomainError):
        cartesian_to_flatring(CartesianPoint(x, 0.0, np.array([0.2, 0.0, -0.1])), m)
    with pytest.raises(DomainError):
        cartesian_to_flatring(CartesianPoint(np.array([0.3, 0.0]), 0.0, 0.2), m)


def test_metric_and_cylindrical_on_arrays_match_pointwise():
    m = M_A2
    rng = np.random.default_rng(43)
    s = rng.uniform(-1.9, 1.9, 25) * m.quarter_K
    t = rng.uniform(0.02, 0.98, 25) * m.quarter_Kp
    phi = rng.uniform(-3.0, 3.0, 25)
    whole = FlatRingPoint(s=s, t=t, phi=phi, modulus=m)
    h, (r, z) = metric_h(whole), cylindrical_of(whole)
    for i in range(25):
        one = FlatRingPoint(s=float(s[i]), t=float(t[i]), phi=float(phi[i]), modulus=m)
        h1, (r1, z1) = metric_h(one), cylindrical_of(one)
        assert all(type(v) is float for v in (*h1, r1, z1))
        assert [v[i] for v in h] == pytest.approx(list(h1), rel=1e-14)
        assert (r[i], z[i]) == pytest.approx((r1, z1), rel=1e-14)


def test_coordinate_surface_membership():
    m = Modulus.from_k(0.5)
    p0 = FlatRingPoint(s=0.6 * m.quarter_K, t=0.4 * m.quarter_Kp, phi=1.0, modulus=m)
    c0 = flatring_to_cartesian(p0)
    assert abs(coordinate_surface_residual(c0, m, "s", p0.s)) < 1e-10
    assert abs(coordinate_surface_residual(c0, m, "t", p0.t)) < 1e-10
    assert abs(coordinate_surface_residual(c0, m, "t", 0.7 * m.quarter_Kp)) > 1e-3


def test_surface_residual_is_its_value_at_the_inverse_point():
    # the residual is invariant under q -> q/|q|^2, where it reads any
    # point past the unit sphere, on both sides of it
    m = Modulus.from_k(0.5)
    points = [CartesianPoint(0.3, 0.1, 0.2), CartesianPoint(0.9, -0.5, 0.4),
              CartesianPoint(1.5, 0.2, -0.7), CartesianPoint(0.0, 0.0, 3.0),
              CartesianPoint(-4.0, 2.5, 0.3)]
    for which, value in (("s", 0.7 * m.quarter_K), ("t", 0.4 * m.quarter_Kp)):
        for q in points:
            u3 = q.x * q.x + q.y * q.y + q.z * q.z
            inverse = CartesianPoint(*(c / u3 for c in q))
            assert abs(coordinate_surface_residual(q, m, which, value)
                       - coordinate_surface_residual(inverse, m, which, value)) <= 1e-15


def test_surface_residual_on_figure_ring():
    m = Modulus.from_k(0.5)
    t0 = 0.4 * m.quarter_Kp
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = FlatRingPoint(s=rng.uniform(-2, 2) * m.quarter_K * 0.99, t=t0,
                          phi=rng.uniform(-3, 3), modulus=m)
        c = flatring_to_cartesian(p)
        assert abs(coordinate_surface_residual(c, m, "t", t0)) < 1e-10


def test_metric_coefficients():
    m = M_A2
    rng = np.random.default_rng(29)
    h = 1e-5
    for _ in range(100):
        s = rng.uniform(0.1, 2.0 * m.quarter_K - 0.1)
        t = rng.uniform(0.1, m.quarter_Kp - 0.1)
        hs, ht, hphi = metric_h(FlatRingPoint(s=s, t=t, phi=0.0, modulus=m))
        assert hs == ht  # identical by construction
        cp = flatring_to_cartesian(FlatRingPoint(s=s + h, t=t, phi=0.0, modulus=m))
        cm = flatring_to_cartesian(FlatRingPoint(s=s - h, t=t, phi=0.0, modulus=m))
        fd = math.hypot((cp.x - cm.x) / (2 * h), (cp.z - cm.z) / (2 * h))
        assert fd == pytest.approx(hs, rel=1e-6)
        cp = flatring_to_cartesian(FlatRingPoint(s=s, t=t + h, phi=0.0, modulus=m))
        cm = flatring_to_cartesian(FlatRingPoint(s=s, t=t - h, phi=0.0, modulus=m))
        fd = math.hypot((cp.x - cm.x) / (2 * h), (cp.z - cm.z) / (2 * h))
        assert fd == pytest.approx(ht, rel=1e-6)


def test_orthogonality_of_coordinate_directions():
    m = M_A2
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(40):
        s = rng.uniform(0.1, 2.0 * m.quarter_K - 0.1)
        t = rng.uniform(0.1, m.quarter_Kp - 0.1)
        cp = flatring_to_cartesian(FlatRingPoint(s=s + h, t=t, phi=0.0, modulus=m))
        cm = flatring_to_cartesian(FlatRingPoint(s=s - h, t=t, phi=0.0, modulus=m))
        ds = np.array([(cp.x - cm.x), (cp.z - cm.z)]) / (2 * h)
        cp = flatring_to_cartesian(FlatRingPoint(s=s, t=t + h, phi=0.0, modulus=m))
        cm = flatring_to_cartesian(FlatRingPoint(s=s, t=t - h, phi=0.0, modulus=m))
        dt = np.array([(cp.x - cm.x), (cp.z - cm.z)]) / (2 * h)
        cosang = abs(np.dot(ds, dt)) / (np.linalg.norm(ds) * np.linalg.norm(dt))
        assert cosang < 1e-8


def test_toroidal_roundtrip_and_limits():
    rng = np.random.default_rng(37)
    for _ in range(500):
        tp = ToroidalPoint(tau=rng.uniform(0.05, 6.0),
                           psi=rng.uniform(-math.pi + 1e-6, math.pi),
                           phi=rng.uniform(-math.pi, math.pi))
        c = toroidal_to_cartesian(tp)
        back = cartesian_to_toroidal(c)
        assert abs(back.tau - tp.tau) < 1e-12
        assert abs(back.psi - tp.psi) < 1e-12
    # tau -> infinity approaches the unit circle
    c = toroidal_to_cartesian(ToroidalPoint(tau=20.0, psi=0.3, phi=0.0))
    assert abs(math.hypot(c.x, c.y) - 1.0) < 1e-8 and abs(c.z) < 1e-8


def test_toroidal_direct_substitution():
    c = toroidal_to_cartesian(ToroidalPoint(tau=1.0, psi=math.pi, phi=0.0))
    assert c.x == pytest.approx(math.sinh(1.0) / (math.cosh(1.0) + 1.0), rel=1e-15)
    assert abs(c.z) < 1e-15


def test_toroidal_domain_errors():
    with pytest.raises(DomainError):
        cartesian_to_toroidal(CartesianPoint(0.0, 0.0, 0.5))
    with pytest.raises(DomainError):
        cartesian_to_toroidal(CartesianPoint(1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        ToroidalPoint(tau=0.0, psi=0.1, phi=0.0)


def test_flatring_becomes_toroidal_at_small_k():
    m = Modulus.from_k(1e-4)
    for tau, psi in ((1.0, 0.7), (0.5, 2.5), (2.0, 5.0)):
        pfr = FlatRingPoint(s=2.0 * m.quarter_K - psi, t=m.quarter_Kp - tau,
                            phi=0.4, modulus=m)
        c1 = flatring_to_cartesian(pfr)
        c2 = toroidal_to_cartesian(ToroidalPoint(tau=tau, psi=psi, phi=0.4))
        assert max(abs(c1.x - c2.x), abs(c1.y - c2.y), abs(c1.z - c2.z)) < 1e-3


def test_chi_coincident_points():
    assert chi_cylindrical(0.8, 0.3, 0.8, 0.3) == 1.0


def test_chi_flatring_form_agrees_with_cylindrical():
    m = M_A2
    rng = np.random.default_rng(41)
    for _ in range(100):
        t1 = rng.uniform(1e-2, 0.45 * m.quarter_Kp)
        t2 = rng.uniform(t1 + 0.05, m.quarter_Kp - 1e-2)
        p1 = FlatRingPoint(s=rng.uniform(-1.9, 1.9) * m.quarter_K, t=t1, phi=0.0, modulus=m)
        p2 = FlatRingPoint(s=rng.uniform(-1.9, 1.9) * m.quarter_K, t=t2, phi=0.0, modulus=m)
        r1, z1 = cylindrical_of(p1)
        r2, z2 = cylindrical_of(p2)
        a = chi_cylindrical(r1, z1, r2, z2)
        b = chi_flatring(p1, p2)
        assert a >= 1.0
        assert b == pytest.approx(a, rel=1e-12)


def test_chi_auxiliary_inverse_radius_identity():
    # R = R~ (R^2 + z^2) with 1/R~ built from the sign-flipped combination
    m = M_A2
    rng = np.random.default_rng(43)
    for _ in range(50):
        s = rng.uniform(0.1, 1.9) * m.quarter_K
        t = rng.uniform(0.05, 0.9) * m.quarter_Kp
        _, cn_s, dn_s = _sncndn(s, m.k)
        im = jacobi_imag(t, m)
        r, z = cylindrical_of(FlatRingPoint(s=s, t=t, phi=0.0, modulus=m))
        inv_r_tilde = (dn_s * im.dn - m.k * cn_s * im.cn) / m.k_prime
        assert r == pytest.approx((r * r + z * z) / inv_r_tilde, rel=1e-12)


def test_chi_axis_error():
    with pytest.raises(DomainError):
        chi_cylindrical(0.0, 0.1, 0.5, 0.2)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(-math.pi, math.pi))
def test_roundtrip_property_variant1(sf, tf, phi):
    m = Modulus.from_k(0.5)
    s = (2.0 * sf - 1.0) * 1.98 * m.quarter_K
    t = 0.02 * m.quarter_Kp + tf * 0.96 * m.quarter_Kp
    p = FlatRingPoint(s=s, t=t, phi=phi, modulus=m)
    c = flatring_to_cartesian(p)
    back = cartesian_to_flatring(c, m, Variant.V1)
    assert abs(back.s - s) < 1e-11
    assert abs(back.t - t) < 1e-11


@pytest.mark.parametrize("point", [(1e200, 0.0, 1.0), (0.5, 0.0, -1e200), (1e160, 1e160, 0.0),
                                   (math.inf, 0.0, 1.0)])
def test_far_points_raise_domain_error_without_warnings(point):
    # every inversion refuses a point whose squares would leave the double range, before
    # any of them is taken: no OverflowError, no numpy warning, no (nan, nan) point
    from flatring.dirichlet import FlatRingDomain, solve_interior, solve_point_source
    from flatring.harmonics import Truncation, green_expansion, toroidal_green_expansion

    m = Modulus.from_k(0.5)
    q, near = CartesianPoint(*point), CartesianPoint(0.7, 0.2, 0.15)
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    coeffs = solve_point_source(dom, CartesianPoint(0.1, 0.2, 1.5), Truncation(6, 6), 40, 32)
    calls = [lambda: cartesian_to_flatring(q, m), lambda: cartesian_to_toroidal(q),
             lambda: cartesian_to_flatring(CartesianPoint(*np.array([point, near]).T), m),
             lambda: green_expansion(q, near, Truncation(4, 4), m),
             lambda: green_expansion(near, q, Truncation(4, 4), m),
             lambda: toroidal_green_expansion(q, near, Truncation(4, 4)),
             lambda: solve_interior(dom, coeffs, [near, q])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="too far from the origin"):
                call()


def test_far_guard_scales_with_the_modulus():
    # the flat ring refuses |q| >= FAR_GUARD k, where a |q|^2 = (|q|/k)^2 nears overflow;
    # nearer points keep their formulas and end as they did: here past the chart's t range
    for k in (0.5, 1e-3):
        m = Modulus.from_k(k)
        with pytest.raises(DomainError, match="too far"):
            cartesian_to_flatring(CartesianPoint(FAR_GUARD * k, 0.0, 1.0), m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="outside the V1 ranges"):
                cartesian_to_flatring(CartesianPoint(0.5 * FAR_GUARD * k, 0.0, 1.0), m)
    assert cartesian_to_toroidal(CartesianPoint(2.0, 0.0, 0.5)).tau > 0.0
    with pytest.raises(DomainError, match="tau <= 0"):
        cartesian_to_toroidal(CartesianPoint(0.5 * FAR_GUARD, 0.0, 1.0))

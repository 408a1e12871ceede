"""The contracts of flatring's value types: frozen where they are immutable,
value equality and hashing, keyword construction and defaults, a repr that
names the fields, and every DomainError of their constructors.

The immutable types are NamedTuples, so they are also tuples: they unpack,
have `_replace`, and equal a plain tuple of the same fields."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import flatring
from flatring import dirichlet
from flatring.coords import AlgebraicFlatRing, FlatRingPoint, ToroidalPoint, Variant
from flatring.dirichlet import BoundaryData, CoefficientTable, FlatRingDomain, coefficients
from flatring.elliptic import JacobiImag, JacobiTriple, Modulus
from flatring.errors import DomainError
from flatring.harmonics import HarmonicIndex, HarmonicKind, Truncation
from flatring.lame import order_set


def _frozen_values(m):
    return [
        m,
        JacobiTriple(sn=0.5, cn=0.75, dn=0.9),
        JacobiImag(sn_im=0.5, cn=1.1, dn=1.2),
        AlgebraicFlatRing(mu=-0.5, rho=0.5, phi=0.1, a=4.0),
        FlatRingPoint(s=0.5, t=0.5, phi=0.1, modulus=m),
        ToroidalPoint(tau=1.0, psi=0.2, phi=0.3),
        FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m),
        HarmonicIndex(m=1, n=2, kind=HarmonicKind.GC),
        Truncation(m_max=3, n_max=4),
    ]


def test_frozen_types_refuse_assignment(m05):
    values = _frozen_values(m05)
    values.append(dirichlet._surface(FlatRingDomain(0.4 * m05.quarter_Kp, m05), 8, 6, 1, 1))
    for value in values:
        names = value._fields if isinstance(value, tuple) else list(vars(value))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0
        with pytest.raises(AttributeError):
            delattr(value, names[0])


@pytest.mark.parametrize("build, message", [
    (lambda m: Modulus(k=1.0, k_prime=0.0, quarter_K=1.0, quarter_Kp=1.0), "0 < k < 1"),
    (lambda m: Modulus(k=0.5, k_prime=0.5, quarter_K=1.0, quarter_Kp=1.0), "inconsistent"),
    (lambda m: m._replace(quarter_Kp=-1.0), "positive"),
    (lambda m: AlgebraicFlatRing(mu=-0.5, rho=0.5, phi=0.0, a=1.0), "exceed 1"),
    (lambda m: AlgebraicFlatRing(mu=0.5, rho=0.5, phi=0.0, a=4.0), "mu must be negative"),
    (lambda m: AlgebraicFlatRing(mu=-0.5, rho=1.0, phi=0.0, a=4.0), r"rho must lie in \(0, 1\)"),
    (lambda m: FlatRingPoint(s=0.5, t=-0.1, phi=0.0, modulus=m), "outside the V1 ranges"),
    (lambda m: FlatRingPoint(s=-0.5, t=0.5, phi=0.0, modulus=m, variant=Variant.V2),
     "outside the V2 ranges"),
    (lambda m: FlatRingPoint(s=np.array([0.5, 5.0 * m.quarter_K]), t=0.5, phi=0.0, modulus=m,
                             variant=Variant.V3), "outside the V3 ranges"),
    (lambda m: FlatRingPoint(s=0.5, t=0.5, phi=math.nan, modulus=m), "phi must be finite"),
    (lambda m: FlatRingPoint(s=0.5, t=0.5, phi=np.array([0.1, math.inf]), modulus=m),
     "phi must be finite"),
    (lambda m: ToroidalPoint(tau=0.0, psi=0.0, phi=0.0), "tau must be positive"),
    (lambda m: ToroidalPoint(tau=math.inf, psi=0.0, phi=0.0), "each field finite"),
    (lambda m: ToroidalPoint(tau=1.0, psi=math.nan, phi=0.0), "each field finite"),
    (lambda m: ToroidalPoint(tau=1.0, psi=0.0, phi=-math.inf), "each field finite"),
    (lambda m: FlatRingDomain(t0=m.quarter_Kp, modulus=m), r"outside \(0, K'\)"),
    (lambda m: HarmonicIndex(m=0, n=0, kind=HarmonicKind.HS), "n >= 1"),
    (lambda m: HarmonicIndex(m=0, n=-1, kind=HarmonicKind.GC), "n >= 0"),
    (lambda m: Truncation(m_max=-1, n_max=0), "non-negative"),
])
def test_constructor_checks_raise_domain_error(m05, build, message):
    with pytest.raises(DomainError, match=message):
        build(m05)


def test_modulus_equality_hashing_and_cache_keys():
    a, b = Modulus.from_k(0.5), Modulus.from_k(0.5)
    assert a == b and hash(a) == hash(b)
    assert a != Modulus.from_k(0.25)
    assert order_set(a, 2, 2) is order_set(b, 2, 2)


def test_value_equality_and_tuple_semantics(m05):
    m = m05
    dom = FlatRingDomain(t0=0.4 * m.quarter_Kp, modulus=m)
    assert dom == FlatRingDomain(0.4 * m.quarter_Kp, m) and hash(dom) == hash((dom.t0, m))
    assert dom != FlatRingDomain(t0=0.5 * m.quarter_Kp, modulus=m)
    tr = Truncation(3, 4)
    m_max, n_max = tr
    assert (m_max, n_max) == tr == (3, 4) and tr._replace(n_max=5) == Truncation(3, 5)
    assert {HarmonicIndex(1, 2, HarmonicKind.GC), HarmonicIndex(m=1, n=2, kind=HarmonicKind.GC)} \
        == {HarmonicIndex(1, 2, HarmonicKind.GC)}
    with pytest.raises(DomainError):  # _replace goes through the same checks
        tr._replace(m_max=-1)


def test_defaults_and_keyword_construction(m05):
    p = FlatRingPoint(s=0.5, t=0.5, phi=0.1, modulus=m05)
    assert p.variant is Variant.V1 and p == FlatRingPoint(0.5, 0.5, 0.1, m05, Variant.V1)
    assert FlatRingPoint(0.5, 0.5, 0.1, m05, variant=Variant.V3).variant is Variant.V3
    data = BoundaryData(g=math.hypot)
    assert (data.g, data.n_s, data.n_phi, data.dom, data.f) == (math.hypot, 96, 64, None, None)
    assert BoundaryData(math.hypot, 8, n_phi=6).n_phi == 6
    table = CoefficientTable(m_max=0, n_max=0, c=np.ones((1, 1)), d=np.zeros((1, 1)),
                             parseval_residual=0.0)
    assert table.c_of(0, 0) == 1.0 and table.d_of(0, 1) == 0.0


def test_mutable_types_compare_by_value_and_are_unhashable():
    data = BoundaryData(g=math.hypot, n_s=8, n_phi=6)
    assert data == BoundaryData(g=math.hypot, n_s=8, n_phi=6)
    assert data != BoundaryData(g=math.hypot, n_s=8, n_phi=7)
    data.n_s = 10  # mutable, as before
    assert data.n_s == 10
    c = np.ones((1, 1))
    assert CoefficientTable(0, 0, c, c, 0.0) == CoefficientTable(0, 0, c, c, 0.0)
    for value in (data, CoefficientTable(0, 0, c, c, 0.0)):
        with pytest.raises(TypeError):
            hash(value)


def test_tables_of_two_projections_compare_by_value(m05):
    # equal arrays that are distinct objects compare equal, element by element
    dom = FlatRingDomain(t0=0.4 * m05.quarter_Kp, modulus=m05)
    data = BoundaryData(g=lambda s, phi: 1.0, n_s=32, n_phi=16)
    first, second = (coefficients(dom, data, Truncation(2, 2)) for _ in range(2))
    assert first.c is not second.c and first == second
    c = first.c.copy()
    c[1, 1] += 1e-3
    assert first != CoefficientTable(first.m_max, first.n_max, c, first.d,
                                     first.parseval_residual)


def test_repr_names_the_fields(m05):
    for value in _frozen_values(m05):
        text = repr(value)
        assert text.startswith(type(value).__name__ + "(")
        assert all(f"{name}=" in text for name in value._fields)
    data = BoundaryData.from_function(FlatRingDomain(t0=0.4 * m05.quarter_Kp, modulus=m05),
                                      lambda q: q.x, n_s=8, n_phi=6)
    assert repr(data) == f"BoundaryData(g={data.g!r}, n_s=8, n_phi=6)"  # no dom=, no f=
    text = repr(CoefficientTable(m_max=1, n_max=2, c=np.ones(1), d=np.zeros(1),
                                 parseval_residual=0.5))
    assert text == ("CoefficientTable(m_max=1, n_max=2, c=array([1.]), d=array([0.]), "
                    "parseval_residual=0.5)")


def test_no_class_in_flatring_is_a_dataclass():
    """@dataclass writes each class's methods as source and compiles them with exec
    when the module is imported: ~0.9 ms a class on Python 3.11, about half of a cold
    `import flatring.cli` when twelve value types were dataclasses.  The value types
    are NamedTuples or plain classes instead, with the same contracts."""
    names = ["flatring"] + [f"flatring.{m.name}" for m in pkgutil.iter_modules(flatring.__path__)]
    classes = [obj for name in names for obj in vars(importlib.import_module(name)).values()
               if inspect.isclass(obj) and obj.__module__ == name]
    assert len(classes) > 20
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []

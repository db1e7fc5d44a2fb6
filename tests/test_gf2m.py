from __future__ import annotations

import numpy as np
import pytest

from designforge import (
    CodeSpec,
    Field,
    IndexOutOfRange,
    NonPrimitivePolynomial,
    NotInSubfield,
    UnsupportedM,
)
from designforge.gf2m import DEFAULT_PRIMITIVE_POLYS
from ref_gf2 import ref_mul, ref_trace


def test_default_fields():
    f = Field(4)
    assert (f.poly, f.q, f.n, f.s) == (0x13, 16, 15, 2)
    f = Field(6)
    assert (f.q, f.n) == (64, 63)


def test_unsupported_m():
    for m in (3, 5, 7, 2, 18):
        with pytest.raises(UnsupportedM):
            Field(m)


@pytest.mark.parametrize("m", sorted(DEFAULT_PRIMITIVE_POLYS))
def test_default_poly_is_the_least_primitive(m):
    poly = (1 << m) | 1
    while True:
        try:
            Field(m, poly)
            break
        except NonPrimitivePolynomial:
            poly += 2
    assert poly == DEFAULT_PRIMITIVE_POLYS[m] == Field(m).poly


def test_non_primitive_polynomials():
    # x^4+x^3+x^2+x+1 is irreducible but its root has order 5
    with pytest.raises(NonPrimitivePolynomial):
        Field(4, 0x1F)
    # x^4+x^3+x+1 = (x+1)^2 (x^2+x+1) is reducible
    with pytest.raises(NonPrimitivePolynomial):
        Field(4, 0x1B)
    # degree mismatch
    with pytest.raises(NonPrimitivePolynomial):
        Field(4, 0x43)
    # zero constant term
    with pytest.raises(NonPrimitivePolynomial):
        Field(4, 0x12)
    # negative, with a degree-m bit length and an odd low bit
    with pytest.raises(NonPrimitivePolynomial):
        Field(4, -0x13)


def test_alternate_primitive_polynomial():
    # x^4+x^3+1 is the reciprocal of the default and also primitive
    f = Field(4, 0x19)
    assert f.n == 15
    assert sorted(f.alpha_pow(i) for i in range(15)) == list(range(1, 16))


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
def test_mul_against_reference(m):
    f = Field(m)
    if m == 4:
        pairs = [(a, b) for a in range(16) for b in range(16)]
    else:
        pairs = [(a, (a * 37 + 11) % f.q) for a in range(f.q)]
    for a, b in pairs:
        assert f.mul(a, b) == ref_mul(a, b, f.poly, m)


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
def test_trace_against_reference(m):
    f = Field(m)
    for x in range(f.q):
        assert f.trace(x) == ref_trace(x, f.poly, m)


def test_trace_examples(f4):
    assert f4.trace(1) == 0  # tr(1) = m mod 2, m even
    assert f4.trace(f4.alpha_pow(1)) == 0
    assert f4.trace(f4.alpha_pow(3)) == 1


@pytest.mark.parametrize("m", [4, 6, 8])
def test_trace_invariants(m):
    f = Field(m)
    # Frobenius invariance and balance
    assert all(f.trace(f.mul(x, x)) == f.trace(x) for x in range(f.q))
    assert sum(f.trace(x) for x in range(f.q)) == f.q // 2
    # linearity
    step = 1 if m == 4 else 7
    for x in range(0, f.q, step):
        for y in range(0, f.q, step):
            assert f.trace(x ^ y) == f.trace(x) ^ f.trace(y)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_subfield(m):
    f = Field(m)
    sub = f.subfield_elements()
    assert len(sub) == 1 << f.s
    assert 0 in sub and 1 in sub
    # the norm x^(2^s + 1) always lands in the subfield
    e = (1 << f.s) + 1
    assert all(f.in_subfield(f.pow(x, e)) for x in range(f.q))
    # subfield closed under multiplication and addition
    for x in sub[:8]:
        for y in sub[:8]:
            assert f.in_subfield(f.mul(x, y))
            assert f.in_subfield(x ^ y)


def test_subfield_examples(f4):
    assert f4.in_subfield(0) and f4.in_subfield(1)
    omega = f4.alpha_pow(5)
    assert f4.in_subfield(omega)  # (alpha^5)^4 = alpha^20 = alpha^5
    assert not f4.in_subfield(f4.alpha_pow(1))
    assert f4.subfield_trace(0) == 0
    assert f4.subfield_trace(omega) == 1  # omega + omega^2 = 1 in GF(4)
    with pytest.raises(NotInSubfield):
        f4.subfield_trace(f4.alpha_pow(1))


@pytest.mark.parametrize("m", [4, 6, 10, 12])
def test_subfield_trace_transitivity(m):
    # tr_1^m = tr_1^s of the relative trace x + x^(2^s)
    f = Field(m)
    for x in range(f.q):
        rel = x ^ f.pow(x, 1 << f.s)
        assert f.in_subfield(rel)
        assert f.trace(x) == f.subfield_trace(rel)


def test_element_order(f4):
    assert f4.element(0) == 0
    assert f4.element(1) == 1
    assert f4.element(5) == 3  # alpha^4 = alpha + 1
    seen = {f4.element(i) for i in range(16)}
    assert seen == set(range(16))
    assert all(f4.index(f4.element(i)) == i for i in range(16))
    with pytest.raises(IndexOutOfRange):
        f4.element(16)
    with pytest.raises(IndexOutOfRange):
        f4.element(-1)


def test_power_table(f6):
    tab = f6.power_table(5)
    assert tab[0] == 0
    for i in range(1, f6.q):
        assert tab[i] == f6.pow(f6.element(i), 5)


def test_scalar_mul_vec(f4):
    xs = f4.elements_in_order()
    for a in range(f4.q):
        out = f4.scalar_mul_vec(a, xs)
        assert all(int(out[i]) == f4.mul(a, int(xs[i])) for i in range(f4.q))


@pytest.mark.parametrize("m", [14, 16])
def test_large_field_tables(m):
    f = Field(m)
    elems = f.elements_in_order()
    trace = f.trace_np[elems]
    assert int(trace.sum()) == f.q // 2
    assert np.array_equal(f.trace_np[f.power_table(2)], trace)
    fixed = f.power_table(1 << f.s) == elems
    assert int(fixed.sum()) == 1 << f.s
    assert np.array_equal(f.in_subfield_np[elems].astype(bool), fixed)
    assert not f.sub_trace_np[elems[~fixed]].any()
    assert int(f.sub_trace_np.sum()) == 1 << (f.s - 1)


def test_tables_are_read_only(f4):
    for name in ("exp_np", "log_np", "trace_np", "in_subfield_np", "sub_trace_np"):
        with pytest.raises(ValueError):
            getattr(f4, name)[1] = 0


def _power_table_oracle(field: Field, e: int) -> np.ndarray:
    # the uncached construction: x^e for every x in coordinate order
    out = np.empty(field.q, dtype=np.int64)
    out[0] = 0
    out[1:] = field.exp_np[(np.arange(field.n, dtype=np.int64) * e) % field.n]
    return out


@pytest.mark.parametrize("m", sorted(DEFAULT_PRIMITIVE_POLYS))
def test_power_tables_are_cached_read_only(m):
    f = Field(m)
    s = m // 2
    specs = [CodeSpec("c1", s)] + [CodeSpec("c2", s, l) for l in range(1, s)]
    exponents = sorted({e for spec in specs for e, _ in spec.terms})
    for e in exponents:
        table = f.power_table(e)
        assert f.power_table(e) is table
        assert np.array_equal(table, _power_table_oracle(f, e))
        with pytest.raises(ValueError):
            table[1] = 0
    assert f.elements_in_order() is f.power_table(1)
    assert Field(m).power_table(exponents[0]) is not f.power_table(exponents[0])


def test_scalar_results_are_python_ints(f4):
    omega = f4.alpha_pow(5)
    values = [f4.mul(3, 7), f4.pow(3, 7), f4.pow(3, 2**70), omega, f4.trace(3),
              f4.subfield_trace(omega), f4.element(3), f4.index(3), *f4.subfield_elements()]
    assert all(type(v) is int for v in values)
    assert type(f4.in_subfield(omega)) is bool
    # a large exponent reduces exactly, with no int64 overflow
    for e in (2**60 + 1, 2**70):
        assert f4.pow(3, e) == f4.pow(3, e % f4.n)

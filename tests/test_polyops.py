from __future__ import annotations

import pytest

from designforge import CodeSpec, IndexOutOfRange, cyclotomic_coset, defining_set_of_family
from designforge.polyops import poly_degree, poly_str
from ref_codes import (
    EmptyInput,
    InvalidDelta,
    ZeroPolynomial,
    bch_generator,
    minimal_polynomial,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    poly_mod,
    poly_mul,
)


def poly_eval(p: int, x: int, field) -> int:
    """Horner evaluation of a binary polynomial at a field element."""
    acc = 0
    for k in range(poly_degree(p), -1, -1):
        acc = field.mul(acc, x) ^ ((p >> k) & 1)
    return acc


def test_cyclotomic_cosets():
    assert cyclotomic_coset(0, 15).members == frozenset({0})
    assert cyclotomic_coset(5, 15).members == frozenset({5, 10})
    assert cyclotomic_coset(5, 15).representative == 5
    assert cyclotomic_coset(1, 63).members == frozenset({1, 2, 4, 8, 16, 32})
    assert cyclotomic_coset(10, 15) == cyclotomic_coset(5, 15)
    with pytest.raises(IndexOutOfRange):
        cyclotomic_coset(15, 15)
    with pytest.raises(IndexOutOfRange):
        cyclotomic_coset(-1, 15)


def test_coset_sizes_divide_m(f6):
    for rep in {cyclotomic_coset(j, f6.n).representative for j in range(f6.n)}:
        assert f6.m % len(cyclotomic_coset(rep, f6.n).members) == 0


def test_minimal_polynomials_m4(f4):
    assert minimal_polynomial(0, f4) == 0b11  # x + 1
    assert minimal_polynomial(1, f4) == 0x13
    assert minimal_polynomial(3, f4) == 0x1F  # x^4+x^3+x^2+x+1
    assert minimal_polynomial(5, f4) == 0b111  # x^2+x+1


@pytest.mark.parametrize("m", [4, 6])
def test_minimal_polynomial_roots_and_divisibility(m, f4, f6):
    field = f4 if m == 4 else f6
    x_n_1 = (1 << field.n) | 1  # x^n - 1 over GF(2)
    total_degree = 0
    polys = []
    for rep in {cyclotomic_coset(j, field.n).representative for j in range(field.n)}:
        p = minimal_polynomial(rep, field)
        coset = cyclotomic_coset(rep, field.n)
        assert poly_degree(p) == len(coset.members)
        for j in coset.members:
            assert poly_eval(p, field.alpha_pow(j), field) == 0
        assert poly_mod(x_n_1, p) == 0
        total_degree += poly_degree(p)
        polys.append(p)
    assert total_degree == field.n
    # distinct cosets give pairwise coprime minimal polynomials
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            assert poly_gcd(polys[i], polys[j]) == 1


def test_poly_lcm(f4):
    f = 0x13
    assert poly_lcm([f, f]) == f
    assert poly_lcm([0b11, 0b10]) == 0b110  # lcm(x+1, x) = x^2+x
    m1, m3, m5 = (minimal_polynomial(i, f4) for i in (1, 3, 5))
    prod = poly_mul(poly_mul(m1, m3), m5)
    assert poly_lcm([m1, m3, m5]) == prod
    assert poly_degree(prod) == 10
    with pytest.raises(EmptyInput):
        poly_lcm([])
    with pytest.raises(ZeroPolynomial):
        poly_lcm([0x13, 0])


def test_bch_generator(f4, f6):
    assert bch_generator(2, f4) == minimal_polynomial(1, f4)
    g = bch_generator(7, f4)
    assert poly_degree(g) == 10
    assert g == poly_lcm([minimal_polynomial(i, f4) for i in (1, 3, 5)])
    g6 = bch_generator(7, f6)
    assert poly_degree(g6) == 18
    # alpha, ..., alpha^(delta-1) are roots
    for i in range(1, 7):
        assert poly_eval(g6, f6.alpha_pow(i), f6) == 0
    # g divides x^n - 1
    assert poly_mod((1 << f6.n) | 1, g6) == 0
    with pytest.raises(InvalidDelta):
        bch_generator(1, f4)
    with pytest.raises(InvalidDelta):
        bch_generator(16, f4)


def test_poly_divmod_roundtrip():
    a, b = 0b110101110, 0b1011
    q, r = poly_divmod(a, b)
    assert poly_mul(q, b) ^ r == a
    assert poly_degree(r) < poly_degree(b)


def test_poly_str():
    assert poly_str(0x13) == "x^4 + x + 1"
    assert poly_str(0b111) == "x^2 + x + 1"
    assert poly_str(0) == "0"
    assert poly_str(1) == "1"


def test_defining_sets():
    t1 = defining_set_of_family(CodeSpec("c1", 2))
    assert t1 == frozenset({0, 1, 2, 4, 8, 3, 6, 12, 9, 5, 10})
    assert len(t1) == 11
    assert len(defining_set_of_family(CodeSpec("c1", 3))) == 19
    # c2 at s=2, l=1 has 2^l+1 = 3 and 2^s+1 = 5: same set as c1
    t2 = defining_set_of_family(CodeSpec("c2", 2, 1))
    assert t2 == t1
    # defining sets are unions of full cosets
    for spec in (CodeSpec("c1", 3), CodeSpec("c2", 3, 1), CodeSpec("c2", 3, 2)):
        t = defining_set_of_family(spec)
        n = spec.n
        assert all(cyclotomic_coset(e, n).members <= t for e in t)

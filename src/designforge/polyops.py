"""Polynomials over GF(2), 2-cyclotomic cosets, and BCH generator polynomials.

A binary polynomial is an int: bit k is the coefficient of x^k, so the
constant term is the LSB.  0 is the zero polynomial, 1 is the constant 1.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .checks import require
from .gf2m import Field, IndexOutOfRange


class EmptyInput(ValueError):
    """lcm of an empty list."""


class ZeroPolynomial(ValueError):
    """Zero polynomial where a nonzero one is required."""


class InvalidDelta(ValueError):
    """BCH designed distance outside 2..n."""


class CyclotomicCoset(NamedTuple):
    representative: int
    members: frozenset[int]


def poly_degree(p: int) -> int:
    """Degree of p; the zero polynomial gets -1."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product over GF(2)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroPolynomial("division by the zero polynomial")
    db = poly_degree(b)
    q = 0
    while poly_degree(a) >= db:
        shift = poly_degree(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def poly_mod(a: int, b: int) -> int:
    return poly_divmod(a, b)[1]


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_lcm(ps: Iterable[int]) -> int:
    """Least common multiple of nonzero binary polynomials."""
    ps = list(ps)
    if not ps:
        raise EmptyInput("lcm of an empty list")
    if any(p == 0 for p in ps):
        raise ZeroPolynomial("lcm with a zero polynomial")
    out = ps[0]
    for p in ps[1:]:
        q, r = poly_divmod(poly_mul(out, p), poly_gcd(out, p))
        require(r == 0, "lcm quotient left a remainder")
        out = q
    return out


def poly_str(p: int) -> str:
    """Human-readable monomial list, highest degree first."""
    if p == 0:
        return "0"
    terms = []
    for k in range(poly_degree(p), -1, -1):
        if (p >> k) & 1:
            terms.append("1" if k == 0 else ("x" if k == 1 else f"x^{k}"))
    return " + ".join(terms)


def cyclotomic_coset(j: int, n: int) -> CyclotomicCoset:
    """2-cyclotomic coset of j modulo n: the doubling orbit {j*2^i mod n}."""
    if not 0 <= j < n:
        raise IndexOutOfRange(f"coset seed {j} outside [0, {n})")
    members = []
    x = j
    while True:
        members.append(x)
        x = (x * 2) % n
        if x == j:
            break
    return CyclotomicCoset(min(members), frozenset(members))


def coset_representatives(n: int) -> list[int]:
    """Minimal representatives of all 2-cyclotomic cosets mod n, ascending."""
    seen = set()
    reps = []
    for j in range(n):
        if j in seen:
            continue
        c = cyclotomic_coset(j, n)
        reps.append(c.representative)
        seen |= c.members
    return reps


def minimal_polynomial(i: int, field: Field) -> int:
    """Minimal polynomial of alpha^i over GF(2): prod_{j in C_i} (x - alpha^j).

    The product is expanded over GF(2^m) and must collapse to {0,1}
    coefficients; a non-binary coefficient means broken field arithmetic.
    """
    if not 0 <= i < field.n:
        raise IndexOutOfRange(f"exponent {i} outside [0, {field.n})")
    coset = cyclotomic_coset(i, field.n)
    # coeffs[d] is the degree-d coefficient, as a field element
    coeffs = [1]
    for j in sorted(coset.members):
        root = field.alpha_pow(j)
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] ^= c
            nxt[d] ^= field.mul(root, c)
        coeffs = nxt
    require(all(c in (0, 1) for c in coeffs), "minimal polynomial did not collapse to GF(2)")
    out = 0
    for d, c in enumerate(coeffs):
        out |= c << d
    return out


def bch_generator(delta: int, field: Field) -> int:
    """Generator of the narrow-sense primitive BCH code with designed distance delta."""
    if not 2 <= delta <= field.n:
        raise InvalidDelta(f"delta {delta} outside [2, {field.n}]")
    reps = sorted({cyclotomic_coset(i, field.n).representative for i in range(1, delta)})
    return poly_lcm([minimal_polynomial(r, field) for r in reps])


def defining_set_of_family(spec) -> frozenset[int]:
    """Defining set of the extended dual for a code family, as exponents mod n:
    {0} and the cyclotomic coset of each exponent of spec.terms, so
    C1: C_1 | C_3 | C_5 | {0} and C2: C_1 | C_{2^l+1} | C_{2^s+1} | {0}."""
    n = (1 << spec.m) - 1
    out = {0}
    for e, _ in spec.terms:
        out |= cyclotomic_coset(e % n, n).members
    return frozenset(out)

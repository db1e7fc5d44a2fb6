"""References that tests compare the library against, built on its tables.

No command runs these, so they live with the tests: the BCH generator
chain behind the check that the cyclic c1 codes are duals of the
triple-error-correcting BCH codes, the quadratic-form rank behind the
value laws of the exponential sums, the span enumerator and membership
test the sweep and the orbit check are compared with, and the closed-form
t = 2 lambda of one weight class.  Unlike ref_gf2, they use designforge's
Field for field arithmetic.

A binary polynomial is an int: bit k is the coefficient of x^k, so the
constant term is the LSB.  0 is the zero polynomial, 1 is the constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from designforge import (
    CodeSpec,
    Field,
    IndexOutOfRange,
    InapplicableParameters,
    LengthMismatch,
    closed_form,
    cyclotomic_coset,
    lambda_from_identity,
)
from designforge.checks import require
from designforge.polyops import poly_degree

# -- polynomials over GF(2) and BCH generators ------------------------------------


class EmptyInput(ValueError):
    """lcm of an empty list."""


class ZeroPolynomial(ValueError):
    """Zero polynomial where a nonzero one is required."""


class InvalidDelta(ValueError):
    """BCH designed distance outside 2..n."""


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


# -- quadratic forms ------------------------------------------------------------------


class ZeroForm(ValueError):
    """Quadratic-form profile is undefined for (a, b) = (0, 0)."""


@dataclass(frozen=True)
class QuadFormProfile:
    a: int
    b: int
    rank: int
    kernel_size: int


def quadform_rank(field: Field, a: int, b: int) -> QuadFormProfile:
    """Rank of the quadratic form tr(a*x^5 + b*x^3) via its radical.

    The radical is the solution set of a^4 x^16 + b^4 x^8 + b^2 x^2 + a x = 0,
    counted exhaustively; rank = m - log2(#solutions).
    """
    if a == 0 and b == 0:
        raise ZeroForm("(a, b) = (0, 0) has no quadratic part")
    a4 = field.pow(a, 4)
    b4 = field.pow(b, 4)
    b2 = field.pow(b, 2)
    v = field.scalar_mul_vec(a4, field.power_table(16))
    v ^= field.scalar_mul_vec(b4, field.power_table(8))
    v ^= field.scalar_mul_vec(b2, field.power_table(2))
    v ^= field.scalar_mul_vec(a, field.elements_in_order())
    kernel = int((v == 0).sum())
    require(kernel & (kernel - 1) == 0, "linearized-polynomial kernel must be a power of 2")
    return QuadFormProfile(a, b, field.m - kernel.bit_length() + 1, kernel)


# -- spans ----------------------------------------------------------------------------


def membership_test(word: int, basis: list[int], length: int) -> bool:
    """True iff word lies in the span of a reduced basis."""
    if word < 0 or word.bit_length() > length:
        raise LengthMismatch(f"word has {word.bit_length()} bits, code length is {length}")
    for row in basis:
        p = (row & -row).bit_length() - 1  # the row's pivot, its lowest set bit
        if (word >> p) & 1:
            word ^= row
    return word == 0


def enumerate_span(basis: list[int]) -> Iterator[int]:
    """Yield every span word as an int in index order: the reference the
    sweep is tested against.

    Incrementing the index from i-1 to i flips exactly the trailing bits
    through bit ctz(i), so each step XORs one prefix of the basis.
    """
    prefix = []
    acc = 0
    for row in basis:
        acc ^= row
        prefix.append(acc)
    w = 0
    for i in range(1 << len(basis)):
        if i:
            w ^= prefix[((i ^ (i - 1)).bit_length()) - 1]
        yield w


# -- designs --------------------------------------------------------------------------


def theorem_lambda(spec: CodeSpec, i: int) -> int:
    """Closed-form t = 2 lambda of weight class i: the table count fed through
    the design identity (the published per-weight formulas reduce to this)."""
    dist = closed_form(spec)
    v = dist.length
    if i not in dist.entries or i in (0, v):
        raise InapplicableParameters(f"weight {i} is not a nontrivial class for {spec.label()}")
    return lambda_from_identity(dist.entries[i], i, v, 2)

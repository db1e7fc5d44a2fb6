"""Binary polynomials as text, 2-cyclotomic cosets, and defining sets.

A binary polynomial is an int: bit k is the coefficient of x^k, so the
constant term is the LSB.  0 is the zero polynomial, 1 is the constant 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .gf2m import IndexOutOfRange


class CyclotomicCoset(NamedTuple):
    representative: int
    members: frozenset[int]


def poly_degree(p: int) -> int:
    """Degree of p; the zero polynomial gets -1."""
    return p.bit_length() - 1


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


def defining_set_of_family(spec) -> frozenset[int]:
    """Defining set of the extended dual for a code family, as exponents mod n:
    {0} and the cyclotomic coset of each exponent of spec.terms, so
    C1: C_1 | C_3 | C_5 | {0} and C2: C_1 | C_{2^l+1} | C_{2^s+1} | {0}."""
    n = (1 << spec.m) - 1
    out = {0}
    for e, _ in spec.terms:
        out |= cyclotomic_coset(e % n, n).members
    return frozenset(out)

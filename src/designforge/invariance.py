"""Affine-invariance checks for the extended codes.

Two independent routes: the defining-set criterion (the set of exponents
must be downward closed under the 2-adic digit order), and an orbit check
on the generators of the affine group.  The maps x -> alpha*x and
x -> x + 1 generate AGL(1, 2^m): conjugating the translation by the j-th
power of the first gives x -> x + alpha^j, and every x -> a*x + b is a
product of these.  A coordinate permutation that maps a finite linear
code into itself maps it onto itself, so the code is affine-invariant
exactly when both generators send every basis word into the code.
"""

from __future__ import annotations

from .codebuild import CodeSpec, generator_basis, move_words, reduce_rows
from .gf2m import Field


def preceq(r: int, e: int) -> bool:
    """True iff every binary digit of r is <= the matching digit of e."""
    return r & e == r


def closure_check(exponents: set[int], m: int) -> tuple[bool, tuple[int, int] | None]:
    """Is the exponent set downward closed under the digit order?

    Closure under single-digit drops implies full downward closure, so only
    the covers of each member are tested.  On failure returns the witness
    (e, r): e in the set, r obtained from e by clearing one bit, r missing.
    """
    have = frozenset(exponents)
    for e in sorted(have):
        if not 0 <= e < (1 << m):
            raise ValueError(f"exponent {e} outside [0, 2^{m})")
        covers = sorted(e ^ (1 << i) for i in range(m) if (e >> i) & 1)
        for r in covers:
            if r not in have:
                return False, (e, r)
    return True, None


def orbit_invariant_basis(field: Field, basis: list[int]) -> bool:
    """True iff the span of basis is fixed by every affine permutation.

    Each generator x -> alpha*x, x -> x + 1 moves the bit at coordinate i
    to the coordinate of its image; permuting coordinates is linear, so
    the images of the basis words decide the whole span.  They lie in it
    exactly when adding them leaves the reduced echelon form, which is
    unique to the span, unchanged.
    """
    reduced = reduce_rows(basis)
    points = field.elements_in_order()
    # the reduced rows span the words of basis: move_words rejects them
    # exactly when a basis word is negative or longer than q
    images = [field.scalar_mul_vec(field.alpha_pow(1), points), points ^ 1]
    return all(reduce_rows(reduced + moved) == reduced for moved in move_words(field, reduced, images))


def affine_orbit_check(spec: CodeSpec, field: Field) -> bool:
    """Affine invariance of the extended code, decided on the two generators."""
    return orbit_invariant_basis(field, generator_basis(spec, field))

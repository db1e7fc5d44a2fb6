"""Affine-invariance checks for the extended codes.

Two independent routes: the defining-set criterion (the set of exponents
must be downward closed under the 2-adic digit order), and a brute-force
orbit check that applies every map x -> a*x + b to every basis codeword
and tests membership.  The orbit route is gated to m <= 6, where the full
affine group has at most 64*63 maps.
"""

from __future__ import annotations

import numpy as np

from .codebuild import CodeSpec, TooLarge, generator_basis
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

    Permuting coordinates is linear, so checking the basis words suffices
    for the whole span.
    """
    if field.m > 6:
        raise TooLarge(f"orbit check enumerates q(q-1) maps; m={field.m} > 6")
    q = field.q
    if any(row.bit_length() > q for row in basis):
        raise ValueError("basis word longer than the field size")

    # index(a*element(i) ^ b) for every map, as gather arrays
    idx_np = np.zeros(q, dtype=np.int64)
    idx_np[1:] = field.log_np[np.arange(1, q)] + 1
    elems = field.elements_in_order()
    gathers = np.empty((field.n * q, q), dtype=np.int64)
    row = 0
    for a in range(1, q):
        ax = field.scalar_mul_vec(a, elems)
        for b in range(q):
            gathers[row] = idx_np[ax ^ b]
            row += 1

    bits = np.zeros((len(basis), q), dtype=np.uint8)
    for i, word in enumerate(basis):
        raw = np.frombuffer(word.to_bytes((q + 7) // 8, "little"), dtype=np.uint8)
        bits[i] = np.unpackbits(raw, bitorder="little")[:q]

    permuted = bits[:, gathers]  # (dim, maps, q)
    flat = permuted.transpose(1, 0, 2).reshape(-1, q)
    packed = np.packbits(flat, axis=1, bitorder="little")
    padded = np.zeros((packed.shape[0], 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = padded.view(np.uint64).ravel().copy()

    for brow in basis:
        pivot = np.uint64((brow & -brow).bit_length() - 1)
        mask = (words >> pivot) & np.uint64(1)
        words ^= np.uint64(brow) * mask
    return bool(np.all(words == 0))


def affine_orbit_check(spec: CodeSpec, field: Field) -> bool:
    """Brute-force affine invariance of the extended code (m <= 6 only)."""
    return orbit_invariant_basis(field, generator_basis(spec, field))

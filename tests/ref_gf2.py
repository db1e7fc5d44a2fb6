"""Slow, table-free reference implementations used as independent oracles.

Everything here recomputes field arithmetic from the definitions (shift-
and-XOR polynomial multiplication, repeated squaring) so tests can check
the table-driven library code against a second route.
"""

from __future__ import annotations


def ref_mul(a: int, b: int, poly: int, m: int) -> int:
    """Product in GF(2)[x]/(poly) by shift-and-add reduction."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a >> m & 1:
            a ^= poly
        b >>= 1
    return out


def ref_pow(a: int, e: int, poly: int, m: int) -> int:
    out = 1
    base = a
    while e:
        if e & 1:
            out = ref_mul(out, base, poly, m)
        base = ref_mul(base, base, poly, m)
        e >>= 1
    return out


def ref_trace(x: int, poly: int, m: int, d: int | None = None) -> int:
    """Sum of the d Frobenius conjugates (d = m by default), landing in
    {0, 1}: the trace to GF(2) of an x of the subfield GF(2^d)."""
    acc = 0
    y = x
    for _ in range(m if d is None else d):
        acc ^= y
        y = ref_mul(y, y, poly, m)
    assert acc in (0, 1)
    return acc


def ref_exp_sum(a: int, b: int, c: int, poly: int, m: int) -> int:
    """Direct q-term character sum of tr(a*x^5 + b*x^3 + c*x)."""
    total = 0
    for x in range(1 << m):
        v = ref_mul(a, ref_pow(x, 5, poly, m), poly, m)
        v ^= ref_mul(b, ref_pow(x, 3, poly, m), poly, m)
        v ^= ref_mul(c, x, poly, m)
        total += 1 if ref_trace(v, poly, m) == 0 else -1
    return total


def ref_reduce_rows(rows: list[int]) -> list[int]:
    """Reduced echelon basis of the span, rows sorted by pivot (lowest set
    bit), each pivot tested and cleared by shifting the row down to it."""
    basis: dict[int, int] = {}  # pivot -> row
    for row in rows:
        for p, r in basis.items():
            if (row >> p) & 1:
                row ^= r
        if row:
            p = (row & -row).bit_length() - 1
            for p2 in list(basis):
                if (basis[p2] >> p) & 1:
                    basis[p2] ^= row
            basis[p] = row
    return [basis[p] for p in sorted(basis)]


def naive_t_design_count(blocks: list[frozenset[int]], v: int, t: int) -> dict[tuple, int]:
    """Coverage count of every t-subset, dict-based."""
    from itertools import combinations

    counts = {sub: 0 for sub in combinations(range(v), t)}
    for block in blocks:
        for sub in combinations(sorted(block), t):
            counts[sub] += 1
    return counts

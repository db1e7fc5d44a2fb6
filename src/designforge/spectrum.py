"""Weight distributions: exhaustive enumeration, closed forms, and moment checks.

Counts are exact Python ints throughout; the closed-form table evaluators
work in exact rationals and refuse to return anything that is not an
integer, which is the designed tripwire for transcription slips in the
table formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable

import numpy as np

from .checks import CheckFailed, require
from .codebuild import (
    CodeSpec,
    build_codeword,
    move_words,
    reduce_rows,
    slot_words,
    weight_histogram,
)
from .gf2m import Field


class InapplicableParameters(ValueError):
    """Closed form does not cover the requested parameters."""


class NonIntegerCount(ArithmeticError):
    """A table row evaluated to a non-integer (transcription bug tripwire)."""


class WeightCollision(ValueError):
    """Distribution cannot be extended consistently."""


class OddSum(ValueError):
    """Exponential sum must be even to convert to a weight."""


class ZeroForm(ValueError):
    """Quadratic-form profile is undefined for (a, b) = (0, 0)."""


@dataclass
class WeightDistribution:
    """Exact weight -> count map of a code."""

    entries: dict[int, int]
    length: int
    dimension: int

    def total(self) -> int:
        return sum(self.entries.values())

    def validate(self) -> None:
        require(self.total() == 1 << self.dimension, "counts must sum to 2^dimension")
        require(all(0 <= w <= self.length for w in self.entries), "weight out of range")
        require(self.entries.get(0) == 1, "exactly one zero-weight word expected")

    def weights(self) -> list[int]:
        return sorted(self.entries)

    def min_distance(self) -> int:
        return min(w for w in self.entries if w > 0)

    def to_json_obj(self) -> dict:
        return {
            "length": self.length,
            "dimension": self.dimension,
            "weights": [{"w": w, "count": str(self.entries[w])} for w in self.weights()],
        }


# -- enumeration --------------------------------------------------------------


def weight_distribution(spec: CodeSpec, field: Field, threads: int = 1) -> WeightDistribution:
    """Exact distribution of the extended code: the h = 0 words (bit 0 clear,
    as x = 0 there) and their complements, the h = 1 words.  Puncturing bit 0
    maps the h = 0 words onto the cyclic relative, keeping weights, so this is
    extend_distribution of cyclic_weight_distribution, whose enumeration
    runs over the orbits of x -> alpha x and x -> x^2 on the coefficients."""
    return extend_distribution(cyclic_weight_distribution(spec, field, threads))


def cyclic_weight_distribution(spec: CodeSpec, field: Field, threads: int = 1) -> WeightDistribution:
    """Exact distribution of the length-n cyclic relative by enumeration over
    the orbits of the group G = <x -> alpha x, x -> x^2> on the coefficient
    pairs (a, b).

    x -> alpha x sends a word w to w(alpha x), which moves the bit at each
    point alpha x to x, and the word at (a, b, c) to the word at
    (a alpha^e, b alpha^e', c alpha), with e and e' the a- and b-term
    exponents; x -> x^2 moves the bit at each point x to x^2 and sends the
    word at (a, b, c) to the word at (a^2, b^2, c^2).  Both
    keep weights and permute c, so every pair of one orbit (_orbits) has
    one multiset of weights over c: that of the coset word(a, b, 0) + L of
    the span L of the m linear words, one Walsh transform of length 2^m.
    One weight_histogram of L over the representatives' words, each
    weighted by the summed sizes of the orbits that give it, weighs each
    (a, b, c) once: 2^(d + 2m) words for a degree-d a-slot, which count
    every codeword 2^(d + 2m - dimension) times and are divided by that
    repeat.  The repeat is 1 except for c1(2) at m = 4, where 5 divides 15
    and the a-slot words span 2 dimensions, not 4: a's word depends on a
    only through its trace to GF(4).

    Both premises are required of every basis word of every slot before
    the sweep (_require_premises); each orbit's size times the order of
    its representative's stabilizer, counted apart, must be the order nm
    of G, the sizes must sum to 2^(d + m), and every count must divide by
    the repeat with the quotients summing to 2^dimension (CheckFailed).
    The premises and orbits read the extended words of slot_words, and the
    sweep their cyclic relatives, punctured at x = 0.  The swept basis has
    m <= 16 rows, so every code of a supported field runs.
    """
    n = spec.n
    slots = slot_words(spec, field)
    word_at = [_linear_words(words) for words in slots]
    _require_premises(spec, field, slots, word_at)
    dimension = len(reduce_rows([word for words in slots for word in words.values()]))
    repeats = 1 << (spec.terms[0][1] + 2 * spec.m - dimension)
    orbits = _orbits(spec)
    _require_orbit_sizes(spec, orbits)
    cosets: dict[int, int] = {}
    for la, lb, size in orbits:
        a, b = (0 if log is None else field.alpha_pow(log) for log in (la, lb))
        word = (word_at[0](a) ^ word_at[1](b)) >> 1
        cosets[word] = cosets.get(word, 0) + size
    counts = weight_histogram([word >> 1 for word in slots[-1].values()], n, threads, cosets)
    require(
        all(c % repeats == 0 for c in counts.values()),
        f"a count is not a multiple of {repeats}, the times the orbits count each word",
    )
    dist = WeightDistribution({w: c // repeats for w, c in counts.items()}, n, dimension)
    dist.validate()
    return dist


def _require_premises(
    spec: CodeSpec, field: Field, slots: list[dict[int, int]], word_at: list[Callable[[int], int]]
) -> None:
    """Require, for each basis element coef of each slot (e, d) of
    spec.terms, that x -> alpha x sends its word, slots[slot][coef], to the
    word at coef * alpha^e, and then that x -> x^2 sends it to the word at
    coef^2.

    These are the words the orbits weigh: those of the slots' basis
    elements, and every other coefficient's as their sum (_linear_words).
    Both maps are GF(2)-linear in the coefficient, so a premise that holds
    on a basis holds on the whole slot.
    """
    points = field.elements_in_order()
    basis = [(slot, coef) for slot, words in enumerate(slots) for coef in words]
    words = [slots[slot][coef] for slot, coef in basis]
    steps = [field.alpha_pow(e) for e, _ in spec.terms]
    maps = (
        # the word at x after x -> alpha x is the bit at alpha x: each bit
        # moves from alpha x to x
        ("x -> alpha x", field.scalar_mul_vec(field.alpha_pow(-1), points),
         [field.mul(coef, steps[slot]) for slot, coef in basis]),
        ("x -> x^2", field.power_table(2), [field.mul(coef, coef) for _, coef in basis]),
    )
    moved_by = move_words(field, words, [image for _, image, _ in maps])
    for (name, _, targets), moved in zip(maps, moved_by):
        for (slot, coef), target, word in zip(basis, targets, moved):
            if word != word_at[slot](target):
                raise CheckFailed(
                    f"{name} does not send the word at {'abc'[slot]} = {coef:#x} to the one at {target:#x}"
                )


def _orbits(spec: CodeSpec) -> list[tuple[int | None, int | None, int]]:
    """(log a, log b, size) of one pair (a, b) of each orbit of G on the
    pairs of the a- and b-slots, with None the log of a zero coefficient.

    G acts on logs by L -> 2^i L + j (e, e'), i mod m and j mod n.  With
    g = gcd(e, n), the maps x -> alpha^j x move log a by the multiples of
    g, so the a-orbits are the residues of log a mod g under doubling that
    are logs of the a-slot (multiples of n / (2^d - 1)), n / g logs each.
    The stabilizer of a representative la moves log b by j e' for the j
    with j e = 0 (mod n), the multiples of h = gcd(n, (n / g) e'), and,
    for each i whose j e = la (1 - 2^i) (mod n) solves, by lb -> 2^i lb +
    j e' (mod h); so the orbit of (la, lb) is the a-orbit times n / h times
    the orbit of lb mod h under those maps.  At a = 0 log b is taken mod
    gcd(e', n) and doubled.
    """
    n, m = spec.n, spec.m
    (e, d), (e2, _), _ = spec.terms
    g = gcd(e, n)
    slot_step = n // ((1 << d) - 1)
    require(g % slot_step == 0, f"alpha^{e} does not lie in GF(2^{d})")
    doubling = [(1 << i, 0) for i in range(m)]
    h = gcd(e2, n)
    orbits = [(None, None, 1)] + [(None, lb, n // h * size) for lb, size in _affine_orbits(h, doubling)]
    for la, size in _affine_orbits(g, doubling):
        if la % slot_step:
            continue  # not the log of an a-slot coefficient
        a_size = n // g * size
        orbits.append((la, None, a_size))
        h = gcd(n, n // g * e2)
        twists = []
        for i in range(m):
            rhs = la * (1 - (1 << i)) % n
            if rhs % g == 0:
                j = rhs // g * pow(e // g, -1, n // g)
                twists.append((1 << i, j * e2))
        orbits += [(la, lb, a_size * (n // h) * size) for lb, size in _affine_orbits(h, twists)]
    return orbits


def _affine_orbits(h: int, maps: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """(least element, size) of each orbit on the integers mod h of a group
    given by all its maps x -> mul x + add (mod h)."""
    x = np.arange(h, dtype=np.int64)
    least = np.min([(mul % h * x + add % h) % h for mul, add in maps], axis=0)
    sizes = np.bincount(least, minlength=h)
    reps = np.flatnonzero(sizes)
    return list(zip(reps.tolist(), sizes[reps].tolist()))


def _require_orbit_sizes(spec: CodeSpec, orbits: list[tuple[int | None, int | None, int]]) -> None:
    """Require that the orbit sizes sum to 2^(d + m), the pairs (a, b), and
    that each size times the order of its representative's stabilizer is
    nm, the order of G on logs, that order counted by every (i, j) of
    Z_m x Z_n with 2^i L + j (e, e') = L, not by _orbits' route."""
    n, m = spec.n, spec.m
    (e, d), (e2, _), _ = spec.terms
    require(sum(size for *_, size in orbits) == 1 << (d + m), f"the orbit sizes do not sum to 2^{d + m}")
    # (2^i - 1, j) of every (i, j), then of those fixing each log a
    shift = np.repeat((1 << np.arange(m, dtype=np.int64)) - 1, n)
    j = np.tile(np.arange(n, dtype=np.int64), m)
    by_a: dict[int | None, list[tuple[int | None, int]]] = {}
    for la, lb, size in orbits:
        by_a.setdefault(la, []).append((lb, size))
    for la, reps in by_a.items():
        fixing_a = slice(None) if la is None else (shift * la + j * e) % n == 0
        shift_a, j_a = shift[fixing_a], j[fixing_a]
        lbs = np.array([lb or 0 for lb, _ in reps], dtype=np.int64)[:, None]
        # at most 2^20 pairs (log b, (i, j)) at once
        rows = max(1, (1 << 20) // len(j_a))
        fixing = np.concatenate([
            np.count_nonzero((shift_a * lbs[k : k + rows] + j_a * e2) % n == 0, axis=1)
            for k in range(0, len(lbs), rows)
        ])
        stabilizer = np.where([lb is None for lb, _ in reps], len(j_a), fixing).tolist()
        wrong = [(la, lb) for (lb, size), order in zip(reps, stabilizer) if size * order != n * m]
        require(not wrong, f"the orbits of (log a, log b) in {wrong[:3]} do not have nm / |stabilizer| pairs")


def _linear_words(words: dict[int, int]) -> Callable[[int], int]:
    """The map coef -> word of one slot, by linearity from the words of its
    basis elements, for every coefficient the slot holds (CheckFailed else)."""
    rows: dict[int, tuple[int, int]] = {}  # bit length of coef -> (coef, word)

    def reduce(coef: int, word: int) -> tuple[int, int]:
        while row := rows.get(coef.bit_length()):
            coef, word = coef ^ row[0], word ^ row[1]
        return coef, word

    for coef, word in words.items():
        coef, word = reduce(coef, word)
        if coef:
            rows[coef.bit_length()] = (coef, word)

    def word_at(coef: int) -> int:
        rest, word = reduce(coef, 0)
        if rest:
            raise CheckFailed(f"{coef:#x} is not in the span of the slot's basis")
        return word

    return word_at


# -- closed forms ---------------------------------------------------------------


def _p2(e: int) -> Fraction:
    """2^e as an exact rational, negative e allowed."""
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def _as_count(x: Fraction, row: str) -> int:
    if x.denominator != 1:
        raise NonIntegerCount(f"row {row}: {x} is not an integer")
    if x < 0:
        raise NonIntegerCount(f"row {row}: {x} is negative")
    return int(x)


def _build(rows: list[tuple[int, Fraction]], length: int, dimension: int) -> WeightDistribution:
    """The distribution of the table's (weight, count) rows; a weight that two
    rows write is a transcription slip and raises InapplicableParameters."""
    entries = {}
    seen = set()
    for w, count in rows:
        if not 0 < w <= length:
            raise InapplicableParameters(f"weight {w} outside (0, {length}]")
        if w in seen:
            raise InapplicableParameters(f"weight {w} produced by two rows")
        seen.add(w)
        c = _as_count(count, f"weight {w}")
        if c:
            entries[w] = c
    entries[0] = 1
    dist = WeightDistribution(entries, length, dimension)
    dist.validate()
    return dist


def closed_form_c1(s: int) -> WeightDistribution:
    """Closed-form distribution of the extended c1 code, s >= 3."""
    if s < 3:
        raise InapplicableParameters(f"closed form for family c1 needs s >= 3, got {s}")
    w0 = 1 << (2 * s - 1)
    rows = [
        (w0, _p2(6 * s - 5) * 29 - _p2(4 * s - 5) * 33 + _p2(2 * s - 3) * 17 - 2),
        (1 << (2 * s), Fraction(1)),
    ]
    mid = Fraction(2, 15) * _p2(2 * s) * (3 * _p2(4 * s) + 5 * _p2(2 * s) - 8)
    rows.append((w0 - (1 << (s - 1)), mid))
    rows.append((w0 + (1 << (s - 1)), mid))
    outer = Fraction(7, 3) * _p2(4 * s - 4) * (_p2(2 * s) - 1)
    rows.append((w0 - (1 << s), outer))
    rows.append((w0 + (1 << s), outer))
    tail = Fraction(1, 15) * _p2(2 * s - 4) * (_p2(4 * s - 2) - 5 * _p2(2 * s - 2) + 1)
    rows.append((w0 - (1 << (s + 1)), tail))
    rows.append((w0 + (1 << (s + 1)), tail))
    return _build(rows, 1 << (2 * s), 6 * s + 1)


def closed_form(spec: CodeSpec) -> WeightDistribution:
    """Closed-form distribution of the extended code of either family."""
    if spec.family == "c1":
        return closed_form_c1(spec.s)
    return closed_form_c2_extended(spec.s, spec.l)


def closed_form_c2_extended(s: int, l: int) -> WeightDistribution:
    """Closed-form distribution of the extended c2 code, split on d' = d vs 2d."""
    spec = CodeSpec("c2", s, l)
    d, dp = spec.d, spec.dprime
    w0 = 1 << (2 * s - 1)
    rows = [(1 << (2 * s), Fraction(1))]
    if dp == d:
        k_term = (
            _p2(2 * (s + d)) - _p2(2 * s + d) - _p2(2 * s) + _p2(s + 2 * d) - _p2(s + d) + _p2(2 * d)
        )
        inner = _p2(2 * s) * (_p2(s) - 1) * k_term / (_p2(2 * d) - 1)
        rows.append((w0 - (1 << (s - 1)), inner))
        rows.append((w0 + (1 << (s - 1)), inner))
        outer = _p2(2 * (s - d)) * (_p2(s + d) - 1) * (_p2(2 * s) - 1) / (_p2(2 * d) - 1)
        rows.append((w0 - (1 << (s + d - 1)), outer))
        rows.append((w0 + (1 << (s + d - 1)), outer))
        rows.append((w0, 2 * (_p2(3 * s - d) - _p2(2 * (s - d)) + 1) * (_p2(2 * s) - 1)))
    elif dp == 2 * d:
        j_term = _p2(2 * s) - _p2(2 * (s - d)) - _p2(2 * s - 3 * d) + _p2(s) - _p2(s - d) + 1
        den = (_p2(2 * d) - 1) * (_p2(d) + 1)
        inner = _p2(2 * s + 3 * d) * (_p2(s) - 1) * j_term / den
        rows.append((w0 - (1 << (s - 1)), inner))
        rows.append((w0 + (1 << (s - 1)), inner))
        mid = (
            _p2(2 * s - d)
            * (_p2(2 * s) - 1)
            * (_p2(s) + _p2(s - d) + _p2(s - 2 * d) + 1)
            / (_p2(d) + 1) ** 2
        )
        rows.append((w0 - (1 << (s + d - 1)), mid))
        rows.append((w0 + (1 << (s + d - 1)), mid))
        rows.append((w0, 2 * (_p2(2 * s) - 1) * _c2_center_term(s, d)))
        outer = _p2(2 * s - 4 * d) * (_p2(s - d) - 1) * (_p2(2 * s) - 1) / den
        rows.append((w0 - (1 << (s + 2 * d - 1)), outer))
        rows.append((w0 + (1 << (s + 2 * d - 1)), outer))
    else:
        raise InapplicableParameters(f"d'={dp} is neither d nor 2d for (s, l)=({s}, {l})")
    return _build(rows, 1 << (2 * s), 5 * s + 1)


def _c2_center_term(s: int, d: int) -> Fraction:
    return (
        _p2(3 * s - d)
        - _p2(3 * s - 2 * d)
        + _p2(3 * s - 3 * d)
        - _p2(3 * s - 4 * d)
        + _p2(3 * s - 5 * d)
        + _p2(2 * s - d)
        - _p2(2 * s - 2 * d + 1)
        + _p2(2 * s - 3 * d)
        - _p2(2 * s - 4 * d)
        + 1
    )


def closed_form_c2_cyclic(s: int, l: int) -> WeightDistribution:
    """Closed-form distribution of the length-n cyclic c2 code."""
    spec = CodeSpec("c2", s, l)
    d, dp = spec.d, spec.dprime
    w0 = 1 << (2 * s - 1)
    rows: list[tuple[int, Fraction]] = []
    if dp == d:
        k_term = (
            _p2(2 * (s + d)) - _p2(2 * s + d) - _p2(2 * s) + _p2(s + 2 * d) - _p2(s + d) + _p2(2 * d)
        )
        den = _p2(2 * d) - 1
        rows.append((w0 - (1 << (s - 1)), _p2(s - 1) * (_p2(2 * s) - 1) * k_term / den))
        rows.append((w0 + (1 << (s - 1)), _p2(s - 1) * (_p2(s) - 1) ** 2 * k_term / den))
        common = _p2(s - d - 1) * (_p2(s + d) - 1) * (_p2(2 * s) - 1) / den
        rows.append((w0 - (1 << (s + d - 1)), common * (_p2(s - d) + 1)))
        rows.append((w0 + (1 << (s + d - 1)), common * (_p2(s - d) - 1)))
        rows.append((w0, (_p2(3 * s - d) - _p2(2 * (s - d)) + 1) * (_p2(2 * s) - 1)))
    elif dp == 2 * d:
        j_term = _p2(2 * s) - _p2(2 * (s - d)) - _p2(2 * s - 3 * d) + _p2(s) - _p2(s - d) + 1
        den = (_p2(2 * d) - 1) * (_p2(d) + 1)
        rows.append((w0 - (1 << (s - 1)), _p2(s + 3 * d - 1) * (_p2(2 * s) - 1) * j_term / den))
        rows.append((w0 + (1 << (s - 1)), _p2(s + 3 * d - 1) * (_p2(s) - 1) ** 2 * j_term / den))
        mid = (
            _p2(s - 1)
            * (_p2(2 * s) - 1)
            * (_p2(s) + _p2(s - d) + _p2(s - 2 * d) + 1)
            / (_p2(d) + 1) ** 2
        )
        rows.append((w0 - (1 << (s + d - 1)), mid * (_p2(s - d) + 1)))
        rows.append((w0 + (1 << (s + d - 1)), mid * (_p2(s - d) - 1)))
        rows.append((w0, (_p2(2 * s) - 1) * _c2_center_term(s, d)))
        outer = _p2(s - 2 * d - 1) * (_p2(s - d) - 1) * (_p2(2 * s) - 1) / den
        rows.append((w0 - (1 << (s + 2 * d - 1)), outer * (_p2(s - 2 * d) + 1)))
        rows.append((w0 + (1 << (s + 2 * d - 1)), outer * (_p2(s - 2 * d) - 1)))
    else:
        raise InapplicableParameters(f"d'={dp} is neither d nor 2d for (s, l)=({s}, {l})")
    return _build(rows, (1 << (2 * s)) - 1, 5 * s)


def extend_distribution(dist: WeightDistribution) -> WeightDistribution:
    """Distribution of the even-weight extension on n+1 coordinates.

    Every input word of weight w contributes weight w (plain copy) and
    weight n+1-w (complement); the input must therefore have even weights
    only, or the result could not be an even-weight code.
    """
    n = dist.length
    out: dict[int, int] = {}
    for w, c in dist.entries.items():
        if w % 2 and (n + 1) % 2 == 0:
            raise WeightCollision(f"odd weight {w} cannot extend to an even-weight code")
        out[w] = out.get(w, 0) + c
        out[n + 1 - w] = out.get(n + 1 - w, 0) + c
    ext = WeightDistribution(out, n + 1, dist.dimension + 1)
    ext.validate()
    return ext


# -- exponential sums and quadratic forms ---------------------------------------


def exp_sum(field: Field, a: int, b: int, c: int) -> int:
    """S(a,b,c) = sum over all x of (-1)^tr(a*x^5 + b*x^3 + c*x), exactly:
    q minus twice the weight of the c1 word at (a, b, c)."""
    return field.q - 2 * build_codeword(CodeSpec("c1", field.s), field, a, b, c).bit_count()


def weight_from_sum(s_value: int, s: int) -> int:
    """Cyclic-word weight 2^(2s-1) - S/2 from an exponential sum."""
    if s_value % 2:
        raise OddSum(f"exponential sum {s_value} is odd")
    return (1 << (2 * s - 1)) - s_value // 2


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


# -- Pless power moments ---------------------------------------------------------


@dataclass
class PlessResult:
    ok: bool
    first_failure: tuple[int, int, int] | None = None  # (identity, 2^k B_j, expected)

    def __bool__(self) -> bool:
        return self.ok


def pless_verify(dist: WeightDistribution) -> PlessResult:
    """Check that the dual of the [n, k] code with distribution dist (n its
    length, k its dimension) has no word of weight 1..6: the first seven
    power-moment identities.

    By MacWilliams, sum_i A_i K_j(i) = 2^k B_j, with K_j the Krawtchouk
    polynomial K_j(i) = sum_h (-1)^h C(i, h) C(n - i, j - h) and B_j the
    dual's count of weight j.  Identity j + 1 requires 2^k at j = 0 and 0 at
    j = 1..6.  The power moment sum_i i^j A_i involves B_0..B_j with a
    nonzero coefficient on B_j, so both forms first fail at the same
    identity.  The check passes for the cyclic c1 codes, whose duals are
    triple-error-correcting BCH codes; the cyclic c2 codes at s >= 3 fail
    identity 6.
    """
    n, k = dist.length, dist.dimension
    for j in range(7):
        lhs = sum(
            a * sum((-1) ** h * comb(i, h) * comb(n - i, j - h) for h in range(j + 1))
            for i, a in dist.entries.items()
        )
        expected = 1 << k if j == 0 else 0
        if lhs != expected:
            return PlessResult(False, (j + 1, lhs, expected))
    return PlessResult(True)

"""Weight distributions: exhaustive enumeration, closed forms, and moment checks.

Counts are exact Python ints throughout; the closed-form table evaluators
work in exact rationals and refuse to return anything that is not an
integer, which is the designed tripwire for transcription slips in the
table formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .checks import require
from .codebuild import (
    CodeSpec,
    build_codeword,
    cyclic_generator_basis,
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
    extend_distribution of the cyclic distribution, from one cyclic sweep."""
    return extend_distribution(cyclic_weight_distribution(spec, field, threads))


def cyclic_weight_distribution(spec: CodeSpec, field: Field, threads: int = 1) -> WeightDistribution:
    """Exact distribution of the length-n cyclic relative by full enumeration."""
    basis = cyclic_generator_basis(spec, field)
    counts = weight_histogram(basis, spec.n, threads)
    dist = WeightDistribution(counts, spec.n, len(basis))
    dist.validate()
    return dist


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

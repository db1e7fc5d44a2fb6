"""Construction and enumeration of the two trace-form code families.

Extended codewords live on 2^m coordinates indexed by field elements in
the order fixed by Field.element(); cyclic relatives live on the n = 2^m-1
coordinates i <-> alpha^i.  A codeword is an int bitmask: bit i is the
value at coordinate i, so Hamming weight is int.bit_count() and the
support is the set of set bits.

Family c1 (extended):  value at x is tr(a*x^5 + b*x^3 + c*x) + h.
Family c2 (extended):  value at x is tr_s(a*x^(2^s+1)) + tr(b*x^(2^l+1) + c*x) + h,
                       with a restricted to the subfield GF(2^s).

build_codeword is the one evaluator of these forms.  Coordinate 0 is
x = 0, where every trace term vanishes, so the cyclic relative is the
h = 0 subcode punctured at coordinate 0: its word at (a, b, c) is
build_codeword(spec, field, a, b, c) >> 1, and its reduced basis is the
reduced basis of the h = 0 words shifted the same way.

Enumeration of a full code walks the span of a row-reduced basis in
lexicographic order of the coefficient index; the index space can be cut
into disjoint ranges so independent workers each sweep a slice and merge
additively, which keeps every result independent of worker count.

The sweep tabulates the span of the low basis rows limb-major, as an
(n_words, 2^kl) array of 64-bit limbs, so each high word is XORed in as
one (n_words, 1) column and the weights are popcounts summed over axis 0.
When the span holds the all-one word 1, the sweep covers only the span of
basis[:-1]: a reduced basis spans 1 exactly when its rows XOR to 1 (every
pivot coefficient is forced), and then the word at index 2^(k-1) + j is
the complement of the word at index 2^(k-1) - 1 - j, so the count of
weight w is the half-sweep count of w plus that of length - w.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import xor
from typing import Iterator

import numpy as np

from .gf2m import Field

# Above this dimension a full sweep (2^dim codewords) is refused.
MAX_ENUM_DIM = 26

# Rows of the low-half table in the split sweep: 2^16 codewords per chunk.
_LOW_BITS = 16


class CoefficientNotInSubfield(ValueError):
    """C2 coefficient a must lie in GF(2^s)."""


class LengthMismatch(ValueError):
    """Word and basis lengths disagree."""


class TooLarge(ValueError):
    """Requested exhaustive computation exceeds the supported size."""


@dataclass(frozen=True)
class CodeSpec:
    """Parameters of one code family instance.

    family "c1" takes s >= 2 and no l; family "c2" takes s >= 2 and
    1 <= l <= m-1 with l != s.  l and m-l give the same code, so l is
    canonicalized to min(l, m-l).
    """

    family: str
    s: int
    l: int | None = None

    def __post_init__(self):
        if self.family not in ("c1", "c2"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.s < 2:
            raise ValueError(f"s must be >= 2, got {self.s}")
        if self.family == "c1":
            if self.l is not None:
                raise ValueError("family c1 takes no l parameter")
        else:
            m = 2 * self.s
            if self.l is None or not 1 <= self.l <= m - 1:
                raise ValueError(f"family c2 needs 1 <= l <= {m - 1}")
            if self.l == self.s:
                raise ValueError("family c2 requires l != s")
            object.__setattr__(self, "l", min(self.l, m - self.l))

    @property
    def m(self) -> int:
        return 2 * self.s

    @property
    def length(self) -> int:
        return 1 << self.m

    @property
    def n(self) -> int:
        return self.length - 1

    @property
    def d(self) -> int:
        if self.family != "c2":
            raise ValueError("d is defined for family c2 only")
        return gcd(self.s, self.l)

    @property
    def dprime(self) -> int:
        if self.family != "c2":
            raise ValueError("d' is defined for family c2 only")
        return gcd(self.s + self.l, 2 * self.l)

    def label(self) -> str:
        if self.family == "c1":
            return f"c1(s={self.s})"
        return f"c2(s={self.s}, l={self.l})"


def _pack_bits(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


# -- the trace-form evaluator -------------------------------------------------


def build_codeword(spec: CodeSpec, field: Field, a: int, b: int, c: int, h: int = 0) -> int:
    """Extended word of spec at coefficients (a, b, c, h), bit i at x = field.element(i).

    c1: tr(a*x^5 + b*x^3 + c*x) + h
    c2: tr_s(a*x^(2^s+1)) + tr(b*x^(2^l+1) + c*x) + h, with a in GF(2^s)
    """
    if field.m != spec.m:
        raise LengthMismatch(f"field has m={field.m}, spec needs m={spec.m}")
    if spec.family == "c1":
        e_a, e_b, trace_a = 5, 3, field.trace_np
    else:
        if not field.in_subfield(a):
            raise CoefficientNotInSubfield(f"a={a:#x} is not in GF(2^{field.s})")
        e_a, e_b, trace_a = (1 << field.s) + 1, (1 << spec.l) + 1, field.sub_trace_np
    v = field.scalar_mul_vec(b, field.power_table(e_b))
    v ^= field.scalar_mul_vec(c, field.elements_in_order())
    bits = trace_a[field.scalar_mul_vec(a, field.power_table(e_a))] ^ field.trace_np[v]
    return _pack_bits(bits ^ (h & 1))


# -- GF(2) row space machinery ------------------------------------------------


def reduce_rows(rows: list[int]) -> list[int]:
    """Reduced echelon basis of the span, rows sorted by pivot (lowest set bit)."""
    basis: dict[int, int] = {}  # pivot -> row
    for row in rows:
        for p, r in basis.items():
            if (row >> p) & 1:
                row ^= r
        if row:
            p = (row & -row).bit_length() - 1
            # back-substitute into existing rows to keep the form reduced
            for p2 in list(basis):
                if (basis[p2] >> p) & 1:
                    basis[p2] ^= row
            basis[p] = row
    return [basis[p] for p in sorted(basis)]


def membership_test(word: int, basis: list[int], length: int) -> bool:
    """True iff word lies in the span of a reduced basis."""
    if word < 0 or word.bit_length() > length:
        raise LengthMismatch(f"word has {word.bit_length()} bits, code length is {length}")
    for row in basis:
        p = (row & -row).bit_length() - 1
        if (word >> p) & 1:
            word ^= row
    return word == 0


def _slot_words(spec: CodeSpec, field: Field) -> list[int]:
    """h = 0 words of every basis element of each coefficient slot a, b, c.

    Every such word has bit 0 clear: coordinate 0 is x = 0, where each
    trace term vanishes.
    """
    full = [field.alpha_pow(j) for j in range(field.m)]
    if spec.family == "c1":
        a_slot = full
    else:
        sub_gen = field.alpha_pow((1 << field.s) + 1)  # primitive element of GF(2^s)
        a_slot = [field.pow(sub_gen, j) for j in range(field.s)]
    words = [build_codeword(spec, field, a, 0, 0) for a in a_slot]
    words += [build_codeword(spec, field, 0, b, 0) for b in full]
    words += [build_codeword(spec, field, 0, 0, c) for c in full]
    return words


def generator_basis(spec: CodeSpec, field: Field) -> list[int]:
    """Row-reduced basis of the extended code; its size is the dimension.

    The spanning set is the slot words plus the all-one word (h = 1); the
    rank is always computed, never assumed from a dimension formula.
    """
    return reduce_rows(_slot_words(spec, field) + [(1 << spec.length) - 1])


def cyclic_generator_basis(spec: CodeSpec, field: Field) -> list[int]:
    """Row-reduced basis of the length-n cyclic relative.

    The cyclic code is the h = 0 subcode punctured at coordinate 0.  No
    slot word has bit 0 set, so the shift keeps every pivot in order and
    maps the reduced basis onto the reduced basis.
    """
    return [row >> 1 for row in reduce_rows(_slot_words(spec, field))]


# -- span enumeration ---------------------------------------------------------


def _span_word_at(basis: list[int], index: int) -> int:
    out = 0
    j = 0
    while index:
        if index & 1:
            out ^= basis[j]
        index >>= 1
        j += 1
    return out


def enumerate_span(basis: list[int], start: int = 0, stop: int | None = None) -> Iterator[int]:
    """Yield span words for coefficient indices [start, stop) in index order.

    Incrementing the index from i-1 to i flips exactly the trailing bits
    through bit ctz(i), so each step XORs one prefix of the basis.
    """
    k = len(basis)
    total = 1 << k
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start}, {stop}) for 2^{k} words")
    prefix = []
    acc = 0
    for row in basis:
        acc ^= row
        prefix.append(acc)
    w = _span_word_at(basis, start)
    for i in range(start, stop):
        if i > start:
            w ^= prefix[((i ^ (i - 1)).bit_length()) - 1]
        yield w


# -- vectorized weight sweep --------------------------------------------------


def _pack_row(word: int, n_words: int) -> np.ndarray:
    return np.frombuffer(word.to_bytes(8 * n_words, "little"), dtype=np.uint64)


def _low_table(basis_low: list[int], n_words: int) -> np.ndarray:
    """All 2^kl span words of the low basis slice, limb-major: column j is
    the packed word of index j, so the table has shape (n_words, 2^kl).

    Built by doubling: the words whose index has top bit j are the words
    below 2^j XORed with basis row j.
    """
    table = np.zeros((n_words, 1 << len(basis_low)), dtype=np.uint64)
    for j, row in enumerate(basis_low):
        half = 1 << j
        packed = _pack_row(row, n_words)[:, None]
        np.bitwise_xor(table[:, :half], packed, out=table[:, half : 2 * half])
    return table


def _sweep_ranges(n_high: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous slices of the high index space, at most one per core."""
    threads = max(1, min(threads, os.cpu_count() or 1, n_high))
    bounds = [n_high * i // threads for i in range(threads + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(threads)]


class _ChunkStep:
    """One worker's reusable buffers for XOR, popcount and word weights.

    Allocated in the thread that creates it, so the large buffers never
    come from a worker thread's own malloc arena.
    """

    def __init__(self, low: np.ndarray, length: int):
        self.low = low
        self.rows = np.empty_like(low)
        self.pop = np.empty(low.shape, dtype=np.uint8)
        # a weight is at most length; uint16 holds every weight below 2^16.
        # np.bincount casts to intp, so the cast goes to a buffer kept here
        # rather than to a new array per chunk.
        self.weights = np.empty(low.shape[1], dtype=np.uint16 if length < 1 << 16 else np.uint32)
        self.index = np.empty(low.shape[1], dtype=np.intp)

    def __call__(self, high_word: int) -> tuple[np.ndarray, np.ndarray]:
        """Limb-major packed words and weights of the 2^kl span words over
        one high word: word j is rows[:, j].

        Both arrays are overwritten by the next call.
        """
        np.bitwise_xor(self.low, _pack_row(high_word, len(self.low))[:, None], out=self.rows)
        np.bitwise_count(self.rows, out=self.pop)
        np.sum(self.pop, axis=0, dtype=self.weights.dtype, out=self.weights)
        np.copyto(self.index, self.weights)
        return self.rows, self.index


def _require_enumerable(basis: list[int]) -> None:
    if len(basis) > MAX_ENUM_DIM:
        raise TooLarge(f"dimension {len(basis)} exceeds the enumeration cap {MAX_ENUM_DIM}")


def _split_basis(basis: list[int], length: int) -> tuple[np.ndarray, list[int]]:
    """Tabulated low half and streamed high half of a reduced basis."""
    kl = min(len(basis), _LOW_BITS)
    return _low_table(basis[:kl], (length + 63) // 64), basis[kl:]


def _sweep(
    basis: list[int], length: int, threads: int, caps: dict[int, int], folded: bool
) -> tuple[np.ndarray, dict[int, list[np.ndarray]]]:
    """Weight counts over the span of basis, and the words of each capped weight.

    The second result maps a weight to its limb-major (n_words, count) word
    chunks in index order.  Each capped weight has a key with a running
    count, shared by the workers under a lock; the key's words are dropped
    as soon as the count passes its cap.  The key of weight w is w, or with
    folded min(w, length - w): each swept word then also stands for its
    complement, so w and length - w share a count capped by the larger of
    their caps (half the cap for the self-complementary weight, whose words
    count twice).
    """

    def key_of(w: int) -> int:
        return min(w, length - w) if folded else w

    key_caps: dict[int, int] = {}
    for w, cap in caps.items():
        cap = cap // 2 if folded and 2 * w == length else cap
        key_caps[key_of(w)] = max(key_caps.get(key_of(w), -1), cap)
    low, high_basis = _split_basis(basis, length)
    ranges = _sweep_ranges(1 << len(high_basis), threads)
    steps = [_ChunkStep(low, length) for _ in ranges]
    lock = threading.Lock()
    running: dict[int, int] = {}
    dropped: set[int] = set()

    def run(i: int) -> tuple[np.ndarray, dict[int, list[np.ndarray]]]:
        counts = np.zeros(length + 1, dtype=np.int64)
        parts: dict[int, list[np.ndarray]] = {}
        step = steps[i]
        for high_word in enumerate_span(high_basis, *ranges[i]):
            rows, weights = step(high_word)
            chunk_counts = np.bincount(weights, minlength=length + 1)
            counts += chunk_counts
            for w in np.flatnonzero(chunk_counts).tolist():
                key = key_of(w)
                if key not in key_caps:
                    continue
                with lock:
                    running[key] = running.get(key, 0) + int(chunk_counts[w])
                    if running[key] > key_caps[key]:
                        dropped.add(key)
                    live = key not in dropped
                if live:
                    parts.setdefault(w, []).append(rows[:, weights == w])
                else:
                    parts.pop(w, None)
        return counts, parts

    if len(ranges) == 1:
        results = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            results = list(pool.map(run, range(len(ranges))))
    chunks: dict[int, list[np.ndarray]] = {}
    for _, parts in results:
        for w, part in parts.items():
            chunks.setdefault(w, []).extend(part)
    return np.sum([counts for counts, _ in results], axis=0), chunks


def _stack(direct: list[np.ndarray], flipped: list[np.ndarray], ones: np.ndarray) -> np.ndarray:
    """(count, n_words) words: those of the limb-major chunks direct in order,
    then the complements of those of flipped in reverse order."""
    out = np.empty((sum(p.shape[1] for p in direct + flipped), len(ones)), dtype=np.uint64)
    i = 0
    for p in direct:
        out[i : i + p.shape[1]] = p.T
        i += p.shape[1]
    for p in reversed(flipped):
        np.bitwise_xor(p.T[::-1], ones, out=out[i : i + p.shape[1]])
        i += p.shape[1]
    return out


def weight_histogram(
    basis: list[int], length: int, threads: int = 1, keep: dict[int, int] | None = None
) -> dict[int, int] | tuple[dict[int, int], dict[int, np.ndarray]]:
    """Exact weight -> count map over the full span of a reduced basis.

    The sweep splits the basis into a tabulated low half and a streamed
    high half; each high word XORs against the low table and the weights
    are popcounted in bulk.  Results are identical for any thread count.

    When the span holds the all-one word, only the span of basis[:-1] is
    swept and count[w] = half[w] + half[length - w] (see the module
    docstring).

    keep maps a weight to a row cap.  The packed rows of each such weight
    are collected during the same sweep, in coefficient-index order, and
    a class is dropped as soon as its count passes its cap, so at most cap
    rows of it are ever held (with the half sweep, a class and its
    complement share one count and the larger of their caps).  With keep
    the result is (hist, kept), where kept maps every weight that occurs
    and stays within its cap to a (count, n_words) uint64 array of its
    words.
    """
    _require_enumerable(basis)
    ones = (1 << length) - 1
    folded = bool(basis) and reduce(xor, basis) == ones
    caps = keep or {}
    counts, chunks = _sweep(basis[:-1] if folded else basis, length, threads, caps, folded)
    if folded:
        counts = counts + counts[::-1]
    hist = {int(w): int(c) for w, c in enumerate(counts) if c}
    if keep is None:
        return hist
    packed_ones = _pack_row(ones, (length + 63) // 64)
    kept = {}
    for w in sorted(caps):
        if not 0 < hist.get(w, 0) <= caps[w]:
            continue
        if folded and length - w in kept:
            kept[w] = np.bitwise_xor(kept[length - w][::-1], packed_ones)
            continue
        # the chunks are freed here: a kept complement class is derived from this one
        direct = chunks.pop(w, [])
        if not folded:
            flipped = []
        elif 2 * w == length:
            flipped = direct
        else:
            flipped = chunks.pop(length - w, [])
        kept[w] = _stack(direct, flipped, packed_ones)
    return hist, kept


def stream_weight_class(basis: list[int], length: int, weight: int) -> Iterator[np.ndarray]:
    """Stream all span words of one weight as packed-uint64 row chunks."""
    _require_enumerable(basis)
    low, high_basis = _split_basis(basis, length)
    step = _ChunkStep(low, length)
    for high_word in enumerate_span(high_basis):
        rows, weights = step(high_word)
        mask = weights == weight
        if mask.any():
            yield rows[:, mask].T


def packed_rows_to_ints(rows: np.ndarray) -> list[int]:
    """Packed uint64 rows as int bitmasks (bit i = coordinate i)."""
    if rows.shape[1] == 1:
        return rows[:, 0].tolist()
    raw = memoryview(rows.tobytes())
    step = 8 * rows.shape[1]
    return [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]

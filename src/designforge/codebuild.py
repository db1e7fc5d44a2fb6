"""Construction and enumeration of the two trace-form code families.

Extended codewords live on 2^m coordinates indexed by field elements in
the order fixed by Field.element(); cyclic relatives live on the n = 2^m-1
coordinates i <-> alpha^i.  A codeword is an int bitmask: bit i is the
value at coordinate i, so Hamming weight is int.bit_count() and the
support is the set of set bits.

Family c1 (extended):  value at x is tr(a*x^5 + b*x^3 + c*x) + h.
Family c2 (extended):  value at x is tr_s(a*x^(2^s+1)) + tr(b*x^(2^l+1) + c*x) + h,
                       with a restricted to the subfield GF(2^s).

build_codeword is the one evaluator of these forms, and it, slot_words,
the orbits of spectrum.cyclic_weight_distribution and
polyops.defining_set_of_family read them from one table, CodeSpec.terms.
Coordinate 0 is x = 0, where every trace term vanishes, so the cyclic
relative is the h = 0 subcode punctured at coordinate 0: its word at
(a, b, c) is build_codeword(spec, field, a, b, c) >> 1, and its basis is
h0_basis shifted the same way.

Enumeration walks the span of a basis in lexicographic order of the
coefficient index, over each of the coset words it is given, its words
held only as packed uint64 rows; workers sweep disjoint runs of batches
and merge additively, so every result is independent of worker count.
pack_words, packed_rows_to_ints, unpack_rows, bits_to_ints, row_weights,
holds_point and move_words are the only code that knows the bit layout;
move_words is also the one routine that moves words by a map of the field.

The sweep never builds a word to weigh it.  The weight of the word at
index c is (length - S(c))/2 with S(c) = sum_i (-1)^(c . g_i), where g_i
is column i of the basis.  h0_basis leads with the m words tr(alpha^j x),
whose columns are the coordinates of the points x, all distinct; so for a
fixed word of the a- and b-rows the weights of all 2^m words of its coset
of the linear part are one Walsh-Hadamard transform of length 2^m, the
exponential sum over c of the paper.  The sweep takes only such bases:
one whose leading rows repeat a column is refused.  Each batch transforms
2^(17 - m) such cosets at once: its input is a sign table of their
words, the span of the batch rows or the coset words weight_histogram is
given (the orbit representatives' words of a spectrum), and the +-1 bits
of one high word scale the columns of the first of two Sylvester factors
of order about 2^(m/2) (see _SweepTables).  The transform runs in
float32, exact at every length the sweep takes (at most 2^16), and gives
2w - length for a word of weight w.  Each worker counts a batch by one
bincount of the weights, each coset word's in its own bins, times that
word's multiplicity.  weight_histogram only counts; stream_weight_class
is the one path that builds words: for each batch, those of each group of
listed weights, straight from the packed tables of the transform and
batch rows' spans and the batch's high word.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
from typing import Iterable, Iterator

import numpy as np

from .checks import require
from .gf2m import Field

# Above this dimension a full sweep (2^dim codewords) is refused.
MAX_ENUM_DIM = 26

# Index bits of one transform batch: a batch is at most 2^17 words, and
# each stacked product of its transform at most 2^17 multiply-adds.  On 2
# cores a batch of 2^16 spends as long handing the interpreter lock to and
# from each numpy call as in the call, so a second worker gained nothing.
_BATCH_BITS = 17

# At most 16 transform rows lead a basis, and they hold at most 2^16
# distinct columns: a longer basis cannot lead with distinct columns (see
# _SweepTables).
_MAX_LENGTH = 1 << (_BATCH_BITS & ~1)

# Words a gather builds at once: a group with more words in a batch is
# built a run of this many batch indices at a time.
_GATHER_ROWS = 1 << 13


class CoefficientNotInSubfield(ValueError):
    """C2 coefficient a must lie in GF(2^s)."""


class CoefficientOutOfRange(ValueError):
    """A coefficient is not a field element, an int in 0..q-1."""


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

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """(e, d) of each term tr_d(coef * x^e), in coefficient order a, b, c,
        a degree-d coefficient lying in GF(2^d); the last is the linear term."""
        if self.family == "c1":
            return (5, self.m), (3, self.m), (1, self.m)
        return ((1 << self.s) + 1, self.s), ((1 << self.l) + 1, self.m), (1, self.m)

    def label(self) -> str:
        if self.family == "c1":
            return f"c1(s={self.s})"
        return f"c2(s={self.s}, l={self.l})"


# -- the trace-form evaluator -------------------------------------------------


def build_codeword(spec: CodeSpec, field: Field, a: int, b: int, c: int, h: int = 0) -> int:
    """Extended word of spec at (a, b, c, h), bit i at x = field.element(i): h plus
    tr_d(coef * x^e) over spec.terms; CoefficientOutOfRange if a coefficient
    is not in 0..q-1, CoefficientNotInSubfield if coef is not in GF(2^d)."""
    if field.m != spec.m:
        raise LengthMismatch(f"field has m={field.m}, spec needs m={spec.m}")
    for name, coef in zip("abc", (a, b, c)):
        if not 0 <= coef < field.q:
            raise CoefficientOutOfRange(f"{name}={coef} is not in 0..{field.q - 1}")
    bits = np.full(field.q, h & 1, dtype=np.uint8)
    for name, coef, (e, d) in zip("abc", (a, b, c), spec.terms):
        if d < field.m and not field.in_subfield(coef):
            raise CoefficientNotInSubfield(f"{name}={coef:#x} is not in GF(2^{d})")
        if coef:  # a zero coefficient adds the zero word
            trace = field.trace_np if d == field.m else field.sub_trace_np
            bits ^= trace[field.scalar_mul_vec(coef, field.power_table(e))]
    return bits_to_ints(bits[None])[0]


# -- GF(2) row space machinery ------------------------------------------------


def _pivot(row: int) -> int:
    """Lowest set bit of a nonzero row."""
    return (row & -row).bit_length() - 1


def reduce_rows(rows: list[int]) -> list[int]:
    """Reduced echelon basis of the span, rows sorted by pivot (lowest set bit)."""
    basis: dict[int, int] = {}  # pivot -> row
    for row in rows:
        for p, r in basis.items():
            if (row >> p) & 1:
                row ^= r
        if row:
            p = _pivot(row)
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
        p = _pivot(row)
        if (word >> p) & 1:
            word ^= row
    return word == 0


def slot_words(spec: CodeSpec, field: Field) -> list[dict[int, int]]:
    """For each coefficient slot of spec.terms, the h = 0 word at each
    element of the slot's basis, keyed by that element, in order: for a
    degree-d slot, the powers below d of alpha^((q-1)/(2^d-1)), a primitive
    element of GF(2^d).  Every such word has bit 0 clear: coordinate 0 is
    x = 0, where each trace term vanishes."""
    slots = []
    for slot, (_, d) in enumerate(spec.terms):
        words = {}
        for j in range(d):
            coefs = [0, 0, 0]
            coefs[slot] = field.alpha_pow(j * (field.n // ((1 << d) - 1)))
            words[coefs[slot]] = build_codeword(spec, field, *coefs)
        slots.append(words)
    return slots


def linear_first(slots: list[dict[int, int]]) -> list[int]:
    """Basis of the span of the words of slot_words slots: the words of the
    last slot, the linear term tr(c x), then the rows of the reduced basis
    of the whole span whose pivots the linear part lacks.

    The linear words at the basis elements alpha^j, j < m, hold at
    coordinate x the coordinates of x in the trace-dual basis, distinct for
    every x, which is what the sweep transforms over (see _SweepTables).
    The pivots of a subspace are among those of the space, so the rows
    kept after the linear part complete it to a basis.
    """
    linear = list(slots[-1].values())
    pivots = {_pivot(row) for row in reduce_rows(linear)}
    words = [word for words in slots for word in words.values()]
    return linear + [row for row in reduce_rows(words) if _pivot(row) not in pivots]


def h0_basis(spec: CodeSpec, field: Field) -> list[int]:
    """Basis of the h = 0 subcode of the extended code: linear_first of its
    slot_words.  generator_basis and cyclic_generator_basis are the two
    views of this one basis.
    """
    return linear_first(slot_words(spec, field))


def generator_basis(spec: CodeSpec, field: Field) -> list[int]:
    """Row-reduced basis of the extended code; its size is the dimension.

    The h = 0 basis plus the all-one word (h = 1), reduced; the rank is
    always computed, never assumed from a dimension formula.
    """
    return reduce_rows(h0_basis(spec, field) + [(1 << spec.length) - 1])


def cyclic_generator_basis(spec: CodeSpec, field: Field) -> list[int]:
    """Basis of the length-n cyclic relative: the h = 0 basis shifted right
    by one, in the same row order.

    The cyclic code is the h = 0 subcode punctured at coordinate 0.  No
    h = 0 word has bit 0 set, so the shift keeps the rows independent; the
    leading m rows still hold distinct columns, now at the n nonzero points.
    """
    return [row >> 1 for row in h0_basis(spec, field)]


# -- span enumeration ---------------------------------------------------------


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


# -- transform weight sweep ---------------------------------------------------


def pack_words(words: Iterable[int], length: int) -> np.ndarray:
    """Int words of the given length as (count, n_words) uint64 rows:
    limb j holds bits 64j..64j+63.  words is read once; at one limb it
    goes straight into the array, at more as a transient list of bytes.

    ValueError on a negative word or one with a bit at or past length.
    """
    n_words = (length + 63) // 64
    try:
        if n_words == 1:
            rows = np.fromiter(words, dtype=np.uint64).reshape(-1, 1)
        else:
            buf = b"".join(w.to_bytes(8 * n_words, "little") for w in words)
            rows = np.frombuffer(buf, dtype=np.uint64).reshape(-1, n_words)
    except OverflowError:
        raise ValueError(f"a word is negative or has a point >= v = {length}") from None
    if length % 64 and (rows[:, -1] >> np.uint64(length % 64)).any():
        raise ValueError(f"a word has a point >= v = {length}")
    return rows


def row_weights(rows: np.ndarray) -> np.ndarray:
    """Weight of each packed row, summed in uint64: bitwise_count alone
    gives uint8, which wraps at weight 256."""
    limbs = np.bitwise_count(rows)
    sizes = limbs[:, 0].astype(np.uint64)
    # one column add per limb: a reduction along the short axis is slower
    for j in range(1, rows.shape[1]):
        sizes += limbs[:, j]
    return sizes


def unpack_rows(rows: np.ndarray, length: int) -> np.ndarray:
    """Packed uint64 rows (or one row) as 0/1 uint8 incidence rows: entry
    i of a row is bit i of its word."""
    return np.unpackbits(rows.view(np.uint8), axis=-1, count=length, bitorder="little")


def bits_to_ints(bits: np.ndarray) -> list[int]:
    """0/1 incidence rows as int bitmasks (bit i = entry i)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def move_words(field: Field, words: list[int], images: list[np.ndarray]) -> list[list[int]]:
    """The extended words moved by each map of the field onto itself, one
    list per map: the bit at each point goes to that point's image, where
    images[k][i] is the image of field.element(i) under map k.

    Each images[k] holds field elements, ints below q.  ValueError if a
    map sends two points to one or an image array does not have q
    entries, or if a word is negative or has a bit at or past q.
    """
    q = field.q
    # sources[k][i] is the coordinate whose bit map k moves to coordinate i,
    # q where none is, so every map is one gather (a scatter along the rows
    # is several times slower at q = 2^16) of one unpacking of the words;
    # the coordinate of a point y != 0 is log y + 1, and log 0 reads 0
    sources = np.full((len(images), q), q, dtype=np.intp)
    for source, image in zip(sources, images):
        source[field.log_np[image] + (image != 0)] = np.arange(q)
    if (sources == q).any():
        raise ValueError("a map sends two points to one")
    # row j * len(images) + k is word j moved by map k
    moved = bits_to_ints(np.take(unpack_rows(pack_words(words, q), q), sources.ravel(), axis=1).reshape(-1, q))
    return [moved[k :: len(images)] for k in range(len(images))]


def holds_point(rows: np.ndarray, point: int) -> np.ndarray:
    """True for each packed row whose word has a bit at point."""
    return rows[:, point >> 6] & np.uint64(1 << (point & 63)) != 0


def _span_table(basis: list[int], length: int) -> np.ndarray:
    """All 2^k span words of basis in index order: row j is the packed word
    of index j, so the table has shape (2^k, n_words).

    Built by doubling: the words whose index has top bit j are the words
    below 2^j XORed with basis row j.
    """
    rows = pack_words(basis, length)
    table = np.zeros((1 << len(basis), rows.shape[1]), dtype=np.uint64)
    for j, row in enumerate(rows):
        half = 1 << j
        np.bitwise_xor(table[:half], row, out=table[half : 2 * half])
    return table


@cache
def _hadamard(bits: int) -> np.ndarray:
    """Sylvester matrix of order 2^bits: entry (x, y) is (-1)^popcount(x & y).

    Built once per order and read-only; a sweep uses orders up to 2^8.
    """
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _sweep_ranges(n_batches: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous slices of the batch index space, at most one per core."""
    threads = max(1, min(threads, os.cpu_count() or 1, n_batches))
    bounds = [n_batches * i // threads for i in range(threads + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(threads)]


class _SweepTables:
    """Read-only tables of one sweep, shared by its workers.

    The basis splits into kt = min(k, bit length of length - 1,
    _BATCH_BITS rounded down to even) transform rows, then
    kb <= _BATCH_BITS - kt - (kt % 2) batch rows, then the high rows.  The
    sweep covers word + span for each coset word it is given, the zero
    word alone by default, per = min(number of words, 2^(_BATCH_BITS - kt
    - kt % 2 - kb)) words at a time.  Batch j takes the high word
    high[j // chunks] and the chunk j % chunks of per coset words: its word
    at local index (r * 2^kb + i) * 2^kt + c is base ^ cosets[r] ^
    offsets[i] ^ low[c], where base is that high word, cosets[r] the r-th
    word of the chunk, and offsets[i] and low[c] the span words of the
    batch and transform rows at i and c.  The high table has
    2^(k - kt - kb) <= 2^(MAX_ENUM_DIM - 16) = 1024 rows, 512 at even kt
    (4 KB for the 128 rows of length 256 in the c1(4) H0 stream, whose
    kt = 8 transform rows are followed by 512 batch-row offsets).

    Bit x of low[c] is the parity of c & col[x], where col[x] is the
    kt-bit column of the transform rows at coordinate x.  So with b_x, r_x
    and o_x the bits x of base, cosets[r] and offsets[i], the weight w of
    the word at (r * 2^kb + i) * 2^kt + c has 2w - length equal to the
    Walsh-Hadamard transform at c of F[u, (r, i)] = sum of
    (-1)^(r_x + o_x) (2b_x - 1) over the coordinates x with col[x] = u.
    The signs (-1)^o_x are this table's, each worker lays out the signs
    (-1)^r_x of its chunk, and the bits b_x come with each high word.

    The transform is two stacked products with Sylvester factors of order
    high = 2^(kt - kt // 2) and low = 2^(kt // 2), the first doubled, so
    that the bits enter as b_x - 1/2: column u = u_high * low + u_low is
    summed over u_high first, one product per u_low, so the tables hold
    column u at slot u_low * high + u_high, and each product reads a
    contiguous block of them.  The first high word is the zero word, whose
    bits scale every column by -1: its batches take one factor, minus the
    Sylvester matrix, for every u_low.

    h0_basis leads with rows whose columns are distinct, so each slot
    holds at most one coordinate: the signs are held densely by slot (zero
    at a column no coordinate has), and each batch's b_x - 1/2 scale the
    columns of the first factor.  A basis whose kt leading rows repeat a
    column is refused (ValueError) before any span table is built.

    The span table of the transform rows, low, is read only by gathers and
    built by the first, so a sweep that only counts never holds it.
    """

    def __init__(self, basis: list[int], length: int, cosets: dict[int, int] | None = None):
        # each stacked product of the transform is at most 2^(kt + kt % 2 + kb)
        # multiply-adds: OpenBLAS runs a product of at most 2^17 on the
        # calling thread, where a larger one starts its own threads inside
        # every worker
        kt = min(len(basis), (length - 1).bit_length(), _BATCH_BITS & ~1)
        kb = min(len(basis) - kt, _BATCH_BITS - kt - kt % 2)
        cols = np.zeros(length, dtype=np.intp)
        for j, row in enumerate(unpack_rows(pack_words(basis[:kt], length), length)):
            cols |= row.astype(np.intp) << j
        if np.bincount(cols).max() > 1:
            raise ValueError(f"the {kt} leading basis rows repeat a column")
        self.length = length
        self.kt = kt
        self.n_words = (length + 63) // 64
        self.transform_rows = basis[:kt]
        # the coset words, packed, and the times each is counted
        self.cosets = None if cosets is None else pack_words(cosets, length)
        self.offsets = _span_table(basis[kt : kt + kb], length)
        self.high = _span_table(basis[kt + kb :], length)
        self.multiplicity = np.array([1] if cosets is None else list(cosets.values()), dtype=np.int64)
        self.per = min(len(self.multiplicity), 1 << (_BATCH_BITS - kt - kt % 2 - kb))
        self.chunks = -(-len(self.multiplicity) // self.per)
        self.batches = len(self.high) * self.chunks
        self.h_high = 2 * _hadamard(kt - kt // 2)
        self.h_low = _hadamard(kt // 2)
        self.zero_factor = -_hadamard(kt - kt // 2)
        slots = (cols & (len(self.h_low) - 1)) * len(self.h_high) + (cols >> kt // 2)
        self.signs = np.zeros((1 << kt, 1 << kb), dtype=np.float32)
        self.signs[slots] = 1 - 2 * unpack_rows(self.offsets, length).T.astype(np.int8)
        # the coordinate of each slot, 0 where none has it
        self.first = np.zeros(1 << kt, dtype=np.intp)
        self.first[slots] = np.arange(length)
        # the first factor is symmetric, so its copy for one u_low, scaled by
        # the bits b of that u_low's slots and transposed, is the rows
        # pairs[s] + b of scaled_rows: row 2u + b is row u times b - 1/2
        high = len(self.h_high)
        self.scaled_rows = np.repeat(self.h_high, 2, axis=0) * np.tile(np.float32([-0.5, 0.5]), high)[:, None]
        self.pairs = np.tile(2 * np.arange(high), len(self.h_low))
        # a value v of coset word r of a chunk counts in bin r * (length + 1)
        # + (v + length) / 2: its weight's bin among that word's
        self.bin_starts = np.arange(self.per, dtype=np.float32)[:, None] * (length + 1) + length / 2

    @cached_property
    def low(self) -> np.ndarray:
        """The span words of the transform rows: 2^kt rows, 512 MiB at length 2^16."""
        return _span_table(self.transform_rows, self.length)


class _TransformStep:
    """One worker's buffers for the transform of a batch and its count.

    Allocated in the thread that creates it, so the batch buffers never
    come from a worker thread's own malloc arena.  The scaled copies of the
    first factor (64 MiB at kt = 16) are held only by a sweep with more
    than the zero high word.  A gather allocates only the rows it returns,
    the batch's mask and transients of at most _GATHER_ROWS rows.  Each
    coordinate adds +-1 to each transform value, so every partial sum is
    an integer of magnitude at most length <= 2^16 (require_enumerable),
    which float32 holds exactly: the transform of a word of weight w is
    exactly 2w - length.
    """

    def __init__(self, tables: _SweepTables):
        self.tables = tables
        size = tables.per * tables.signs.size
        high, low = len(tables.h_high), len(tables.h_low)
        self.bits = np.empty(len(tables.first), dtype=np.uint8)
        self.rows = np.empty(len(tables.first), dtype=np.intp)
        # the scaled first factor of each u_low, transposed; then
        # 2w - length by local index
        scaled = low * high * high if len(tables.high) > 1 else 0
        held = np.empty(max(size, scaled), dtype=np.float32)
        self.factor = held[:scaled].reshape(-1, high)
        self.centred = held[:size]
        # the first product, then half of each value
        self.inner = np.empty(size, dtype=np.float32)
        if tables.cosets is not None:
            # the signs of a chunk's coset words times those of the batch
            # rows' span, by slot
            self.signs = np.empty(size, dtype=np.float32)
        self.size = size
        self.base = tables.high[0]
        self.multiplicity = tables.multiplicity
        # this worker's running count of each weight
        self.tally = np.zeros(tables.length + 1, dtype=np.int64)

    def __call__(self, batch: int) -> None:
        """Transform batch number batch into centred.

        Overwritten by the next call.
        """
        tb = self.tables
        high, low = len(tb.h_high), len(tb.h_low)
        h, chunk = divmod(batch, tb.chunks)
        signs = tb.signs
        if tb.cosets is not None:
            words = tb.cosets[chunk * tb.per : (chunk + 1) * tb.per]
            self.multiplicity = tb.multiplicity[chunk * tb.per : (chunk + 1) * tb.per]
            # a slot no coordinate has reads coordinate 0, and its span sign 0
            bits = unpack_rows(words, tb.length)[:, tb.first].T.astype(np.int8)
            signs = self.signs[: len(words) * tb.signs.size].reshape(len(tb.first), len(words), -1)
            np.multiply(1 - 2 * bits[:, :, None], tb.signs[:, None, :], out=signs)
        n_off = signs.size >> tb.kt
        self.size = signs.size
        signs = signs.reshape(low, high, n_off)
        inner = self.inner[: self.size].reshape(low, high, n_off)
        # the high part of the column is summed first, one product per
        # u_low, then the low part into index order
        if h:
            np.take(unpack_rows(tb.high[h], tb.length), tb.first, out=self.bits)
            np.add(tb.pairs, self.bits, out=self.rows)
            # every row is in range; "raise" would take into a temporary first
            np.take(tb.scaled_rows, self.rows, axis=0, out=self.factor, mode="clip")
            np.matmul(self.factor.reshape(low, high, high).transpose(0, 2, 1), signs, out=inner)
        else:
            np.matmul(tb.zero_factor, signs, out=inner)
        centred = self.centred[: self.size]
        np.matmul(inner.transpose(1, 2, 0), tb.h_low, out=centred.reshape(-1, high, low).transpose(1, 0, 2))
        self.base = tb.high[h]

    def count(self) -> None:
        """Add the count of every weight of the last batch, times the
        multiplicity of its coset word, to tally.

        Each value is binned by its weight among those of its coset word,
        so one bincount counts the batch; the bins overwrite centred.  A
        value has the parity of length, as a sum of length terms +-1, and
        the bins cover the batch when every value lies in -length..length.
        """
        tb = self.tables
        values = self.centred[: self.size]
        require(
            -tb.length <= values.min() and values.max() <= tb.length,
            f"a transform value lies outside the weights 0..{tb.length}",
        )
        n = len(self.multiplicity)
        half = self.inner[: self.size].reshape(n, -1)
        np.multiply(values.reshape(n, -1), 0.5, out=half)
        keys = values.view(np.int32)
        np.add(half, tb.bin_starts[:n], out=keys.reshape(n, -1), casting="unsafe")
        counts = np.bincount(keys, minlength=n * (tb.length + 1)).reshape(n, -1)
        self.tally += self.multiplicity @ counts

    def gather(self, weights: tuple[int, ...]) -> np.ndarray:
        """(count, n_words) packed words of the last batch whose weight is
        listed in weights, in index order, each recounted by popcount and
        checked against them.

        The words are built straight into the returned rows, a run of batch
        indices at a time: the whole batch when it holds at most
        _GATHER_ROWS of them, else runs of _GATHER_ROWS indices.
        """
        tb = self.tables
        listed = sorted(set(weights))
        mask = np.isin(self.centred, np.float32([2 * w - tb.length for w in listed]))
        allowed = np.zeros(tb.length + 1, dtype=bool)
        allowed[listed] = True
        rows = np.empty((np.count_nonzero(mask), tb.n_words), dtype=np.uint64)
        run = len(mask) if len(rows) <= _GATHER_ROWS else _GATHER_ROWS
        done = 0
        for start in range(0, len(mask), run):
            at = np.flatnonzero(mask[start : start + run]) + start
            part = rows[done : done + len(at)]
            done += len(at)
            # every index is in range; "raise" would take into a temporary first
            np.take(tb.low, at & ((1 << tb.kt) - 1), axis=0, out=part, mode="clip")
            part ^= tb.offsets[at >> tb.kt]
            part ^= self.base
            ok = allowed[row_weights(part)]
            require(bool(ok.all()), f"a word gathered for weights {listed} has another weight")
        return rows


def require_enumerable(basis: list[int], length: int) -> None:
    """The size checks of every sweep and stream, made before any table is
    built: ValueError for a length below 1, TooLarge above the dimension
    cap or past length 2^16."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if len(basis) > MAX_ENUM_DIM:
        raise TooLarge(f"dimension {len(basis)} exceeds the enumeration cap {MAX_ENUM_DIM}")
    if length > _MAX_LENGTH:
        raise TooLarge(f"length {length} exceeds 2^16, the most coordinates 16 transform rows tell apart")


def weight_histogram(
    basis: list[int], length: int, threads: int = 1, cosets: dict[int, int] | None = None
) -> dict[int, int]:
    """Exact weight -> count map, by increasing weight, over the full span of
    a basis or, given cosets, a map {word: multiplicity} of words of the
    given length, the sum over its words of multiplicity times the map of
    word + span.

    The weights of each batch of up to 2^17 words come from Walsh-Hadamard
    transforms of signed column sums, one per coset of the transform rows'
    span, up to 2^(17 - kt) coset words at once (see _SweepTables), with no
    word built.  Workers sweep disjoint runs of batches and each keeps its
    own tally in exact integers, so the result is identical for any thread
    count.  ValueError for a multiplicity below 1 or a word outside the
    length, and TooLarge past 2^63 counted words, before any span table is
    built.
    """
    require_enumerable(basis, length)
    if cosets is not None:
        if not cosets or min(cosets.values()) < 1:
            raise ValueError("every coset word needs a multiplicity of at least 1")
        if sum(cosets.values()) << len(basis) >= 1 << 63:
            raise TooLarge("the coset words count 2^63 words or more")
    tables = _SweepTables(basis, length, cosets)
    ranges = _sweep_ranges(tables.batches, threads)
    steps = [_TransformStep(tables) for _ in ranges]

    def run(i: int) -> None:
        step = steps[i]
        for batch in range(*ranges[i]):
            step(batch)
            step.count()

    if len(ranges) == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            list(pool.map(run, range(len(ranges))))
    tally = sum(step.tally for step in steps).tolist()
    return {w: c for w, c in enumerate(tally) if c}


def stream_weight_class(
    basis: list[int], length: int, groups: tuple[tuple[int, ...], ...]
) -> Iterator[list[np.ndarray]]:
    """Stream the span words of each group of listed weights: for each
    batch, in index order, one (count, n_words) packed-uint64 array per
    group (empty where the batch has none of its words), holding that
    group's words of the batch in index order.  ValueError on the first
    next() for a length below 1, no group, an empty group or a weight
    outside 0..length, before any table is built.
    """
    require_enumerable(basis, length)
    if not groups or not all(groups):
        raise ValueError("no weight to stream")
    outside = [w for group in groups for w in group if not 0 <= w <= length]
    if outside:
        raise ValueError(f"weight {outside[0]} is outside 0..{length}")
    tables = _SweepTables(basis, length)
    step = _TransformStep(tables)
    for batch in range(tables.batches):
        step(batch)
        yield [step.gather(group) for group in groups]


def packed_rows_to_ints(rows: np.ndarray) -> list[int]:
    """Packed uint64 rows as int bitmasks (bit i = coordinate i)."""
    if rows.shape[1] == 1:
        return rows[:, 0].tolist()
    raw = memoryview(rows.tobytes())
    step = 8 * rows.shape[1]
    return [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]

"""Brute-force verification of the t-designs held by the code families.

Blocks are codeword supports.  Class w is read off the h = 0 subcode
alone: its words of weight w, and those of weight v - w complemented.
Verification counts, for every t-subset of the 2^m points, how many blocks
contain it; the class is a design exactly when that count is one constant
lambda.  One kernel counts every t-subset in lex order: the pairs are the
strict upper triangle of a Gram matrix over 0/1 block-incidence rows,
unpacked from packed chunks of blocks a slice at a time, and the t-subsets
with least point p are the (t-1)-subsets beyond p counted over the blocks
that contain p.

Enumerated lambdas are the ground truth; the closed-form lambdas derived
from the distribution tables are cross-checked against them and mismatches
are flagged, never reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Iterable, Iterator

import numpy as np

from .checks import CheckFailed, require
from .codebuild import (
    CodeSpec,
    h0_basis,
    holds_point,
    pack_words,
    packed_rows_to_ints,
    require_enumerable,
    row_weights,
    stream_weight_class,
    unpack_rows,
)
from .gf2m import Field
from .spectrum import InapplicableParameters, closed_form, weight_distribution

# A weight class is skipped (unless exhaustive is set) above this many
# t-subset increments: blocks * C(k, t).
COST_GATE = 10**9

# Blocks per counting chunk, held packed: 256 KB at v = 256.  Every
# per-chunk count is at most _CHUNK < 2^24, so the float32 Gram sums below
# are exact integers.
_CHUNK = 8192

# Packed rows unpacked and converted to float32 at a time for the Gram
# product: 1 MB at v = 256, against 2 MB as uint8 and 8 MB as float32 for
# a whole chunk's incidence rows.
_GRAM_ROWS = 1024


# H0 rows per slice in blocks_of_weight: each slice's complements and bytes
# are temporaries, 32 KB at v = 256.
_ROWS_PER_YIELD = 1024


class EmptyWeightClass(ValueError):
    """No codeword has the requested weight."""


class TrivialDesign(ValueError):
    """Block size k <= t or k = v gives a trivial design."""


class NonIntegerLambda(ArithmeticError):
    """The design identity b*C(k,t) = lambda*C(v,t) does not divide exactly."""


@dataclass
class DesignReport:
    """Outcome of one weight class."""

    t: int
    v: int
    k: int
    b: int
    lam: int | None
    verified: bool
    witness: tuple | None = None
    theorem_lambda: int | None = None
    match: bool | None = None
    skipped: bool = False

    def to_json_obj(self) -> dict:
        out = {
            "t": self.t,
            "v": self.v,
            "k": self.k,
            "b": str(self.b),
            "lambda": None if self.lam is None else str(self.lam),
            "verified": self.verified,
            "theorem_lambda": None if self.theorem_lambda is None else str(self.theorem_lambda),
            "match": self.match,
        }
        if self.skipped:
            out["skipped"] = True
        return out


def lambda_from_identity(b: int, k: int, v: int, t: int) -> int:
    """lambda = b*C(k,t)/C(v,t), exact or NonIntegerLambda."""
    num = b * comb(k, t)
    den = comb(v, t)
    lam, rem = divmod(num, den)
    if rem:
        raise NonIntegerLambda(f"b={b}, k={k}, v={v}, t={t}: {num}/{den} is not an integer")
    return lam


def _require_class(weight: int, v: int, held: bool = True) -> None:
    """The one check that weight names a nontrivial class: every codeword has
    even weight, and weight 0 and the full support v are trivial classes;
    held says whether a known distribution lists the weight."""
    if weight % 2 or not 0 < weight < v or not held:
        raise EmptyWeightClass(f"no nontrivial class at weights [{weight}]")


def _require_t(t: int) -> None:
    """The one check of t: the counting kernel covers t = 2 and 3."""
    if t not in (2, 3):
        raise ValueError(f"t must be 2 or 3, got {t}")


def _pair(weight: int, v: int) -> tuple[int, int]:
    """The H0 weights whose words make up class weight (see blocks_of_weight)."""
    return min(weight, v - weight), max(weight, v - weight)


def blocks_of_weight(
    spec: CodeSpec, field: Field, weight: int, chunks: Iterable[np.ndarray] | None = None
) -> Iterator[int]:
    """Stream the supports of all weight-i codewords as bitmask ints, for a
    nontrivial class 0 < i < v of even weight i.  Else EmptyWeightClass,
    with the message of _require_class: raised before any stream starts
    for an odd or out-of-range weight, and once the stream ends for one
    the code lacks.

    The extended code is its h = 0 subcode H0 plus the complements of H0,
    so class i is the H0 words of its pair (min(i, v-i), max(i, v-i)), each
    of weight v - i complemented.  chunks holds the pair's packed
    (count, n_words) H0 rows in index order, one chunk per batch of the
    stream, as full_design_report gathers them; by default the pair is
    streamed alone, a one-group stream over the H0 basis.
    So block j of class v - i is block j of class i complemented, and class
    v/2 gives each slice of rows, then their complements.  Distinct
    codewords of a binary code have distinct supports, and span
    enumeration never repeats a codeword, so the stream needs no dedup.
    """
    v = spec.length
    _require_class(weight, v)
    if chunks is None:
        chunks = _stream_pair(h0_basis(spec, field), v, _pair(weight, v))
    ones = pack_words([(1 << v) - 1], v)
    count = 0
    for rows in chunks:
        for i in range(0, len(rows), _ROWS_PER_YIELD):
            part = rows[i : i + _ROWS_PER_YIELD]
            if 2 * weight == v:
                blocks = [part, part ^ ones]
            else:
                blocks = [np.where((row_weights(part) != weight)[:, None], part ^ ones, part)]
            for block_rows in blocks:
                yield from packed_rows_to_ints(block_rows)
                count += len(block_rows)
    _require_class(weight, v, held=count > 0)


def _subset_counts(rows: np.ndarray, v: int, t: int, first: int = 0) -> np.ndarray:
    """Coverage of every t-subset of range(first, v) by the packed rows, in lex order.

    The pairs are the strict upper triangle of a float32 Gram matrix,
    summed over slices of _GRAM_ROWS rows unpacked and converted one at a
    time.  Its diagonal is checked against the point counts, the same
    slices summed by column with add, not by any product: every count is
    at most len(rows) < 2^24, so both are exact.  The t-subsets with least
    point p are the (t-1)-subsets beyond p counted over the rows that
    contain p.
    """
    if t > 2:
        parts = []
        for p in range(first, v - t + 1):
            parts.append(_subset_counts(rows[holds_point(rows, p)], v, t - 1, p + 1))
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    width = v - first
    gram = np.zeros((width, width), dtype=np.float32)
    product = np.empty_like(gram)
    points = np.zeros(width, dtype=np.float32)
    for i in range(0, len(rows), _GRAM_ROWS):
        bits = unpack_rows(rows[i : i + _GRAM_ROWS], v)[:, first:].astype(np.float32)
        gram += np.matmul(bits.T, bits, out=product)
        points += bits.sum(axis=0)
    require(
        np.array_equal(np.diagonal(gram), points),
        "float32 Gram diagonal disagrees with the per-point block counts",
    )
    # a temporary mask of width^2 bytes, 64 KB at v = 256: masks cached
    # between reports stayed resident, and raised the peak by up to 0.5 MB
    at = np.arange(width)
    return gram[np.less.outer(at, at)].astype(np.int64)


def _subset_at(rank: int, v: int, t: int) -> tuple[int, ...]:
    """The t-subset of range(v) at position rank in lex order."""
    out = []
    x = 0
    for left in range(t - 1, -1, -1):
        # comb(v - x - 1, left) subsets have least remaining point x
        while rank >= comb(v - x - 1, left):
            rank -= comb(v - x - 1, left)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def verify_t_design(blocks: Iterable[int], v: int, t: int, expected_b: int | None = None) -> DesignReport:
    """Count every t-subset's coverage over the block stream and test constancy.

    Returns a verified report with the constant lambda, or an unverified one
    whose witness holds two t-subsets covered a different number of times.
    The stream is read _CHUNK blocks at a time, each chunk packed as it is
    read and counted by _subset_counts a slice at a time, so besides the
    C(v, t) counts no more than one packed chunk and one slice of its
    incidence rows are held.
    Raises TrivialDesign when the block size k is at most t or equal to v
    (for k < t no t-subset is covered, so lambda = 0 says nothing), and
    CheckFailed when expected_b is given and the stream holds another
    number of blocks.
    """
    _require_t(t)
    k = None
    b = 0
    vals = np.zeros(comb(v, t), dtype=np.int64)
    blocks = iter(blocks)
    # each chunk stays packed, and is unpacked a slice at a time as it is
    # counted: no chunk's incidence rows are ever held whole
    while len(words := pack_words(islice(blocks, _CHUNK), v)):
        sizes = row_weights(words)
        if k is None:
            k = int(sizes[0])
        if not np.all(sizes == k):
            raise ValueError("blocks of unequal size in one weight class")
        b += len(words)
        vals += _subset_counts(words, v, t)

    if b == 0:
        raise EmptyWeightClass("empty block stream")
    if expected_b is not None and b != expected_b:
        raise CheckFailed(f"weight {k}: streamed {b} blocks, expected {expected_b}")
    if k <= t or k == v:
        raise TrivialDesign(f"block size {k} with t={t}, v={v} is trivial")

    # conservation: every block contributes exactly C(k, t) subset hits
    require(int(vals.sum()) == b * comb(k, t), "t-subset count conservation failed")

    lam = int(vals[0])
    if np.all(vals == lam):
        require(b * comb(k, t) == lam * comb(v, t), "design identity b*C(k,t) = lambda*C(v,t) failed")
        return DesignReport(t=t, v=v, k=k, b=b, lam=lam, verified=True)

    other = int(np.argmax(vals != lam))
    witness = ((*_subset_at(0, v, t), lam), (*_subset_at(other, v, t), int(vals[other])))
    return DesignReport(t=t, v=v, k=k, b=b, lam=None, verified=False, witness=witness)


def _stream_pair(h0: list[int], v: int, pair: tuple[int, int]) -> Iterator[np.ndarray]:
    """The packed H0 rows of one pair, a chunk per batch: a one-group stream."""
    return (rows for (rows,) in stream_weight_class(h0, v, (pair,)))


def _gather_pairs(h0: list[int], v: int, pairs: list[tuple[int, int]]) -> dict[tuple[int, int], list[np.ndarray]]:
    """The packed H0 rows of each pair, a chunk per batch in index order,
    from one stream whose groups are the pairs.  Each pair's chunks are
    those a stream of that pair alone gives, so a class's blocks come in
    one order by either route.
    """
    gathered: dict[tuple[int, int], list[np.ndarray]] = {pair: [] for pair in pairs}
    if pairs:
        for chunks in stream_weight_class(h0, v, tuple(pairs)):
            for pair, rows in zip(pairs, chunks):
                gathered[pair].append(rows)
    return gathered


def full_design_report(
    spec: CodeSpec,
    field: Field,
    t: int = 2,
    threads: int = 1,
    exhaustive: bool = False,
    weight: int | None = None,
) -> list[DesignReport]:
    """Verify every nontrivial weight class, or only the class weight,
    cross-checked against theorem lambdas (at t = 2, all read from one
    evaluation of closed_form(spec)).

    The class sizes b come from weight_distribution, the orbit sweep that
    the weights and reproduce commands run, before any word is read.  A class
    whose cost b*C(k, t) is above COST_GATE is skipped unless exhaustive
    is set.  The H0 words of every class within the gate (see
    blocks_of_weight) are gathered by one stream of the h = 0 subcode H0
    whose groups are the classes' pairs, each pair's rows built once; a
    class above the gate verified under exhaustive reads its pair from
    there when its partner v - k is within the gate, else streams it alone
    over the same H0 basis.  Weight 0 and the full-support class
    are excluded as trivial.  A weight that names no nontrivial class
    raises EmptyWeightClass: an odd or out-of-range one before any sweep,
    one the distribution lacks after the orbit sweep; a t other than 2 or 3
    raises ValueError, and an H0 above the enumeration cap TooLarge,
    before any sweep.
    """
    _require_t(t)
    v = spec.length
    if weight is not None:
        _require_class(weight, v)
    h0 = h0_basis(spec, field)
    # the orbits sweep only the m linear rows, but the gather and every stream sweep H0
    require_enumerable(h0, v)
    dist = weight_distribution(spec, field, threads)
    if weight is None:
        targets = [w for w in dist.weights() if w not in (0, v)]
    else:
        _require_class(weight, v, weight in dist.entries)
        targets = [weight]
    in_gate = {w for w in targets if dist.entries[w] * comb(w, t) <= COST_GATE}
    gathered = _gather_pairs(h0, v, sorted({_pair(w, v) for w in in_gate}))

    # every t = 2 theorem lambda comes from one closed-form table, if one covers spec
    table: dict[int, int] = {}
    if t == 2:
        try:
            table = closed_form(spec).entries
        except InapplicableParameters:
            pass
    reports = []
    for w in targets:
        b = dist.entries[w]
        theorem = lambda_from_identity(table[w], w, v, 2) if w in table else None
        if not exhaustive and w not in in_gate:
            reports.append(
                DesignReport(
                    t=t, v=v, k=w, b=b, lam=None, verified=False,
                    theorem_lambda=theorem, match=None, skipped=True,
                )
            )
            continue
        pair = _pair(w, v)
        chunks = gathered[pair] if pair in gathered else _stream_pair(h0, v, pair)
        blocks = blocks_of_weight(spec, field, w, chunks)
        report = verify_t_design(blocks, v, t, expected_b=b)
        report.theorem_lambda = theorem
        if theorem is not None and report.lam is not None:
            report.match = report.lam == theorem
        reports.append(report)
    return reports

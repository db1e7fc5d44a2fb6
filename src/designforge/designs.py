"""Brute-force verification of the t-designs held by the code families.

Blocks are codeword supports.  Class w is read off the h = 0 subcode
alone: its words of weight w, and those of weight v - w complemented.
Verification counts, for every t-subset of the 2^m points, how many blocks
contain it; the class is a design exactly when that count is one constant
lambda.  One kernel counts every t-subset in lex order: the pairs are the
strict upper triangle of a Gram matrix over 0/1 block-incidence chunks,
and the t-subsets with least point p are the (t-1)-subsets beyond p
counted over the blocks that contain p.

Enumerated lambdas are the ground truth; the closed-form lambdas derived
from the distribution tables are cross-checked against them and mismatches
are flagged, never reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb
from typing import Iterable, Iterator

import numpy as np

from .checks import CheckFailed, require
from .codebuild import (
    CodeSpec,
    h0_basis,
    pack_words,
    packed_rows_to_ints,
    row_weights,
    stream_weight_class,
    unpack_rows,
    weight_histogram,
)
from .gf2m import Field
from .spectrum import (
    InapplicableParameters,
    WeightDistribution,
    closed_form,
    extend_distribution,
)

# A weight class is skipped (unless exhaustive is set) above this many
# t-subset increments: blocks * C(k, t).
COST_GATE = 10**9

# Blocks per counting chunk.  Every per-chunk count is at most _CHUNK < 2^24,
# so the float32 Gram products below are exact integers.
_CHUNK = 8192


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


def _pair(weight: int, v: int) -> tuple[int, int]:
    """The H0 weights whose words make up class weight (see blocks_of_weight)."""
    return min(weight, v - weight), max(weight, v - weight)


def blocks_of_weight(
    spec: CodeSpec, field: Field, weight: int, chunks: Iterable[np.ndarray] | None = None
) -> Iterator[int]:
    """Stream the supports of all weight-i codewords as bitmask ints, for a
    nontrivial class 0 < i < v of even weight i (else EmptyWeightClass,
    raised before any stream starts).

    The extended code is its h = 0 subcode H0 plus the complements of H0,
    so class i is the H0 words of its pair (min(i, v-i), max(i, v-i)), each
    of weight v - i complemented.  chunks holds the pair's packed
    (count, n_words) H0 rows in index order, as a sweep kept them (see
    full_design_report); by default the pair is streamed over the H0 basis.
    So block j of class v - i is block j of class i complemented, and class
    v/2 gives each slice of rows, then their complements.  Distinct
    codewords of a binary code have distinct supports, and span
    enumeration never repeats a codeword, so the stream needs no dedup.
    """
    v = spec.length
    _require_class(weight, v)
    if chunks is None:
        chunks = stream_weight_class(h0_basis(spec, field), v, _pair(weight, v))
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
    if count == 0:
        raise EmptyWeightClass(f"no codeword of weight {weight} in {spec.label()}")


@lru_cache(maxsize=None)
def _upper_mask(w: int) -> np.ndarray:
    mask = np.triu(np.ones((w, w), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _subset_counts(bits: np.ndarray, t: int) -> np.ndarray:
    """Coverage of every t-subset of the v columns by the rows of bits, in lex order."""
    v = bits.shape[1]
    if t > 2:
        # the subsets with least point p, for p = 0, 1, ... in turn
        parts = [_subset_counts(bits[bits[:, p] == 1, p + 1 :], t - 1) for p in range(v - t + 1)]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    m = bits.astype(np.float32)
    gram = m.T @ m
    require(
        np.array_equal(np.diagonal(gram), bits.sum(axis=0, dtype=np.int32)),
        "float32 Gram diagonal disagrees with the per-point block counts",
    )
    return gram[_upper_mask(v)].astype(np.int64)


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
    Raises TrivialDesign when the block size k is at most t or equal to v
    (for k < t no t-subset is covered, so lambda = 0 says nothing), and
    CheckFailed when expected_b is given and the stream holds another
    number of blocks.
    """
    if t not in (2, 3):
        raise ValueError(f"t must be 2 or 3, got {t}")
    k = None
    b = 0
    vals = np.zeros(comb(v, t), dtype=np.int64)
    blocks = iter(blocks)
    # a chunk's ints are freed once packed, and its incidence rows are a
    # temporary: rows kept alive while the next chunk is read raised the
    # peak RSS of the c1(4) weight-96 report by 2 MB
    while len(words := pack_words(list(islice(blocks, _CHUNK)), v)):
        sizes = row_weights(words)
        if k is None:
            k = int(sizes[0])
        if not np.all(sizes == k):
            raise ValueError("blocks of unequal size in one weight class")
        b += len(words)
        vals += _subset_counts(unpack_rows(words, v), t)

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


def theorem_lambda(spec: CodeSpec, i: int) -> int:
    """Closed-form t = 2 lambda of weight class i: the table count fed through
    the design identity (the published per-weight formulas reduce to this)."""
    dist = closed_form(spec)
    v = dist.length
    if i not in dist.entries or i in (0, v):
        raise InapplicableParameters(f"weight {i} is not a nontrivial class for {spec.label()}")
    return lambda_from_identity(dist.entries[i], i, v, 2)


def _theorem_lambda(spec: CodeSpec, t: int, i: int) -> int | None:
    if t != 2:
        return None
    try:
        return theorem_lambda(spec, i)
    except InapplicableParameters:
        return None


def full_design_report(
    spec: CodeSpec,
    field: Field,
    t: int = 2,
    threads: int = 1,
    exhaustive: bool = False,
    weight: int | None = None,
) -> list[DesignReport]:
    """Verify every nontrivial weight class, or only the class weight,
    cross-checked against theorem lambdas.

    One sweep of the h = 0 subcode H0 gives the distribution and keeps the
    H0 words of each class's pair (see blocks_of_weight).  A pair's running
    count is the class size b (the pair of class v/2 lists its weight
    twice), and its cap is the larger of its classes' COST_GATE // C(k, t),
    so a class within the gate always finds its pair kept.  Classes above
    the gate are skipped unless exhaustive is set; a class whose pair was
    not kept streams it over the same H0 basis.  Weight 0 and the
    full-support class are excluded as trivial.  A weight that names no
    nontrivial class raises EmptyWeightClass: an odd or out-of-range one
    before the sweep, one the distribution lacks after it.
    """
    v = spec.length
    if weight is not None:
        _require_class(weight, v)
    h0 = h0_basis(spec, field)
    caps: dict[tuple[int, int], int] = {}
    for w in range(2, v, 2) if weight is None else [weight]:
        pair = _pair(w, v)
        # a class with k < t has no t-subsets, so its cost is 0 and its cap never binds
        caps[pair] = max(caps.get(pair, 0), COST_GATE // max(1, comb(w, t)))
    hist, kept = weight_histogram(h0, v, threads, keep=caps)
    dist = extend_distribution(WeightDistribution(hist, spec.n, len(h0)))
    if weight is None:
        targets = [w for w in dist.weights() if w not in (0, v)]
    else:
        _require_class(weight, v, weight in dist.entries)
        targets = [weight]

    reports = []
    for w in targets:
        b = dist.entries[w]
        theorem = _theorem_lambda(spec, t, w)
        if not exhaustive and b * comb(w, t) > COST_GATE:
            reports.append(
                DesignReport(
                    t=t, v=v, k=w, b=b, lam=None, verified=False,
                    theorem_lambda=theorem, match=None, skipped=True,
                )
            )
            continue
        pair = _pair(w, v)
        chunks = kept[pair] if pair in kept else stream_weight_class(h0, v, pair)
        blocks = blocks_of_weight(spec, field, w, chunks)
        report = verify_t_design(blocks, v, t, expected_b=b)
        report.theorem_lambda = theorem
        if theorem is not None and report.lam is not None:
            report.match = report.lam == theorem
        reports.append(report)
    return reports

from __future__ import annotations

import os
import subprocess
import sys
from functools import cache, reduce
from itertools import product
from operator import xor
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import (
    CodeSpec,
    CoefficientNotInSubfield,
    CoefficientOutOfRange,
    Field,
    LengthMismatch,
    NonPrimitivePolynomial,
    TooLarge,
    build_codeword,
    cyclic_weight_distribution,
    cyclotomic_coset,
    defining_set_of_family,
    generator_basis,
    membership_test,
    weight_distribution,
)
import designforge.codebuild as codebuild
from designforge.checks import CheckFailed
from designforge.codebuild import (
    _span_table,
    _SweepTables,
    _sweep_ranges,
    _TransformStep,
    bits_to_ints,
    cyclic_generator_basis,
    enumerate_span,
    h0_basis,
    pack_words,
    packed_rows_to_ints,
    reduce_rows,
    row_weights,
    stream_weight_class,
    unpack_rows,
    weight_histogram,
)
from one_layer import one_layer_basis


def test_codespec_validation():
    with pytest.raises(ValueError):
        CodeSpec("c3", 2)
    with pytest.raises(ValueError):
        CodeSpec("c1", 1)
    with pytest.raises(ValueError):
        CodeSpec("c1", 2, 1)
    with pytest.raises(ValueError):
        CodeSpec("c2", 2)
    with pytest.raises(ValueError):
        CodeSpec("c2", 2, 2)  # l = s
    with pytest.raises(ValueError):
        CodeSpec("c2", 2, 4)  # l > m-1


def test_codespec_l_canonicalization():
    assert CodeSpec("c2", 2, 3).l == 1
    assert CodeSpec("c2", 3, 4).l == 2
    assert CodeSpec("c2", 3, 5).l == 1


def test_codespec_derived():
    spec = CodeSpec("c2", 3, 1)
    assert (spec.m, spec.length, spec.d, spec.dprime) == (6, 64, 1, 2)
    assert CodeSpec("c2", 3, 2).dprime == 1
    assert CodeSpec("c2", 2, 1).dprime == 1
    with pytest.raises(ValueError):
        _ = CodeSpec("c1", 3).d


C1_M4 = CodeSpec("c1", 2)
C2_M4 = CodeSpec("c2", 2, 1)


def _definition_word(spec: CodeSpec, f: Field, a: int, b: int, c: int, points: list[int]) -> int:
    """h = 0 word of spec at (a, b, c), bit i = the trace form at points[i],
    evaluated one coordinate at a time with scalar field arithmetic."""
    if spec.family == "c1":
        e_a, e_b, trace_a = 5, 3, f.trace
    else:
        e_a, e_b, trace_a = (1 << f.s) + 1, (1 << spec.l) + 1, f.subfield_trace
    word = 0
    for i, x in enumerate(points):
        v = trace_a(f.mul(a, f.pow(x, e_a))) ^ f.trace(f.mul(b, f.pow(x, e_b)) ^ f.mul(c, x))
        word |= v << i
    return word


def _extended_points(f: Field) -> list[int]:
    return [f.element(i) for i in range(f.q)]


def _cyclic_points(f: Field) -> list[int]:
    return [f.alpha_pow(i) for i in range(f.n)]


def test_build_c1_trivial_words(f4):
    assert build_codeword(C1_M4, f4, 0, 0, 0, 0) == 0
    assert build_codeword(C1_M4, f4, 0, 0, 0, 1) == (1 << 16) - 1
    for c in range(1, 16):
        assert build_codeword(C1_M4, f4, 0, 0, c, 0).bit_count() == 8


def test_build_c1_against_definition(f4):
    # coordinate-by-coordinate from the trace form, scalar route
    for a, b, c, h in [(1, 0, 0, 0), (2, 7, 9, 1), (15, 3, 8, 0), (6, 6, 6, 1)]:
        word = build_codeword(C1_M4, f4, a, b, c, h)
        for i in range(16):
            x = f4.element(i)
            v = f4.trace(f4.mul(a, f4.pow(x, 5)) ^ f4.mul(b, f4.pow(x, 3)) ^ f4.mul(c, x)) ^ h
            assert (word >> i) & 1 == v


def test_build_c2_subfield_guard(f4):
    with pytest.raises(CoefficientNotInSubfield):
        build_codeword(C2_M4, f4, f4.alpha_pow(1), 0, 0)
    assert build_codeword(C2_M4, f4, 0, 0, 0, 1) == (1 << 16) - 1


@pytest.mark.parametrize("spec", [C1_M4, C2_M4], ids=["c1", "c2"])
@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("coef", [-1, 16])
def test_build_rejects_an_out_of_range_coefficient(monkeypatch, spec, slot, coef):
    # -1 would read log_np[-1], a wrong word, and q an IndexError: both are
    # refused before any table is read
    field = Field(4)
    for name in ("power_table", "in_subfield", "scalar_mul_vec"):
        monkeypatch.setattr(field, name, lambda *args: pytest.fail("a table was read"))
    coefs = [0, 0, 0]
    coefs[slot] = coef
    with pytest.raises(CoefficientOutOfRange, match=rf"^{'abc'[slot]}={coef} is not in 0\.\.15$"):
        build_codeword(spec, field, *coefs)
    assert issubclass(CoefficientOutOfRange, ValueError)


def test_build_c2_against_definition(f4):
    omega = f4.alpha_pow(5)
    e_s, e_l = (1 << 2) + 1, (1 << 1) + 1
    for a, b, c, h in [(omega, 0, 0, 0), (1, 5, 9, 1), (omega, 15, 2, 0)]:
        word = build_codeword(C2_M4, f4, a, b, c, h)
        for i in range(16):
            x = f4.element(i)
            v = f4.subfield_trace(f4.mul(a, f4.pow(x, e_s)))
            v ^= f4.trace(f4.mul(b, f4.pow(x, e_l)) ^ f4.mul(c, x))
            assert (word >> i) & 1 == v ^ h


def test_c2_weight4_count(f4):
    # every distinct codeword of the [16, 11, 4] code, 140 of weight 4
    spec = CodeSpec("c2", 2, 1)
    hist = weight_histogram(one_layer_basis(spec, f4), 16)
    assert hist[4] == 140


def test_cyclic_c1_words(f6):
    spec = CodeSpec("c1", 3)
    assert build_codeword(spec, f6, 0, 0, 0) >> 1 == 0
    assert (build_codeword(spec, f6, 0, 0, 1) >> 1).bit_count() == 32
    hist = weight_histogram(cyclic_generator_basis(spec, f6), 63)
    assert min(w for w in hist if w) == 16


def test_cyclic_c1_against_definition(f4):
    for a, b, c in [(3, 0, 1), (7, 7, 7), (0, 9, 4)]:
        word = build_codeword(C1_M4, f4, a, b, c) >> 1
        for i in range(15):
            v = f4.trace(
                f4.mul(a, f4.alpha_pow(5 * i))
                ^ f4.mul(b, f4.alpha_pow(3 * i))
                ^ f4.mul(c, f4.alpha_pow(i))
            )
            assert (word >> i) & 1 == v


def test_cyclic_c2_against_definition(f4):
    omega = f4.alpha_pow(5)
    for a, b, c in [(omega, 1, 2), (1, 0, 9)]:
        word = build_codeword(C2_M4, f4, a, b, c) >> 1
        for i in range(15):
            v = f4.subfield_trace(f4.mul(a, f4.alpha_pow(5 * i)))
            v ^= f4.trace(f4.mul(b, f4.alpha_pow(3 * i)) ^ f4.mul(c, f4.alpha_pow(i)))
            assert (word >> i) & 1 == v


@pytest.mark.parametrize("spec_args", [
    ("c1", 2, None), ("c1", 3, None), ("c1", 4, None), ("c2", 2, 1), ("c2", 3, 1),
    ("c2", 3, 2), ("c2", 4, 1), ("c2", 4, 3), ("c2", 5, 1),
])
def test_bases_match_definition_routes(spec_args):
    # the reduced echelon form is unique, so each basis spans the code of
    # the definition words exactly when its reduction equals theirs: h = 0 at
    # every element, extended with the all-one word added, cyclic at alpha^i;
    # the h = 0 and cyclic bases lead with the m words tr(alpha^j x) and hold
    # no more rows than the rank
    spec = CodeSpec(*spec_args)
    f = Field(spec.m)
    full = [f.alpha_pow(j) for j in range(f.m)]
    if spec.family == "c1":
        a_slot = full
    else:
        a_slot = [f.pow(f.alpha_pow((1 << f.s) + 1), j) for j in range(f.s)]
    coeffs = [(0, 0, c) for c in full] + [(a, 0, 0) for a in a_slot] + [(0, b, 0) for b in full]
    extended = [_definition_word(spec, f, *abc, _extended_points(f)) for abc in coeffs]
    cyclic = [_definition_word(spec, f, *abc, _cyclic_points(f)) for abc in coeffs]
    h0, shifted = h0_basis(spec, f), cyclic_generator_basis(spec, f)
    assert reduce_rows(h0) == reduce_rows(extended) and len(h0) == len(reduce_rows(extended))
    assert h0[: f.m] == extended[: f.m]
    assert generator_basis(spec, f) == reduce_rows(extended + [(1 << f.q) - 1])
    assert reduce_rows(shifted) == reduce_rows(cyclic) and len(shifted) == len(h0)
    assert shifted[: f.m] == cyclic[: f.m]


def _h0_oracle(spec: CodeSpec, f: Field) -> list[int]:
    """h0_basis as each family built it before CodeSpec.terms, from
    definition words: the linear slot, then the a slot (GF(2^m) for c1, the
    powers below s of the primitive element of GF(2^s) for c2), then b."""
    full = [f.alpha_pow(j) for j in range(f.m)]
    if spec.family == "c1":
        a_slot = full
    else:
        sub_gen = f.alpha_pow((1 << f.s) + 1)
        a_slot = [f.pow(sub_gen, j) for j in range(f.s)]
    points = _extended_points(f)
    linear = [_definition_word(spec, f, 0, 0, c, points) for c in full]
    words = [_definition_word(spec, f, a, 0, 0, points) for a in a_slot]
    words += [_definition_word(spec, f, 0, b, 0, points) for b in full]
    pivots = {row & -row for row in reduce_rows(linear)}
    return linear + [row for row in reduce_rows(linear + words) if row & -row not in pivots]


@pytest.mark.parametrize("spec_args", [("c1", s, None) for s in (2, 3, 4, 5)] + [
    ("c2", s, l) for s in (2, 3, 4, 5) for l in range(1, 2 * s) if l != s
])
def test_terms_table_matches_the_family_formulas(spec_args):
    # the table replaces per-family branches: every row of h0_basis, on
    # which the --export-blocks order depends, and the defining set are
    # those of the old per-family construction
    spec = CodeSpec(*spec_args)
    f = Field(spec.m)
    m, s, l = spec.m, spec.s, spec.l
    if spec.family == "c1":
        assert spec.terms == ((5, m), (3, m), (1, m))
        seeds = (1, 3, 5)
    else:
        assert spec.terms == (((1 << s) + 1, s), ((1 << l) + 1, m), (1, m))
        seeds = (1, (1 << l) + 1, (1 << s) + 1)
        with pytest.raises(CoefficientNotInSubfield, match=rf"^a=0x2 is not in GF\(2\^{s}\)$"):
            build_codeword(spec, f, f.alpha_pow(1), 0, 0)
    assert h0_basis(spec, f) == _h0_oracle(spec, f)
    cosets = [cyclotomic_coset(seed, spec.n).members for seed in seeds]
    assert defining_set_of_family(spec) == frozenset({0}.union(*cosets))


def test_dimensions_by_rank(f4, f6, f8):
    assert len(generator_basis(CodeSpec("c1", 3), f6)) == 19
    assert len(generator_basis(CodeSpec("c2", 2, 1), f4)) == 11
    # m=4 degenerates: 13 coefficient bits collapse to dimension 11
    assert len(generator_basis(CodeSpec("c1", 2), f4)) == 11
    assert len(generator_basis(CodeSpec("c1", 4), f8)) == 25
    assert len(generator_basis(CodeSpec("c2", 3, 1), f6)) == 16
    assert len(generator_basis(CodeSpec("c2", 3, 2), f6)) == 16


def test_kernel_dimension(f4):
    # coefficient space has 3m+1 = 13 bits; the map to words loses 2
    spec = CodeSpec("c1", 2)
    n_coeff_bits = 3 * 4 + 1
    rank = len(generator_basis(spec, f4))
    assert n_coeff_bits - rank == 2


def test_membership(f4, f6):
    spec = CodeSpec("c1", 3)
    basis = generator_basis(spec, f6)
    assert membership_test(0, basis, 64)
    assert membership_test((1 << 64) - 1, basis, 64)
    (w16,) = next(stream_weight_class(one_layer_basis(spec, f6), 64, ((16,),)))
    word = packed_rows_to_ints(w16[:1])[0]
    assert membership_test(word, basis, 64)
    assert not membership_test(word ^ 1, basis, 64)  # one flipped bit leaves the code
    with pytest.raises(LengthMismatch):
        membership_test(1 << 70, basis, 64)


def test_reduce_rows_reduced_form():
    rows = [0b1110, 0b0111, 0b1001, 0b1110]
    basis = reduce_rows(rows)
    pivots = [(r & -r).bit_length() - 1 for r in basis]
    assert pivots == sorted(pivots)
    for i, r in enumerate(basis):
        for j, p in enumerate(pivots):
            if i != j:
                assert not (r >> p) & 1


def test_enumerate_span_lexicographic_order():
    basis = [0b0001, 0b0110, 0b1010]
    words = list(enumerate_span(basis))
    for j, w in enumerate(words):
        expect = 0
        for bit in range(3):
            if (j >> bit) & 1:
                expect ^= basis[bit]
        assert w == expect


def test_weight_histogram_matches_python_enumeration(f4):
    spec = CodeSpec("c2", 2, 1)
    basis = one_layer_basis(spec, f4)
    by_hand: dict[int, int] = {}
    for w in enumerate_span(basis):
        by_hand[w.bit_count()] = by_hand.get(w.bit_count(), 0) + 1
    assert weight_histogram(basis, 16) == by_hand


def test_weight_histogram_thread_invariance(f6):
    basis = one_layer_basis(CodeSpec("c1", 3), f6)
    h1 = weight_histogram(basis, 64, threads=1)
    h2 = weight_histogram(basis, 64, threads=2)
    h8 = weight_histogram(basis, 64, threads=8)
    assert h1 == h2 == h8


@pytest.mark.parametrize("dim", [9, 19])
def test_coset_sweep_matches_python_enumeration(dim):
    # word + span for each of four coset words, the zero word among them,
    # each counted its multiplicity of times: 19 rows at length 64 leave 4
    # high words and one coset word a batch, 9 rows one batch of all four
    rng = Random(dim)
    basis = one_layer_basis([rng.getrandbits(64) for _ in range(dim - 6)], 64)
    cosets = {rng.getrandbits(64): 1, 0: 2, rng.getrandbits(64): 3, rng.getrandbits(64): 1}
    by_hand: dict[int, int] = {}
    for w in enumerate_span(basis):
        for coset, times in cosets.items():
            by_hand[(w ^ coset).bit_count()] = by_hand.get((w ^ coset).bit_count(), 0) + times
    for threads in (1, 2):
        assert weight_histogram(basis, 64, threads, cosets) == dict(sorted(by_hand.items()))


@pytest.mark.parametrize("batch_bits", [17, 9, 8])
def test_coset_words_share_batches(batch_bits, monkeypatch):
    # the orbit route's shape: only the transform rows, and many coset
    # words, 2^(batch_bits - 6) of them a batch, the last batch partial,
    # with multiplicities, split over up to 8 workers
    rng = Random(batch_bits)
    basis = one_layer_basis([], 63)
    cosets = {rng.getrandbits(63): rng.randint(1, 9) for _ in range(37)}
    by_hand: dict[int, int] = {}
    for w in enumerate_span(basis):
        for coset, times in cosets.items():
            by_hand[(w ^ coset).bit_count()] = by_hand.get((w ^ coset).bit_count(), 0) + times
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(codebuild, "_BATCH_BITS", batch_bits)
    tables = _SweepTables(basis, 63, cosets)
    assert (tables.per, tables.batches) == (min(37, 1 << (batch_bits - 6)), -(-37 // tables.per))
    for threads in (1, 2, 8):
        assert weight_histogram(basis, 63, threads, cosets) == dict(sorted(by_hand.items()))


@pytest.mark.parametrize("cosets, error", [
    ({}, (ValueError, "multiplicity of at least 1")),
    ({5: 1, 6: 0}, (ValueError, "multiplicity of at least 1")),
    ({1 << 63: 1}, (ValueError, "a word has a point >= v = 63")),
    ({-1: 1}, (ValueError, "a word is negative")),
    ({5: 1 << 57}, (TooLarge, "2\\^63 words or more")),
])
def test_bad_coset_words_are_refused_before_any_span_table(cosets, error, monkeypatch):
    monkeypatch.setattr(codebuild, "_span_table", _no_tables)
    with pytest.raises(error[0], match=error[1]):
        weight_histogram(one_layer_basis([], 63), 63, 1, cosets)


@pytest.mark.parametrize("spec_args", [("c1", 2, None), ("c1", 3, None), ("c2", 3, 1), ("c2", 3, 2)])
def test_even_weights_and_complement_closure(spec_args, f4, f6):
    family, s, l = spec_args
    spec = CodeSpec(family, s, l)
    field = f4 if spec.m == 4 else f6
    hist = weight_histogram(one_layer_basis(spec, field), spec.length)
    assert all(w % 2 == 0 for w in hist)
    assert all(hist[w] == hist[spec.length - w] for w in hist)


def test_stream_weight_class_matches_filter(f4):
    spec = CodeSpec("c1", 2)
    basis = one_layer_basis(spec, f4)
    got = sorted(
        word
        for (chunk,) in stream_weight_class(basis, 16, ((4,),))
        for word in packed_rows_to_ints(chunk)
    )
    expect = sorted(w for w in enumerate_span(basis) if w.bit_count() == 4)
    assert got == expect


def test_too_large_guard(monkeypatch):
    with pytest.raises(TooLarge):
        weight_histogram([1 << i for i in range(27)], 64)
    # past length 2^16 the at most 16 transform rows cannot hold distinct
    # columns: refused before the sweep tables' per-coordinate arrays
    monkeypatch.setattr(codebuild, "_SweepTables", _no_tables)
    for length in (1 << 16 | 1, 1 << 20, 1 << 24):
        with pytest.raises(TooLarge, match=f"length {length} exceeds 2\\^16"):
            weight_histogram([1], length)
        with pytest.raises(TooLarge, match=f"length {length} exceeds 2\\^16"):
            next(stream_weight_class([1], length, ((1,),)))


def _no_tables(*args, **kwargs):
    raise AssertionError("the sweep tables were built")


def test_stream_rejects_an_empty_weight_tuple(monkeypatch):
    # refused on the first next(), before any table is built or batch transformed
    monkeypatch.setattr(codebuild, "_SweepTables", _no_tables)
    stream = stream_weight_class(generator_basis(C1_M4, Field(4)), 16, ())
    with pytest.raises(ValueError, match="no weight to stream"):
        next(stream)


@pytest.mark.parametrize("groups", [((65,),), ((-2,),), ((),), (), ((16, 48), (65,))],
                         ids=["past_length", "negative", "empty_group", "no_group", "one_bad_group"])
def test_stream_rejects_bad_groups_before_any_table(groups, f6, monkeypatch):
    # a weight outside 0..length would index past the table of allowed
    # weights, or wrap to its end; refused on the first next(), as is a
    # stream with no group or an empty one, before any table is built
    monkeypatch.setattr(codebuild, "_SweepTables", _no_tables)
    stream = stream_weight_class(one_layer_basis(CodeSpec("c1", 3), f6), 64, groups)
    with pytest.raises(ValueError, match="no weight to stream|is outside 0..64"):
        next(stream)


def test_sweeps_reject_a_length_below_one(monkeypatch):
    monkeypatch.setattr(codebuild, "_SweepTables", _no_tables)
    for length in (0, -1):
        with pytest.raises(ValueError, match=f"length must be >= 1, got {length}"):
            weight_histogram([0], length)
        with pytest.raises(ValueError, match=f"length must be >= 1, got {length}"):
            next(stream_weight_class([0], length, ((2,),)))


def test_sweep_ranges_capped_by_cores(monkeypatch):
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 2)
    ranges = _sweep_ranges(1024, 100000)
    assert ranges == [(0, 512), (512, 1024)]
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 64)
    assert len(_sweep_ranges(1024, 100000)) == 64
    assert _sweep_ranges(4, 100000) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: None)
    assert _sweep_ranges(1024, 8) == [(0, 1024)]


def test_low_table_index_order(f8):
    basis = generator_basis(CodeSpec("c1", 4), f8)[:9]
    table = _span_table(basis, 256)
    assert table.shape == (512, 4)  # row j is the word of index j
    assert packed_rows_to_ints(table) == list(enumerate_span(basis))


@pytest.mark.parametrize("length", [16, 63, 64, 65, 255, 256, 1023, 1024])
def test_incidence_rows_round_trip(length):
    words = [0, 1, 1 << (length - 1), (1 << length) - 1, Random(length).getrandbits(length)]
    rows = pack_words(words, length)
    bits = unpack_rows(rows, length)
    assert bits.shape == (len(words), length) and bits.dtype == np.uint8
    assert [[i for i in range(length) if b[i]] for b in bits] == [
        [i for i in range(length) if (w >> i) & 1] for w in words
    ]
    assert bits_to_ints(bits) == words == packed_rows_to_ints(rows)
    # one packed row unpacks to one incidence row
    assert np.array_equal(unpack_rows(rows[3], length), bits[3])


def _by_weight(basis: list[int]) -> dict[int, list[int]]:
    """Span words grouped by weight, each group in coefficient-index order."""
    by_weight: dict[int, list[int]] = {}
    for w in enumerate_span(basis):
        by_weight.setdefault(w.bit_count(), []).append(w)
    return by_weight


def _streamed_by_weight(basis: list[int], length: int, weights) -> dict[int, list[int]]:
    """The words of one stream of the listed weights, grouped by weight."""
    by_weight: dict[int, list[int]] = {}
    for (chunk,) in stream_weight_class(basis, length, (tuple(weights),)):
        for w in packed_rows_to_ints(chunk):
            by_weight.setdefault(w.bit_count(), []).append(w)
    return by_weight


@pytest.mark.parametrize("route, drop", [
    ("extended", {24, 28, 36}),  # 24 not listed while 40 is; neither 28 nor 36
    ("extended", {32}),  # the self-complementary class
    ("cyclic", {24}),  # length 63: no all-one word, padding bits in the last limb
    ("row_removed", {24}),
])
def test_complement_sweep_matches_enumeration(route, drop, f6, monkeypatch):
    # the sweep counts every weight, and one stream of every weight but
    # drop and a weight that never occurs builds exactly their words, each
    # weight's in index order
    spec = CodeSpec("c1", 3)
    if route == "cyclic":
        basis, length = cyclic_generator_basis(spec, f6), 63
    else:
        basis, length = one_layer_basis(spec, f6), 64
        if route == "row_removed":
            basis = basis[:6] + basis[7:]
    by_weight = _by_weight(basis)
    assert route != "extended" or 32 in by_weight
    listed = (set(by_weight) - drop) | {30}  # 30: a weight that never occurs
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 8)
    for batch_bits in (16, 12, 10):
        # at 10, batches of 2^10 words give every one of 8 workers several
        monkeypatch.setattr(codebuild, "_BATCH_BITS", batch_bits)
        for threads in (1, 2, 8):
            assert weight_histogram(basis, length, threads) == {
                w: len(words) for w, words in by_weight.items()
            }
        assert _streamed_by_weight(basis, length, sorted(listed)) == {
            w: words for w, words in by_weight.items() if w not in drop
        }


def test_one_call_is_one_sweep(f6, monkeypatch):
    # the benchmark's tracer counts calls of the module attribute as sweeps,
    # so the sweep must never call it again
    original = codebuild.weight_histogram
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(codebuild, "weight_histogram", spy)
    basis = one_layer_basis(CodeSpec("c1", 3), f6)
    original(basis, 64, 2)
    assert calls == []


def _sylvester_oracle(bits: int) -> np.ndarray:
    # the uncached construction: np.block doubling from order 1
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    return h


def test_sylvester_factors_are_cached_read_only():
    # a sweep's factors have orders 2^(kt - kt // 2) and 2^(kt // 2), kt <= 16
    for bits in range(9):
        h = codebuild._hadamard(bits)
        assert codebuild._hadamard(bits) is h
        assert h.dtype == np.float32 and np.array_equal(h, _sylvester_oracle(bits))
        with pytest.raises(ValueError):
            h[0, 0] = 0


def test_wrong_transform_fails_the_gather_check(f6):
    # a Hadamard factor with two columns swapped computes wrong weights; the
    # words a stream of one weight gathers are recounted by popcount, also
    # under -O, and also when they are gathered in slices of 2^6 words
    script = """
import sys
import designforge.codebuild as codebuild
from designforge import CodeSpec, Field
from designforge.checks import CheckFailed
from one_layer import one_layer_basis

right = codebuild._hadamard

def swapped(bits):
    h = right(bits)
    return h[:, [1, 0, *range(2, len(h))]] if len(h) > 1 else h

basis = one_layer_basis(CodeSpec("c1", 3), Field(6))
codebuild._hadamard = swapped
for rows in (codebuild._GATHER_ROWS, 1 << 6):
    codebuild._GATHER_ROWS = rows
    try:
        for w in range(65):
            for _ in codebuild.stream_weight_class(basis, 64, ((w,),)):
                pass
    except CheckFailed:
        continue
    sys.exit(3)
"""
    here = Path(__file__).resolve()
    path = os.pathsep.join([str(here.parents[1] / "src"), str(here.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0


def test_bounded_gather_matches_enumeration(f6, monkeypatch):
    # with gathers of at most 2^6 words at once, a batch of a design
    # report's gather of every nontrivial class holds more of a pair's
    # words than that, so they are built a run of the batch at a time; each
    # pair's streamed words are still the span's, in index order
    rows = 1 << 6
    basis = h0_basis(CodeSpec("c1", 3), f6)
    built: list[int] = []
    weights = codebuild.row_weights

    def spy(part):
        built.append(len(part))
        return weights(part)

    monkeypatch.setattr(codebuild, "row_weights", spy)
    monkeypatch.setattr(codebuild, "_GATHER_ROWS", rows)
    monkeypatch.setattr(codebuild, "_BATCH_BITS", 14)
    pairs = tuple((w, 64 - w) for w in range(2, 33, 2))
    batches = list(stream_weight_class(basis, 64, pairs))
    assert len(batches) == 16 and all(len(chunks) == len(pairs) for chunks in batches)
    for pair, chunks in zip(pairs, zip(*batches)):
        assert packed_rows_to_ints(np.concatenate(chunks)) == [
            w for w in enumerate_span(basis) if w.bit_count() in pair
        ]
    assert max(len(chunks[pairs.index((32, 32))]) for chunks in batches) > rows
    assert 0 < max(built) <= rows


def _counting_basis(length: int) -> list[int]:
    """The coordinate rows of length, then rows of weight 2 on its first
    half and five dense rows on its second: the span of the coordinate
    rows, the first batch at batch bits 2 and 4, holds only weights 0 and
    length / 2, and later batches bring weights it never saw."""
    rows = [1 << j | 1 << (j + length // 4) for j in range(length // 4)]
    rows += [(0x9E3779B97F4A7C15 * (j + 1) & (1 << length // 2) - 1) << length // 2 for j in range(5)]
    return one_layer_basis(rows, length)


# c1(3) sweeps its 2^18 words in batches of 2^6 and 2^8, not 4-16 words as
# the counting basis does, to stay fast
COUNT_CASES = [("c1(3)", 6), ("c1(3)", 8)]


@cache
def _count_basis(name: str, batch_bits: int) -> tuple[list[int], int]:
    if name == "counting":
        # batches of 2^batch_bits words transform 2 or 4 rows, so a one-layer
        # basis has length 4 or 16
        length = 1 << (batch_bits & ~1)
        return _counting_basis(length), length
    return cyclic_generator_basis(CodeSpec("c1", 3), Field(6)), 63


def _check_count(name: str, batch_bits: int, threads: int, monkeypatch) -> None:
    """Histogram of a sweep equal to enumerate_span's, with 8 cores patched
    in so that more workers than cores split the sweep, and the words of a
    stream of every weight too."""
    basis, length = _count_basis(name, batch_bits)
    by_weight = _by_weight(basis)
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(codebuild, "_BATCH_BITS", batch_bits)
    assert weight_histogram(basis, length, threads) == {w: len(words) for w, words in by_weight.items()}
    assert _streamed_by_weight(basis, length, range(length + 1)) == by_weight


@pytest.mark.parametrize("batch_bits, threads", product((2, 3, 4), (1, 2, 8)))
def test_counting_recounts_batches_with_new_weights(batch_bits, threads, monkeypatch):
    # each batch is counted afresh by the bins of its values: the counting
    # basis's later batches bring weights the first never saw,
    # and every one of them is counted and streamed
    _check_count("counting", batch_bits, threads, monkeypatch)


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("name, batch_bits", COUNT_CASES)
def test_count_matches_enumeration(name, batch_bits, threads, monkeypatch):
    # c1(3) has odd length, so negative and odd transform values
    _check_count(name, batch_bits, threads, monkeypatch)


def test_counting_fallbacks_stay_within_the_weights(f6, monkeypatch):
    # every batch's bins name only weights of the code, and they cover the
    # batch, on the c1(3) cyclic sweep at 1, 2 and 8 workers
    basis = cyclic_generator_basis(CodeSpec("c1", 3), f6)
    hist = weight_histogram(basis, 63)
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(codebuild, "_BATCH_BITS", 8)
    original = codebuild._TransformStep.count
    for threads in (1, 2, 8):
        batches: list[tuple[dict[int, int], int]] = []

        def spy(step):
            before = step.tally.copy()
            original(step)
            added = {w: int(c) for w, c in enumerate(step.tally - before) if c}
            batches.append((added, step.size))

        monkeypatch.setattr(codebuild._TransformStep, "count", spy)
        assert weight_histogram(basis, 63, threads) == hist
        assert len(batches) == 1 << (len(basis) - 8)
        for added, size in batches:
            assert set(added) <= set(hist)
            assert all(c > 0 for c in added.values())
            assert sum(added.values()) == size


def test_counting_recount_holds_under_optimize():
    # the count with assert statements compiled away in the program under
    # test; pytest still checks the test's own asserts under -O
    here = Path(__file__).resolve()
    nodes = [f"{here}::test_counting_recounts_batches_with_new_weights[2-2]",
             f"{here}::test_count_matches_enumeration[c1(3)-8-2]",
             f"{here}::test_counting_fallbacks_stay_within_the_weights"]
    src = str(here.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert f"\n{len(nodes)} passed" in proc.stdout, proc.stdout[-2000:]


@pytest.mark.parametrize("value", [65, -65, 127])
def test_count_requires_every_value_in_range(value, f6):
    # a transform value past +-length is the weight of no word: its bin
    # would lie outside the weights 0..length, and the count stops
    basis = cyclic_generator_basis(CodeSpec("c1", 3), f6)
    tables = _SweepTables(basis, 63)
    step = _TransformStep(tables)
    step(0)
    step.count()
    assert step.tally.sum() == tables.signs.size
    step(0)
    step.centred[5] = value
    with pytest.raises(CheckFailed, match="outside the weights"):
        step.count()


def _spy_products(monkeypatch) -> list[int]:
    """Record the multiply-adds of each product in every np.matmul stack."""
    original = np.matmul
    sizes: list[int] = []

    def spy(a, b, *args, **kwargs):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return sizes


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_transform_products_stay_within_2_17(m, monkeypatch):
    # OpenBLAS runs a product of at most 2^17 multiply-adds on the calling
    # thread, where a larger one would start its own threads inside each
    # worker; every batch of a sweep computes the same products, so one
    # batch of each sweep a command runs shows them all
    f = Field(m)
    s = m // 2
    sizes = _spy_products(monkeypatch)
    for spec in [CodeSpec("c1", s)] + [CodeSpec("c2", s, l) for l in range(1, s)]:
        for basis, length in ((h0_basis(spec, f), spec.length), (cyclic_generator_basis(spec, f), spec.n)):
            if len(basis) > codebuild.MAX_ENUM_DIM:
                continue  # c1(5): too large to sweep
            # the zero high word's batch and the last, which scales the
            # first factor by its high word when the sweep has more
            sizes.clear()
            tables = _SweepTables(basis, length)
            step = _TransformStep(tables)
            step(0)
            step(tables.batches - 1)
            assert len(sizes) == 4 and max(sizes) <= 1 << 17, (spec, length, sizes)


def test_odd_transform_rows_trim_the_batch(monkeypatch):
    # at odd kt the first Sylvester factor has order 2^((kt + 1) / 2), so a
    # batch of 2^17 words would make its products 2^18 multiply-adds
    rng = Random(5)
    basis = one_layer_basis([rng.getrandbits(32) for _ in range(15)], 32)
    tables = _SweepTables(basis, 32)
    assert tables.kt == 5 and tables.signs.shape == (1 << 5, 1 << 11)
    sizes = _spy_products(monkeypatch)
    hist = weight_histogram(basis, 32, 2)
    assert sum(hist.values()) == 1 << 20
    assert sizes and max(sizes) <= 1 << 17


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_code_bases_sweep_in_one_layer(m):
    # the leading m rows hold a distinct column at every coordinate, so the
    # sweep tables build, and each batch's input is one product of the
    # dense sign table with the halves
    f = Field(m)
    s = m // 2
    for spec in [CodeSpec("c1", s)] + [CodeSpec("c2", s, l) for l in range(1, s)]:
        for basis, length in ((h0_basis(spec, f), spec.length), (cyclic_generator_basis(spec, f), spec.n)):
            tables = _SweepTables(basis, length)
            assert tables.kt == m, (spec, length)


REPEATED = (ValueError, "leading basis rows repeat a column")


@pytest.mark.parametrize("basis, length, error", [
    (generator_basis(C1_M4, Field(4)), 16, REPEATED),  # reduced: its leading rows are pivots
    ([(1 << 64) - 1], 64, REPEATED),  # kt = 1: every coordinate has column 1
    (one_layer_basis([], 64)[1:], 64, REPEATED),  # five coordinate rows: each column twice
    # 17 coordinate rows, of which at most 16 lead: refused by its length
    (one_layer_basis([], 65537), 65537, (TooLarge, "length 65537 exceeds 2\\^16")),
], ids=["reduced", "one_row", "five_coordinates", "past_2_16"])
def test_a_basis_whose_leading_rows_repeat_a_column_is_refused(basis, length, error, monkeypatch):
    # refused before any span table is built, batch transformed or word
    # streamed, by a count and a stream alike; past length 2^16 the 16
    # transform rows cannot hold distinct columns, and the length alone
    # refuses the basis before the sweep tables are built
    def no_table(*args, **kwargs):
        raise AssertionError("a span table was built")

    monkeypatch.setattr(codebuild, "_span_table", no_table)
    monkeypatch.setattr(_TransformStep, "__call__", no_table)
    if error[0] is TooLarge:
        monkeypatch.setattr(codebuild, "_SweepTables", no_table)
    with pytest.raises(error[0], match=error[1]):
        weight_histogram(basis, length)
    stream = stream_weight_class(basis, length, ((2,),))
    with pytest.raises(error[0], match=error[1]):
        next(stream)


@st.composite
def span_cases(draw):
    """The coordinate rows of a random length, then random rows (dependent
    or not), 12 rows at most; a batch size small enough to give odd splits
    and many batches, but large enough to transform every coordinate row;
    and a thread count."""
    length = draw(st.sampled_from([1, 63, 64, 65, 100, 128]))
    bits = (length - 1).bit_length()
    rows = draw(st.lists(st.integers(0, (1 << length) - 1), max_size=12 - bits))
    basis = one_layer_basis(rows, length)
    if rows and draw(st.booleans()):
        # rows that XOR to the all-one word: the span is closed under complement
        basis[-1] ^= reduce(xor, basis) ^ ((1 << length) - 1)
    return basis, length, draw(st.integers(max(3, bits + bits % 2), 9)), draw(st.sampled_from([1, 2]))


@settings(max_examples=40, deadline=None)
@given(span_cases(), st.data())
def test_transform_sweep_matches_bit_count_property(case, data):
    rows, length, batch_bits, threads = case
    by_weight = _by_weight(rows)
    hist = {w: len(words) for w, words in by_weight.items()}
    listed = data.draw(st.sets(st.sampled_from(sorted(by_weight)), min_size=1))
    saved = codebuild._BATCH_BITS
    codebuild._BATCH_BITS = batch_bits
    try:
        assert weight_histogram(rows, length, threads) == hist
        streamed = [
            word
            for (chunk,) in stream_weight_class(rows, length, (tuple(listed),))
            for word in packed_rows_to_ints(chunk)
        ]
    finally:
        codebuild._BATCH_BITS = saved
    assert streamed == [w for w in enumerate_span(rows) if w.bit_count() in listed]


def test_weight_dtype_at_2_16(monkeypatch):
    # at length 2^16 the 16 coordinate rows lead and the count bins 2^16 + 1
    # weights; both spans hold a word of weight 2^16 itself, which a uint16
    # weight wraps to 0
    ones = (1 << 65536) - 1
    coordinates = one_layer_basis([], 65536)
    # a count never builds the transform rows' span table, 512 MiB here
    monkeypatch.setattr(_SweepTables, "low", property(_no_tables))
    # the nonzero linear functions L_c and their complements have weight 2^15
    assert weight_histogram(coordinates + [ones], 65536) == {0: 1, 32768: 2**17 - 2, 65536: 1}
    # L_c + e, with e the last coordinate, has weight 2^15 - 1 where L_c
    # holds e (c of odd parity) and 2^15 + 1 where it does not, and its
    # complement L_c + (ones - e) the other
    assert weight_histogram(coordinates + [ones >> 1, 1 << 65535], 65536) == {
        0: 1, 1: 1, 32767: 2**16 - 1, 32768: 2**17 - 2, 32769: 2**16 - 1, 65535: 1, 65536: 1,
    }
    # a gathered word is recounted by limb counts summed in uint64
    assert row_weights(pack_words([ones, ones >> 1, 0], 65536)).tolist() == [65536, 65535, 0]


# -- properties of the evaluator under random primitive polynomials ---------------

PROPERTY_SPECS = [CodeSpec("c1", 2), CodeSpec("c2", 2, 1),
                  CodeSpec("c1", 3), CodeSpec("c2", 3, 1), CodeSpec("c2", 3, 2)]


@cache
def _field(m: int, poly: int) -> Field:
    return Field(m, poly)


@cache
def _primitive_polys(m: int) -> list[int]:
    """Every odd degree-m polynomial that Field accepts as primitive."""
    polys = []
    for poly in range((1 << m) | 1, 1 << (m + 1), 2):
        try:
            _field(m, poly)
        except NonPrimitivePolynomial:
            continue
        polys.append(poly)
    return polys


@st.composite
def coefficients(draw):
    spec = draw(st.sampled_from(PROPERTY_SPECS))
    f = _field(spec.m, draw(st.sampled_from(_primitive_polys(spec.m))))
    a_values = f.subfield_elements() if spec.family == "c2" else list(range(f.q))
    a = draw(st.sampled_from(a_values))
    b, c = draw(st.integers(0, f.q - 1)), draw(st.integers(0, f.q - 1))
    return spec, f, a, b, c, draw(st.integers(0, 1))


@settings(max_examples=30, deadline=None)
@given(coefficients())
def test_build_codeword_matches_definition_property(case):
    spec, f, a, b, c, h = case
    word = build_codeword(spec, f, a, b, c, h)
    assert word == _definition_word(spec, f, a, b, c, _extended_points(f)) ^ h * ((1 << f.q) - 1)


@settings(max_examples=30, deadline=None)
@given(coefficients())
def test_punctured_word_matches_cyclic_definition_property(case):
    spec, f, a, b, c, _ = case
    word = build_codeword(spec, f, a, b, c) >> 1
    assert word == _definition_word(spec, f, a, b, c, _cyclic_points(f))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(PROPERTY_SPECS), st.data())
def test_distributions_independent_of_polynomial(spec, data):
    f = _field(spec.m, data.draw(st.sampled_from(_primitive_polys(spec.m))))
    default = Field(spec.m)
    assert weight_distribution(spec, f) == weight_distribution(spec, default)
    assert cyclic_weight_distribution(spec, f) == cyclic_weight_distribution(spec, default)

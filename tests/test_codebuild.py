from __future__ import annotations

import os
import subprocess
import sys
from functools import cache, reduce
from itertools import product
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import (
    CodeSpec,
    CoefficientNotInSubfield,
    Field,
    LengthMismatch,
    NonPrimitivePolynomial,
    TooLarge,
    build_codeword,
    cyclic_weight_distribution,
    generator_basis,
    membership_test,
    weight_distribution,
)
import designforge.codebuild as codebuild
from designforge.codebuild import (
    _low_table,
    _sweep_ranges,
    cyclic_generator_basis,
    enumerate_span,
    packed_rows_to_ints,
    reduce_rows,
    stream_weight_class,
    weight_histogram,
)


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
    hist = weight_histogram(generator_basis(spec, f4), 16)
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
    # the reduced echelon form is unique, so both bases equal the reduction of
    # the definition words: extended at every element plus the all-one word,
    # cyclic at alpha^i
    spec = CodeSpec(*spec_args)
    f = Field(spec.m)
    full = [f.alpha_pow(j) for j in range(f.m)]
    if spec.family == "c1":
        a_slot = full
    else:
        a_slot = [f.pow(f.alpha_pow((1 << f.s) + 1), j) for j in range(f.s)]
    coeffs = [(a, 0, 0) for a in a_slot] + [(0, b, 0) for b in full] + [(0, 0, c) for c in full]
    extended = [_definition_word(spec, f, *abc, _extended_points(f)) for abc in coeffs]
    cyclic = [_definition_word(spec, f, *abc, _cyclic_points(f)) for abc in coeffs]
    assert generator_basis(spec, f) == reduce_rows(extended + [(1 << f.q) - 1])
    assert cyclic_generator_basis(spec, f) == reduce_rows(cyclic)


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
    w16 = next(iter(stream_weight_class(basis, 64, 16)))
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


def test_enumerate_span_partitions():
    basis = [0b0001, 0b0110, 0b1010, 0b10000]
    full = list(enumerate_span(basis))
    pieces = []
    for lo, hi in [(0, 5), (5, 6), (6, 16)]:
        pieces.extend(enumerate_span(basis, lo, hi))
    assert pieces == full


def test_weight_histogram_matches_python_enumeration(f4):
    spec = CodeSpec("c2", 2, 1)
    basis = generator_basis(spec, f4)
    by_hand: dict[int, int] = {}
    for w in enumerate_span(basis):
        by_hand[w.bit_count()] = by_hand.get(w.bit_count(), 0) + 1
    assert weight_histogram(basis, 16) == by_hand


def test_weight_histogram_thread_invariance(f6):
    basis = generator_basis(CodeSpec("c1", 3), f6)
    h1 = weight_histogram(basis, 64, threads=1)
    h2 = weight_histogram(basis, 64, threads=2)
    h8 = weight_histogram(basis, 64, threads=8)
    assert h1 == h2 == h8


@pytest.mark.parametrize("spec_args", [("c1", 2, None), ("c1", 3, None), ("c2", 3, 1), ("c2", 3, 2)])
def test_even_weights_and_complement_closure(spec_args, f4, f6):
    family, s, l = spec_args
    spec = CodeSpec(family, s, l)
    field = f4 if spec.m == 4 else f6
    hist = weight_histogram(generator_basis(spec, field), spec.length)
    assert all(w % 2 == 0 for w in hist)
    assert all(hist[w] == hist[spec.length - w] for w in hist)


def test_stream_weight_class_matches_filter(f4):
    spec = CodeSpec("c1", 2)
    basis = generator_basis(spec, f4)
    got = sorted(
        word
        for chunk in stream_weight_class(basis, 16, 4)
        for word in packed_rows_to_ints(chunk)
    )
    expect = sorted(w for w in enumerate_span(basis) if w.bit_count() == 4)
    assert got == expect


def test_too_large_guard():
    with pytest.raises(TooLarge):
        weight_histogram([1 << i for i in range(27)], 64)
    # float32 transform sums are exact only below 2^24
    with pytest.raises(TooLarge):
        weight_histogram([1], 1 << 24)
    with pytest.raises(TooLarge):
        next(stream_weight_class([1], 1 << 24, 1))


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
    table = _low_table(basis, 4)
    assert table.shape == (4, 512)  # limb-major: column j is the word of index j
    assert packed_rows_to_ints(table.T.copy()) == list(enumerate_span(basis))


def test_weight_histogram_keep_matches_enumeration(f6, monkeypatch):
    # more workers than cores, with frequent thread switches: a lost update
    # of the shared running counts would keep the class that passes its cap
    basis = generator_basis(CodeSpec("c1", 3), f6)
    hist = weight_histogram(basis, 64)
    by_weight: dict[int, list[int]] = {}
    for w in enumerate_span(basis):
        by_weight.setdefault(w.bit_count(), []).append(w)
    caps = {16: 252, 24: 37631, 32: 10**6, 30: 5}
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 8):
            got, kept = weight_histogram(basis, 64, threads, keep=caps)
            assert got == hist
            assert set(kept) == {16, 32}  # 24 passes its cap by one; 30 never occurs
            for w, rows in kept.items():
                assert packed_rows_to_ints(rows) == by_weight[w]
    finally:
        sys.setswitchinterval(interval)


def _by_weight(basis: list[int]) -> dict[int, list[int]]:
    """Span words grouped by weight, each group in coefficient-index order."""
    by_weight: dict[int, list[int]] = {}
    for w in enumerate_span(basis):
        by_weight.setdefault(w.bit_count(), []).append(w)
    return by_weight


@pytest.mark.parametrize("route, drop", [
    ("extended", {24, 28, 36}),  # 24 over its cap while 40 stays; 28 and 36 both over
    ("extended", {32}),  # the self-complementary class, one over its cap
    ("cyclic", {24}),  # length 63: no all-one word, padding bits in the last limb
    ("row_removed", {24}),
])
def test_complement_sweep_matches_enumeration(route, drop, f6, monkeypatch):
    spec = CodeSpec("c1", 3)
    if route == "cyclic":
        basis, length = cyclic_generator_basis(spec, f6), 63
    else:
        basis, length = generator_basis(spec, f6), 64
        if route == "row_removed":
            basis = basis[:5] + basis[6:]
    by_weight = _by_weight(basis)
    assert route != "extended" or 32 in by_weight
    caps = {w: len(words) - (w in drop) for w, words in by_weight.items()}
    caps[30] = 5  # a weight that never occurs
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for low_bits, threads in product((16, 12, 8), (1, 2, 8)):
            # at 8, batches of 2^12 words give every one of 8 workers several
            monkeypatch.setattr(codebuild, "_LOW_BITS", low_bits)
            assert weight_histogram(basis, length, threads) == {
                w: len(words) for w, words in by_weight.items()
            }
            _, kept = weight_histogram(basis, length, threads, keep=caps)
            assert set(kept) == set(by_weight) - drop
            for w, rows in kept.items():
                assert rows.shape == (len(by_weight[w]), 1)
                assert packed_rows_to_ints(rows) == by_weight[w]
    finally:
        sys.setswitchinterval(interval)


def test_half_sweep_stays_internal(f6, monkeypatch):
    # the benchmark's tracer wraps the module attribute: one call, one sweep
    original = codebuild.weight_histogram
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(codebuild, "weight_histogram", spy)
    basis = generator_basis(CodeSpec("c1", 3), f6)
    original(basis, 64, 2, keep={16: 252})
    assert calls == []


def test_capped_class_gathers_stay_bounded(f6, monkeypatch):
    # a class is dropped as soon as its shared running count passes its cap,
    # and a batch's words are gathered only once they are counted, so no
    # class over its cap ever holds more than cap words (tighter than the
    # cap + workers * batch of a sweep that gathers before it counts); a lost
    # update of the running count breaks this under frequent switches
    basis = generator_basis(CodeSpec("c1", 3), f6)
    hist = weight_histogram(basis, 64)
    low_bits, threads = 4, 8
    batch = 1 << (low_bits + codebuild._BATCH_BITS)
    caps = {32: hist[32] // 8, 24: hist[24] // 8}
    assert min(caps.values()) > threads * batch  # every worker gathers before the drop
    gathered: list[tuple[int, int]] = []
    original = codebuild._TransformStep.gather

    def spy(self, weight):
        rows = original(self, weight)
        gathered.append((weight, len(rows)))
        return rows

    monkeypatch.setattr(codebuild._TransformStep, "gather", spy)
    monkeypatch.setattr(codebuild, "_LOW_BITS", low_bits)
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, kept = weight_histogram(basis, 64, threads, keep=caps)
    finally:
        sys.setswitchinterval(interval)
    assert got == hist and kept == {}
    # in the half sweep a swept word and its complement are both words of the
    # code: one of weight 24 stands for one of 40 too, and one of weight 32
    # for two of weight 32
    held = {
        24: sum(n for w, n in gathered if w in (24, 40)),
        32: 2 * sum(n for w, n in gathered if w == 32),
    }
    for w, cap in caps.items():
        assert held[w] <= cap


def test_wrong_transform_fails_the_gather_check(f6):
    # a Hadamard factor with two columns swapped computes wrong weights; the
    # words gathered for a class are recounted by popcount, also under -O
    script = """
import sys
import designforge.codebuild as codebuild
from designforge import CodeSpec, Field, generator_basis
from designforge.checks import CheckFailed

right = codebuild._hadamard

def swapped(bits):
    h = right(bits)
    return h[:, [1, 0, *range(2, len(h))]] if len(h) > 1 else h

basis = generator_basis(CodeSpec("c1", 3), Field(6))
codebuild._hadamard = swapped
try:
    codebuild.weight_histogram(basis, 64, keep={w: 10**6 for w in range(65)})
except CheckFailed:
    sys.exit(0)
sys.exit(3)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=120)
    assert proc.returncode == 0


@st.composite
def span_cases(draw):
    """Random rows (dependent or not) of a random length, a low-table size
    small enough to give odd splits and many batches, and a thread count."""
    length = draw(st.sampled_from([1, 63, 64, 65, 100, 128]))
    rows = draw(st.lists(st.integers(0, (1 << length) - 1), max_size=12))
    if rows and draw(st.booleans()):
        # rows that XOR to the all-one word take the half sweep
        rows[-1] ^= reduce(xor, rows) ^ ((1 << length) - 1)
    return rows, length, draw(st.integers(1, 5)), draw(st.sampled_from([1, 2]))


@settings(max_examples=40, deadline=None)
@given(span_cases(), st.data())
def test_transform_sweep_matches_bit_count_property(case, data):
    rows, length, low_bits, threads = case
    by_weight = _by_weight(rows)
    hist = {w: len(words) for w, words in by_weight.items()}
    drop = data.draw(st.sets(st.sampled_from(sorted(by_weight))))
    caps = {w: len(words) - (w in drop) for w, words in by_weight.items()}
    streamed_weight = data.draw(st.sampled_from(sorted(by_weight)))
    saved = codebuild._LOW_BITS
    codebuild._LOW_BITS = low_bits
    try:
        assert weight_histogram(rows, length, threads) == hist
        got, kept = weight_histogram(rows, length, threads, keep=caps)
        streamed = [
            word
            for chunk in stream_weight_class(rows, length, streamed_weight)
            for word in packed_rows_to_ints(chunk)
        ]
    finally:
        codebuild._LOW_BITS = saved
    assert got == hist
    assert set(kept) == set(by_weight) - drop
    for w, kept_rows in kept.items():
        assert packed_rows_to_ints(kept_rows) == by_weight[w]
    assert streamed == by_weight[streamed_weight]


def test_weight_dtype_at_2_16():
    ones = (1 << 65536) - 1
    assert weight_histogram([ones], 65536) == {0: 1, 65536: 1}
    assert weight_histogram([(1 << 65535) - 1, 1 << 65535], 65536) == {
        0: 1, 1: 1, 65535: 1, 65536: 1,
    }
    # both sweep a word of weight 2^16 itself, which a uint16 weight wraps to 0
    assert weight_histogram([ones], 65537) == {0: 1, 65536: 1}
    chunks = list(stream_weight_class([ones], 65536, 65536))
    assert [w for chunk in chunks for w in packed_rows_to_ints(chunk)] == [ones]


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

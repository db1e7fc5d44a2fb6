from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import designforge.codebuild as codebuild
import designforge.designs as designs
from designforge import (
    CheckFailed,
    CodeSpec,
    EmptyWeightClass,
    InapplicableParameters,
    NonIntegerLambda,
    TrivialDesign,
    blocks_of_weight,
    full_design_report,
    generator_basis,
    lambda_from_identity,
    verify_t_design,
    weight_distribution,
)
from designforge.cli import main
from designforge.codebuild import pack_words, unpack_rows
from ref_codes import enumerate_span, theorem_lambda
from ref_gf2 import naive_t_design_count

C1_S3_ENUMERATOR = {16: 252, 24: 37632, 28: 107520, 32: 233478, 36: 107520, 40: 37632, 48: 252}
C1_S3_LAMBDAS = {16: 15, 24: 5152, 28: 20160, 32: 57443, 36: 33600, 40: 14560, 48: 141}
M4_T3 = {4: 1, 6: 16, 8: 87, 10: 96, 12: 55}
M4_T2 = {4: 7, 6: 56, 8: 203, 10: 168, 12: 77}
C2_32_LAMBDAS = {24: 690, 28: 2352, 32: 7471, 36: 3920, 40: 1950}
C2_31_LAMBDAS = {16: 5, 24: 460, 28: 3360, 32: 5611, 36: 5600, 40: 1300, 48: 47}


def test_lambda_from_identity():
    assert lambda_from_identity(252, 16, 64, 2) == 15
    assert lambda_from_identity(1, 16, 16, 2) == 1  # complete block
    assert lambda_from_identity(448, 6, 16, 2) == 56
    with pytest.raises(NonIntegerLambda):
        lambda_from_identity(1, 3, 16, 2)


def test_blocks_of_weight_counts(f4, f6):
    blocks = list(blocks_of_weight(CodeSpec("c1", 3), f6, 16))
    assert len(blocks) == 252
    assert all(b.bit_count() == 16 for b in blocks)
    assert len(set(blocks)) == 252  # distinct supports
    assert len(list(blocks_of_weight(CodeSpec("c2", 2, 1), f4, 4))) == 140


def test_blocks_empty_class(f4):
    with pytest.raises(EmptyWeightClass):
        list(blocks_of_weight(CodeSpec("c1", 2), f4, 5))


def test_verify_2_design(f6):
    blocks = blocks_of_weight(CodeSpec("c1", 3), f6, 16)
    rep = verify_t_design(blocks, 64, 2)
    assert rep.verified and rep.lam == 15 and rep.b == 252 and rep.k == 16


def test_verify_3_design_steiner(f4):
    blocks = blocks_of_weight(CodeSpec("c1", 2), f4, 4)
    rep = verify_t_design(blocks, 16, 3)
    assert rep.verified and rep.lam == 1  # a Steiner system


def test_verify_2_design_c2(f6):
    rep = verify_t_design(blocks_of_weight(CodeSpec("c2", 3, 1), f6, 48), 64, 2)
    assert rep.verified and rep.lam == 47


def test_verify_against_naive_counter(f4):
    # every nontrivial m=4 class, both t values, against a dict-based count
    spec = CodeSpec("c1", 2)
    dist = weight_distribution(spec, f4)
    for w in (4, 6, 8, 10, 12):
        blocks = list(blocks_of_weight(spec, f4, w))
        sets = [frozenset(i for i in range(16) if (b >> i) & 1) for b in blocks]
        for t in (2, 3):
            counts = naive_t_design_count(sets, 16, t)
            values = set(counts.values())
            rep = verify_t_design(iter(blocks), 16, t, expected_b=dist.entries[w])
            assert rep.verified == (len(values) == 1)
            assert rep.lam == values.pop()


def test_verify_not_constant_witness():
    blocks = [0b00111, 0b01011]  # pair {0,1} covered twice, others less
    rep = verify_t_design(blocks, 5, 2)
    assert not rep.verified and rep.lam is None
    (i1, j1, c1), (i2, j2, c2) = rep.witness
    assert c1 != c2
    naive = naive_t_design_count([frozenset({0, 1, 2}), frozenset({0, 1, 3})], 5, 2)
    assert naive[(i1, j1)] == c1 and naive[(i2, j2)] == c2


def test_verify_trivial_design(f4):
    with pytest.raises(TrivialDesign):
        verify_t_design([(1 << 16) - 1], 16, 2)
    # blocks smaller than t cover no t-subset, also when v < t
    with pytest.raises(TrivialDesign):
        verify_t_design([0b1, 0b10, 0b100], 4, 2)
    with pytest.raises(TrivialDesign):
        verify_t_design([0b1, 0b10], 2, 3)


def test_subset_unranker_is_lex_order():
    for v in range(11):
        for t in (2, 3):
            subsets = list(combinations(range(v), t))
            assert [designs._subset_at(r, v, t) for r in range(len(subsets))] == subsets


@pytest.mark.parametrize("t", [2, 3])
def test_verify_random_blocks_against_naive_counter(t):
    # v = 13 leaves the last incidence byte partly empty
    v, k = 13, 5
    rng = random.Random(t)
    block_sets = [[frozenset(rng.sample(range(v), k)) for _ in range(rng.randrange(1, 60))]
                  for _ in range(8)]
    block_sets.append([frozenset(c) for c in combinations(range(v), k)])  # the complete design
    for sets in block_sets:
        counts = naive_t_design_count(sets, v, t)
        rep = verify_t_design([sum(1 << i for i in s) for s in sets], v, t)
        first, lam = next(iter(counts.items()))
        other = next(((sub, c) for sub, c in counts.items() if c != lam), None)
        if other is None:
            assert rep.verified and rep.lam == lam and rep.witness is None
        else:
            assert not rep.verified and rep.lam is None
            assert rep.witness == ((*first, lam), (*other[0], other[1]))
    assert rep.lam == comb(v - t, k - t)  # the complete design, checked last


@pytest.mark.parametrize("v", [16, 64, 256])
@pytest.mark.parametrize("t", [2, 3])
def test_packed_subset_counts_match_unpacked_reference(t, v, monkeypatch):
    # the counter unpacks its packed rows 64 at a time here, five slices and
    # a part; its counts are those of the whole incidence matrix, in lex
    # order, with each t-subset counted as a product of its t columns
    rng = random.Random(10 * v + t)
    rows = pack_words([rng.getrandbits(v) for _ in range(300)], v)
    monkeypatch.setattr(designs, "_GRAM_ROWS", 64)
    got = designs._subset_counts(rows, v, t)
    bits = unpack_rows(rows, v).astype(np.float64)
    upper = np.triu_indices(v, 1)
    if t == 2:
        expected = (bits.T @ bits)[upper]
    else:
        # the triples (p, j, k) with p < j < k, for p = 0, 1, ... in turn
        triples = [((bits * bits[:, [p]]).T @ bits)[p + 1 :, p + 1 :] for p in range(v - 2)]
        expected = np.concatenate([counts[np.triu_indices(len(counts), 1)] for counts in triples])
    assert got.dtype == np.int64 and len(got) == comb(v, t)
    assert np.array_equal(got, expected)


def test_perturbed_gram_product_fails_under_optimize():
    # one count off in a Gram product fails the diagonal check against the
    # per-point counts, or on the upper triangle the conservation check,
    # also under -O
    script = """
import sys
import numpy as np
from designforge import CodeSpec, Field, blocks_of_weight, verify_t_design
from designforge.checks import CheckFailed

blocks = list(blocks_of_weight(CodeSpec("c1", 3), Field(6), 16))
if not verify_t_design(blocks, 64, 2).verified:
    sys.exit(4)
right = np.matmul
for entry in ((0, 0), (0, 1)):
    def perturbed(a, b, out=None, entry=entry):
        product = right(a, b, out=out)
        product[entry] += 1
        return product
    np.matmul = perturbed
    try:
        verify_t_design(blocks, 64, 2)
    except CheckFailed as exc:
        print(exc)
        continue
    finally:
        np.matmul = right
    sys.exit(3)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "float32 Gram diagonal disagrees with the per-point block counts",
        "t-subset count conservation failed",
    ]


# Bounds on the traced allocation peak of a design report, in MiB: c1_3
# about 20% above 3.76 MiB, at 1 and at 2 threads, with each pair's H0 words
# built once, as its own group of one stream of H0 after the orbit sweep; c1_4_w96
# about 20% above 4.42 MiB at 2 threads (3.89 at 1), when the counting sweep
# kept each pair's words, and it now reads 3.88.  When one stream's chunks
# were split into copies per pair, c1_3 read 5.85 MiB; when the counting
# sweep kept them, 5.59 at 2 threads and 4.05 at 1.  With a per-sweep table
# of every batch index they read 5.42 and 6.71 MiB at 2 threads; before
# gathers and counting took fixed-size slices, 16.65 and 12.50 MiB at 2
# threads, 9.37 and 8.22 at 1.
REPORT_PEAK_MIB = {"c1_4_w96": 5.3, "c1_3": 4.5}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(REPORT_PEAK_MIB))
def test_design_report_allocation_peak(case, threads, f6, f8):
    spec, field, weight = (CodeSpec("c1", 4), f8, 96) if case == "c1_4_w96" else (CodeSpec("c1", 3), f6, None)
    tracemalloc.start()
    try:
        reports = full_design_report(spec, field, 2, threads=threads, weight=weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.verified for r in reports)
    assert peak <= REPORT_PEAK_MIB[case] * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_verify_rejects_mixed_sizes():
    # sizes are counted on one packed word (v <= 64) or summed over several
    # (v > 64), where two sizes may differ only in the last limb
    for v in (5, 100, 256):
        with pytest.raises(ValueError, match="unequal size"):
            verify_t_design([0b111, 0b11], v, 2)
    for v, far in ((100, 99), (256, 200), (256, 255)):
        with pytest.raises(ValueError, match="unequal size"):
            verify_t_design([0b11 | 1 << far, 0b11], v, 2)
    # equal sizes spread over every limb are one class
    blocks = [0b111 | 1 << 70 | 1 << 255, 0b1011 | 1 << 140 | 1 << 200]
    assert verify_t_design(blocks, 256, 2).k == 5
    # sizes past 255, where 8-bit limb counts would wrap: 300 and 556
    # points agree modulo 256
    block = (1 << 300) - 1
    assert verify_t_design([block, block << 700], 1024, 2).k == 300
    for other in ((1 << 301) - 1, (1 << 556) - 1):
        with pytest.raises(ValueError, match="unequal size"):
            verify_t_design([block, other], 1024, 2)


def test_verify_rejects_points_outside_v():
    # a point at or past v, or a negative mask, is bad input on both the
    # 64-bit path (v <= 64) and the byte path (v > 64)
    cases = [(5, 1 << 9), (5, 1 << 70), (5, -1), (100, 1 << 101), (100, 1 << 127), (100, -1),
             (256, 1 << 256), (256, 1 << 300), (256, -1)]
    for v, bad in cases:
        with pytest.raises(ValueError, match="point >= v"):
            verify_t_design([0b00111, 0b01011 | bad], v, 2)


def test_theorem_lambda_c1():
    for i, lam in C1_S3_LAMBDAS.items():
        assert theorem_lambda(CodeSpec("c1", 3), i) == lam
    with pytest.raises(InapplicableParameters):
        theorem_lambda(CodeSpec("c1", 2), 4)
    with pytest.raises(InapplicableParameters):
        theorem_lambda(CodeSpec("c1", 3), 30)
    with pytest.raises(InapplicableParameters):
        theorem_lambda(CodeSpec("c1", 3), 64)  # trivial class


def test_theorem_lambda_c2():
    assert theorem_lambda(CodeSpec("c2", 3, 2), 32) == 7471
    assert theorem_lambda(CodeSpec("c2", 2, 1), 8) == 203
    assert theorem_lambda(CodeSpec("c2", 3, 1), 16) == 5
    for i, lam in C2_31_LAMBDAS.items():
        assert theorem_lambda(CodeSpec("c2", 3, 1), i) == lam


def test_full_report_c1_s3(f6):
    reports = full_design_report(CodeSpec("c1", 3), f6, t=2)
    assert len(reports) == 7
    assert {r.k: r.lam for r in reports} == C1_S3_LAMBDAS
    assert all(r.verified and r.match for r in reports)
    # complement duality: mirrored weights hold equally many blocks
    by_k = {r.k: r for r in reports}
    for k in by_k:
        assert by_k[k].b == by_k[64 - k].b


def test_full_report_m4(f4):
    rep3 = full_design_report(CodeSpec("c1", 2), f4, t=3)
    assert {r.k: r.lam for r in rep3} == M4_T3
    assert all(r.verified for r in rep3)
    rep2 = full_design_report(CodeSpec("c2", 2, 1), f4, t=2)
    assert {r.k: r.lam for r in rep2} == M4_T2
    assert all(r.verified and r.match for r in rep2)
    # lambda_2 = lambda_3 (v-2)/(k-2) ties the two levels together
    lam2 = {r.k: r.lam for r in rep2}
    for r in rep3:
        assert lam2[r.k] * (r.k - 2) == r.lam * (16 - 2)


def test_full_report_c2_s3(f6):
    rep = full_design_report(CodeSpec("c2", 3, 2), f6, t=2)
    assert {r.k: r.lam for r in rep} == C2_32_LAMBDAS
    assert all(r.verified and r.match for r in rep)
    rep = full_design_report(CodeSpec("c2", 3, 1), f6, t=2)
    assert {r.k: r.lam for r in rep} == C2_31_LAMBDAS
    assert all(r.verified and r.match for r in rep)


def test_full_report_single_weight(f6):
    rep = full_design_report(CodeSpec("c1", 3), f6, t=2, weight=16)
    assert len(rep) == 1 and rep[0].k == 16 and rep[0].lam == 15
    with pytest.raises(EmptyWeightClass):
        full_design_report(CodeSpec("c1", 3), f6, t=2, weight=17)


def test_theorem_lambdas_integral_across_sweep():
    # every nontrivial class of every closed-form table divides exactly
    from designforge import closed_form_c1, closed_form_c2_extended

    for s in range(2, 7):
        for l in range(1, s):
            dist = closed_form_c2_extended(s, l)
            for w in dist.weights():
                if w not in (0, dist.length):
                    assert theorem_lambda(CodeSpec("c2", s, l), w) > 0
    for s in (3, 4, 5, 6):
        dist = closed_form_c1(s)
        for w in dist.weights():
            if w not in (0, dist.length):
                assert theorem_lambda(CodeSpec("c1", s), w) > 0


def test_full_report_m8_gates_heavy_classes(f8):
    # without exhaustive, only the classes under the cost gate run
    reports = full_design_report(CodeSpec("c1", 4), f8, t=2, threads=4)
    by_k = {r.k: r for r in reports}
    assert set(by_k) == {96, 112, 120, 128, 136, 144, 160}
    assert not by_k[96].skipped and by_k[96].verified and by_k[96].match
    assert not by_k[160].skipped and by_k[160].verified
    for k in (112, 120, 128, 136, 144):
        assert by_k[k].skipped and by_k[k].lam is None
        assert by_k[k].theorem_lambda is not None  # closed form still reported


def test_gated_report_gathers_no_over_gate_row(capsys, monkeypatch):
    # the gate is decided from the orbit sweep's exact counts before any word is
    # read: of the c1(4) classes only 96 and 160, one pair, are within it,
    # and its 17136 H0 words are the only ones built
    gathered: list[tuple[tuple[int, ...], np.ndarray]] = []
    original = codebuild._TransformStep.gather

    def spy(self, weights):
        rows = original(self, weights)
        gathered.append((weights, codebuild.row_weights(rows)))
        return rows

    monkeypatch.setattr(codebuild._TransformStep, "gather", spy)
    assert main(["designs", "--family", "c1", "--s", "4", "--t", "2", "--threads", "2"]) == 0
    capsys.readouterr()
    assert {w for weights, _ in gathered for w in weights} <= {96, 160}
    sizes = np.concatenate([sizes for _, sizes in gathered])
    assert len(sizes) == 17136
    assert (np.count_nonzero(sizes == 96), np.count_nonzero(sizes == 160)) == (10710, 6426)


@pytest.mark.parametrize("t, calls", [(2, 1), (3, 0)])
def test_report_evaluates_the_closed_form_once(f4, monkeypatch, t, calls):
    # every class's theorem lambda comes from one table; t = 3 reads none
    original = designs.closed_form
    evaluated = []

    def spy(spec):
        evaluated.append(spec)
        return original(spec)

    monkeypatch.setattr(designs, "closed_form", spy)
    spec = CodeSpec("c2", 2, 1)
    reports = full_design_report(spec, f4, t=t)
    assert len(evaluated) == calls
    assert len(reports) == len(M4_T2)
    for r in reports:
        assert r.theorem_lambda == (theorem_lambda(spec, r.k) if t == 2 else None)


def test_report_json(f6):
    rep = full_design_report(CodeSpec("c1", 3), f6, t=2, weight=16)[0]
    obj = rep.to_json_obj()
    assert obj == {
        "t": 2, "v": 64, "k": 16, "b": "252", "lambda": "15",
        "verified": True, "theorem_lambda": "15", "match": True,
    }


@pytest.mark.parametrize(
    "spec_args, t", [(("c1", 3, None), 2), (("c2", 3, 1), 2), (("c1", 2, None), 3)]
)
def test_full_report_thread_invariance(spec_args, t, f4, f6, monkeypatch):
    spec = CodeSpec(*spec_args)
    field = f4 if spec.m == 4 else f6
    monkeypatch.setattr(codebuild.os, "cpu_count", lambda: 8)  # let 8 workers run
    outs = {
        json.dumps([r.to_json_obj() for r in full_design_report(spec, field, t=t, threads=n)])
        for n in (1, 2, 8)
    }
    assert len(outs) == 1


def test_cost_gate_skips_then_restreams(f6, monkeypatch):
    spec = CodeSpec("c2", 3, 1)
    ungated = {r.k: r for r in full_design_report(spec, f6, t=2)}
    gate = 10**6
    heavy = {k for k, r in ungated.items() if r.b * comb(k, 2) > gate}
    assert heavy and heavy != set(ungated)
    monkeypatch.setattr(designs, "COST_GATE", gate)
    streamed = []
    stream = designs.stream_weight_class

    def spy(basis, length, groups):
        streamed.append((groups, len(basis), length))
        return stream(basis, length, groups)

    monkeypatch.setattr(designs, "stream_weight_class", spy)
    gated = full_design_report(spec, f6, t=2)
    assert {r.k for r in gated if r.skipped} == heavy
    assert all(r.lam == ungated[r.k].lam for r in gated if not r.skipped)
    # one stream gathers the pairs of the classes within the gate, 16, 24
    # and 48: its groups are (16, 48) and (24, 40)
    assert [groups for groups, _, _ in streamed] == [((16, 48), (24, 40))]

    streamed.clear()
    exhaustive = full_design_report(spec, f6, t=2, exhaustive=True)
    # the same gather, then classes 28, 32 and 36 stream their H0 pair once
    # each, in class order, as a one-group stream; class 40 is served from
    # pair (24, 40), gathered for class 24
    assert [groups for groups, _, _ in streamed] == [
        ((16, 48), (24, 40)), ((28, 36),), ((32, 32),), ((28, 36),)
    ]
    assert {(k, n) for _, k, n in streamed} == {(15, 64)}  # the H0 basis: dim - 1 rows
    assert {r.k: r.lam for r in exhaustive} == {k: r.lam for k, r in ungated.items()}
    assert all(r.verified and r.match and not r.skipped for r in exhaustive)


@pytest.mark.parametrize("t", [1, 4])
def test_bad_t_is_rejected_before_any_sweep(t, f8, monkeypatch):
    # one check of t serves both entry points; the report runs it before
    # building H0, so c1(4) never starts its orbit sweep or its 2^24-word stream
    def no_call(*args, **kwargs):
        raise AssertionError("the report built or swept a basis")

    monkeypatch.setattr(designs, "h0_basis", no_call)
    monkeypatch.setattr(designs, "weight_distribution", no_call)
    monkeypatch.setattr(designs, "stream_weight_class", no_call)
    with pytest.raises(ValueError, match=f"t must be 2 or 3, got {t}"):
        full_design_report(CodeSpec("c1", 4), f8, t=t)
    with pytest.raises(ValueError, match=f"t must be 2 or 3, got {t}"):
        verify_t_design([0b1111], 8, t)


@pytest.mark.parametrize("spec_args", [("c1", 2, None), ("c2", 2, 1), ("c1", 3, None), ("c2", 3, 1)])
def test_swept_rows_are_the_extended_classes(spec_args, f4, f6, monkeypatch):
    # every class is assembled from h = 0 rows and complements, yet holds
    # exactly the extended code's words of its weight, the class v/2 too
    spec = CodeSpec(*spec_args)
    field = f4 if spec.m == 4 else f6
    served = {}
    blocks = designs.blocks_of_weight

    def spy(spec, field, weight, chunks=None):
        kept = isinstance(chunks, list)  # the report's gathered chunks, not a stream
        words = list(blocks(spec, field, weight, chunks))
        served[weight] = words if kept else None
        return iter(words)

    monkeypatch.setattr(designs, "blocks_of_weight", spy)
    reports = full_design_report(spec, field, t=2)
    assert all(r.verified for r in reports)
    by_weight: dict[int, list[int]] = {}
    for word in enumerate_span(generator_basis(spec, field)):
        by_weight.setdefault(word.bit_count(), []).append(word)
    assert spec.length // 2 in served
    assert set(served) == set(by_weight) - {0, spec.length}
    for w, words in served.items():
        assert words is not None
        assert sorted(words) == sorted(by_weight[w])


@pytest.mark.parametrize("spec_args", [("c1", 2, None), ("c2", 2, 1), ("c1", 3, None), ("c2", 3, 1)])
def test_one_block_order_for_every_route(spec_args, f4, f6, monkeypatch):
    # a class streamed on its own over the H0 basis comes in the same order
    # as its pair's group of the report's one gather of every class
    spec = CodeSpec(*spec_args)
    field = f4 if spec.m == 4 else f6
    passed = {}
    verify = designs.verify_t_design
    streamed = []
    stream = designs.stream_weight_class

    def spy(blocks, v, t, expected_b=None):
        blocks = list(blocks)
        passed[blocks[0].bit_count()] = blocks
        return verify(blocks, v, t, expected_b)

    def spy_stream(basis, length, groups):
        streamed.append(groups)
        return stream(basis, length, groups)

    with monkeypatch.context() as patch:
        patch.setattr(designs, "verify_t_design", spy)
        patch.setattr(designs, "stream_weight_class", spy_stream)
        full_design_report(spec, field, t=2)
    classes = set(weight_distribution(spec, field).entries) - {0, spec.length}
    assert set(passed) == classes
    assert streamed == [tuple(sorted({(min(w, spec.length - w), max(w, spec.length - w)) for w in classes}))]
    for w, blocks in passed.items():
        assert list(blocks_of_weight(spec, field, w)) == blocks


def test_export_blocks_prints_the_report_order(f4, capsys, monkeypatch):
    spec = CodeSpec("c1", 2)
    passed = []
    verify = designs.verify_t_design

    def spy(blocks, v, t, expected_b=None):
        passed.extend(blocks)
        return verify(passed, v, t, expected_b)

    monkeypatch.setattr(designs, "verify_t_design", spy)
    full_design_report(spec, f4, t=2, weight=4)
    assert main(["designs", "--family", "c1", "--s", "2", "--weight", "4", "--export-blocks"]) == 0
    lines = capsys.readouterr().out.splitlines()

    def line(mask):
        return " ".join(str(i) for i in range(16) if mask >> i & 1)

    assert lines == [line(mask) for mask in passed]
    span = [word for word in enumerate_span(generator_basis(spec, f4)) if word.bit_count() == 4]
    assert len(span) == 140
    assert set(lines) == {line(mask) for mask in span}


# The streams of the c1(3) report with the gate one increment below class
# k's cost, then of the same report with exhaustive set, each as its
# groups: the gather of the pairs of the classes within the gate (none at
# k = 16, every class but 32 at k = 32, class 16 at k = 48), then, in class
# order, the pair of each class above the gate that the gather does not
# hold, streamed on its own.  Class 48 is served from the pair (16, 48)
# gathered for class 16.
BELOW_GATE_STREAMS = {
    16: ([], [((16, 48),), ((24, 40),), ((28, 36),), ((32, 32),), ((28, 36),), ((24, 40),), ((16, 48),)]),
    32: ([((16, 48), (24, 40), (28, 36))], [((16, 48), (24, 40), (28, 36)), ((32, 32),)]),
    48: ([((16, 48),)], [((16, 48),), ((24, 40),), ((28, 36),), ((32, 32),), ((28, 36),), ((24, 40),)]),
}


@pytest.mark.parametrize("k", [16, 32, 48])
def test_cost_gate_boundary_serves_sweep_rows(k, f6, monkeypatch):
    # a class costing exactly the gate is verified from the report's one
    # gather stream, which has its pair as a group; one increment less and it is
    # skipped, and the streams are those of BELOW_GATE_STREAMS
    spec = CodeSpec("c1", 3)
    b = C1_S3_ENUMERATOR[k]
    streamed = []
    stream = designs.stream_weight_class

    def spy(basis, length, groups):
        streamed.append(groups)
        return stream(basis, length, groups)

    monkeypatch.setattr(designs, "stream_weight_class", spy)
    pair = (min(k, 64 - k), max(k, 64 - k))
    monkeypatch.setattr(designs, "COST_GATE", b * comb(k, 2))
    by_k = {r.k: r for r in full_design_report(spec, f6, t=2)}
    assert len(streamed) == 1 and pair in streamed[0]
    assert not by_k[k].skipped and by_k[k].lam == C1_S3_LAMBDAS[k]
    monkeypatch.setattr(designs, "COST_GATE", b * comb(k, 2) - 1)
    gathered, exhaustive = BELOW_GATE_STREAMS[k]
    streamed.clear()
    by_k = {r.k: r for r in full_design_report(spec, f6, t=2)}
    assert by_k[k].skipped and streamed == gathered
    streamed.clear()
    by_k = {r.k: r for r in full_design_report(spec, f6, t=2, exhaustive=True)}
    assert by_k[k].lam == C1_S3_LAMBDAS[k]
    assert streamed == exhaustive


@pytest.mark.parametrize("spec_args", [("c1", 3, None), ("c2", 3, 1)])
def test_class_pairs_are_complements(spec_args, f6):
    # block j of class v - w is block j of class w complemented, and class
    # v/2 holds each H0 word of weight v/2 and its complement
    spec = CodeSpec(*spec_args)
    ones = (1 << 64) - 1
    hist = codebuild.weight_histogram(codebuild.h0_basis(spec, f6), 64)
    classes = weight_distribution(spec, f6).entries
    for w in classes:
        if 0 < w < 32:
            blocks = list(blocks_of_weight(spec, f6, w))
            assert list(blocks_of_weight(spec, f6, 64 - w)) == [block ^ ones for block in blocks]
    middle = list(blocks_of_weight(spec, f6, 32))
    assert len(middle) == classes[32] == 2 * hist[32]
    assert {block ^ ones for block in middle} == set(middle)


@pytest.mark.parametrize("weight", [5, -2, 18])
def test_blocks_of_weight_rejects_before_streaming(weight, f4, monkeypatch):
    streamed = []
    monkeypatch.setattr(designs, "stream_weight_class", lambda *args: streamed.append(args) or iter(()))
    with pytest.raises(EmptyWeightClass, match=f"^no nontrivial class at weights \\[{weight}\\]$"):
        next(blocks_of_weight(CodeSpec("c1", 2), f4, weight))
    assert streamed == []


def test_t3_witness_matches_naive_counter(f6):
    # c2(3,1) weight 16 is no 3-design: b*C(16,3) is not a multiple of C(64,3)
    blocks = list(blocks_of_weight(CodeSpec("c2", 3, 1), f6, 16))
    rep = verify_t_design(iter(blocks), 64, 3)
    assert not rep.verified and rep.lam is None
    sets = [frozenset(i for i in range(64) if (b >> i) & 1) for b in blocks]
    naive = naive_t_design_count(sets, 64, 3)
    (*s1, c1), (*s2, c2) = rep.witness
    assert c1 != c2
    assert naive[tuple(s1)] == c1 and naive[tuple(s2)] == c2


def test_block_count_mismatch_is_a_failed_check(f6):
    assert not issubclass(CheckFailed, ValueError)  # the CLI maps ValueError to exit 2
    spec = CodeSpec("c1", 3)
    with pytest.raises(CheckFailed):
        verify_t_design(blocks_of_weight(spec, f6, 16), 64, 2, expected_b=253)


def test_lost_block_fails_the_count_guard(capsys, monkeypatch):
    # a stream that loses one block of a class fails the report's one count
    # guard, which the CLI maps to exit 1
    blocks = designs.blocks_of_weight

    def lossy(*args, **kwargs):
        stream = blocks(*args, **kwargs)
        next(stream)
        return stream

    monkeypatch.setattr(designs, "blocks_of_weight", lossy)
    code = main(["designs", "--family", "c1", "--s", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "CheckFailed: weight 4: streamed 139 blocks, expected 140" in captured.err

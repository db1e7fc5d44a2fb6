from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb

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
    theorem_lambda,
    verify_t_design,
    weight_distribution,
)
from designforge.cli import main
from designforge.codebuild import enumerate_span
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
    gated = full_design_report(spec, f6, t=2)
    assert {r.k for r in gated if r.skipped} == heavy
    assert all(r.lam == ungated[r.k].lam for r in gated if not r.skipped)

    streamed = []
    stream = designs.stream_weight_class

    def spy(basis, length, weights):
        streamed.append((weights, len(basis), length))
        return stream(basis, length, weights)

    monkeypatch.setattr(designs, "stream_weight_class", spy)
    exhaustive = full_design_report(spec, f6, t=2, exhaustive=True)
    # classes 28, 32 and 36 stream their H0 pair once each; class 40 is
    # served from pair (24, 40), kept for class 24
    assert sorted(w for w, _, _ in streamed) == [(28, 36), (28, 36), (32, 32)]
    assert {(k, n) for _, k, n in streamed} == {(15, 64)}  # the H0 basis: dim - 1 rows
    assert {r.k: r.lam for r in exhaustive} == {k: r.lam for k, r in ungated.items()}
    assert all(r.verified and r.match and not r.skipped for r in exhaustive)


@pytest.mark.parametrize("spec_args", [("c1", 2, None), ("c2", 2, 1), ("c1", 3, None), ("c2", 3, 1)])
def test_swept_rows_are_the_extended_classes(spec_args, f4, f6, monkeypatch):
    # every class is assembled from h = 0 rows and complements, yet holds
    # exactly the extended code's words of its weight, the class v/2 too
    spec = CodeSpec(*spec_args)
    field = f4 if spec.m == 4 else f6
    served = {}
    blocks = designs.blocks_of_weight

    def spy(spec, field, weight, chunks=None):
        kept = isinstance(chunks, list)  # a sweep's kept chunks, not a stream
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
    # a class streamed over the H0 basis comes in the same order as the
    # one the report assembles from the sweep's kept rows
    spec = CodeSpec(*spec_args)
    field = f4 if spec.m == 4 else f6
    passed = {}
    verify = designs.verify_t_design

    def spy(blocks, v, t, expected_b=None):
        blocks = list(blocks)
        passed[blocks[0].bit_count()] = blocks
        return verify(blocks, v, t, expected_b)

    def no_stream(*args):
        raise AssertionError("the report streamed a class")

    with monkeypatch.context() as patch:
        patch.setattr(designs, "verify_t_design", spy)
        patch.setattr(designs, "stream_weight_class", no_stream)
        full_design_report(spec, field, t=2)
    assert set(passed) == set(weight_distribution(spec, field).entries) - {0, spec.length}
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


@pytest.mark.parametrize("k", [16, 32, 48])
def test_cost_gate_boundary_serves_sweep_rows(k, f6, monkeypatch):
    # a class costing exactly the gate is verified from the sweep's rows,
    # since its pair's cap is at least its own; one increment less and it
    # is skipped, and neither report streams
    spec = CodeSpec("c1", 3)
    b = C1_S3_ENUMERATOR[k]
    streamed = []
    stream = designs.stream_weight_class

    def spy(basis, length, weights):
        streamed.append(weights)
        return stream(basis, length, weights)

    monkeypatch.setattr(designs, "stream_weight_class", spy)
    monkeypatch.setattr(designs, "COST_GATE", b * comb(k, 2))
    by_k = {r.k: r for r in full_design_report(spec, f6, t=2)}
    assert streamed == []
    assert not by_k[k].skipped and by_k[k].lam == C1_S3_LAMBDAS[k]
    monkeypatch.setattr(designs, "COST_GATE", b * comb(k, 2) - 1)
    by_k = {r.k: r for r in full_design_report(spec, f6, t=2)}
    assert by_k[k].skipped and streamed == []
    by_k = {r.k: r for r in full_design_report(spec, f6, t=2, exhaustive=True)}
    assert by_k[k].lam == C1_S3_LAMBDAS[k]
    if k == 48:
        # its pair (16, 48) is kept for class 16, so it is not streamed
        assert (16, 48) not in streamed
    else:
        assert (k, 64 - k) in streamed


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

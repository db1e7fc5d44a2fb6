from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import xor

import pytest

from designforge import (
    CodeSpec,
    InapplicableParameters,
    NonIntegerCount,
    OddSum,
    WeightCollision,
    WeightDistribution,
    ZeroForm,
    closed_form_c1,
    closed_form_c2_cyclic,
    closed_form_c2_extended,
    cyclic_weight_distribution,
    exp_sum,
    extend_distribution,
    generator_basis,
    pless_verify,
    quadform_rank,
    weight_distribution,
    weight_from_sum,
)
from designforge.codebuild import weight_histogram
from designforge.spectrum import _as_count, _build
from ref_gf2 import ref_exp_sum

M4_ENUMERATOR = {0: 1, 4: 140, 6: 448, 8: 870, 10: 448, 12: 140, 16: 1}
C1_S3_ENUMERATOR = {0: 1, 16: 252, 24: 37632, 28: 107520, 32: 233478,
                    36: 107520, 40: 37632, 48: 252, 64: 1}
C2_32_ENUMERATOR = {0: 1, 24: 5040, 28: 12544, 32: 30366, 36: 12544, 40: 5040, 64: 1}
C2_31_ENUMERATOR = {0: 1, 16: 84, 24: 3360, 28: 17920, 32: 22806,
                    36: 17920, 40: 3360, 48: 84, 64: 1}


def test_golden_enumerators_small(f4, f6):
    d = weight_distribution(CodeSpec("c1", 2), f4)
    assert (d.entries, d.dimension) == (M4_ENUMERATOR, 11)
    d = weight_distribution(CodeSpec("c2", 2, 1), f4)
    assert (d.entries, d.dimension) == (M4_ENUMERATOR, 11)
    d = weight_distribution(CodeSpec("c1", 3), f6)
    assert (d.entries, d.dimension) == (C1_S3_ENUMERATOR, 19)
    assert d.min_distance() == 16
    d = weight_distribution(CodeSpec("c2", 3, 2), f6)
    assert (d.entries, d.dimension) == (C2_32_ENUMERATOR, 16)
    d = weight_distribution(CodeSpec("c2", 3, 1), f6)
    assert (d.entries, d.dimension) == (C2_31_ENUMERATOR, 16)


@pytest.mark.parametrize("spec", [
    CodeSpec("c1", 2), CodeSpec("c1", 3), CodeSpec("c1", 4), CodeSpec("c2", 2, 1),
    CodeSpec("c2", 3, 1), CodeSpec("c2", 3, 2), CodeSpec("c2", 4, 1), CodeSpec("c2", 4, 3),
])
def test_extended_distribution_routes_agree(spec, f4, f6, f8):
    # a sweep of the whole extended basis against the cyclic sweep extended
    # by complements (the route weight_distribution and designs take)
    f = {4: f4, 6: f6, 8: f8}[spec.m]
    basis = generator_basis(spec, f)
    assert reduce(xor, basis) == (1 << spec.length) - 1  # the span holds the all-one word
    dist = weight_distribution(spec, f)
    assert weight_histogram(basis, spec.length, threads=2) == dist.entries
    assert dist.dimension == len(basis)


def test_palindrome_symmetry(f6):
    d = weight_distribution(CodeSpec("c2", 3, 1), f6)
    assert all(d.entries[w] == d.entries[64 - w] for w in d.entries)


def test_closed_form_c1_rows():
    d = closed_form_c1(3)
    assert d.entries == C1_S3_ENUMERATOR
    assert (d.length, d.dimension) == (64, 19)
    d4 = closed_form_c1(4)
    assert d4.entries[96] == 17136
    assert d4.entries[128] == 15137310
    assert d4.total() == 1 << 25
    with pytest.raises(InapplicableParameters):
        closed_form_c1(2)


def test_closed_form_c1_matches_enumeration(f6):
    assert closed_form_c1(3) == weight_distribution(CodeSpec("c1", 3), f6)


def test_closed_form_c2_rows():
    assert closed_form_c2_extended(3, 2).entries == C2_32_ENUMERATOR
    assert closed_form_c2_extended(3, 1).entries == C2_31_ENUMERATOR
    assert closed_form_c2_extended(2, 1).entries == M4_ENUMERATOR
    assert closed_form_c2_extended(2, 1).entries[8] == 870


def test_closed_form_c2_matches_enumeration(f4, f6):
    for s, l in [(2, 1), (3, 1), (3, 2)]:
        field = f4 if s == 2 else f6
        assert closed_form_c2_extended(s, l) == weight_distribution(CodeSpec("c2", s, l), field)


def test_closed_form_c2_cyclic_matches_enumeration(f4, f6):
    for s, l in [(2, 1), (3, 1), (3, 2)]:
        field = f4 if s == 2 else f6
        assert closed_form_c2_cyclic(s, l) == cyclic_weight_distribution(CodeSpec("c2", s, l), field)


def test_closed_form_extension_identity():
    # pure closed forms: extending the cyclic table gives the extended table
    for s in range(2, 7):
        for l in range(1, s):
            assert extend_distribution(closed_form_c2_cyclic(s, l)) == closed_form_c2_extended(s, l)


def test_cyclic_c2_sum_checks():
    assert closed_form_c2_cyclic(3, 1).total() == 1 << 15
    assert closed_form_c2_cyclic(3, 2).total() == 1 << 15


def test_non_integer_count_tripwire():
    with pytest.raises(NonIntegerCount):
        _as_count(Fraction(1, 3), "bogus row")
    with pytest.raises(NonIntegerCount):
        _as_count(Fraction(-2), "negative row")


@pytest.mark.parametrize("first", [Fraction(1), Fraction(0)])
def test_repeated_weight_tripwire(first):
    # a second row at one weight, e.g. closed_form_c1's tail row w0 + 2^(s+1)
    # on the all-one row 16 at s = 2, is caught whatever the first row counts
    rows = [(16, first), (8, Fraction(30)), (16, Fraction(1))]
    with pytest.raises(InapplicableParameters, match="^weight 16 produced by two rows$"):
        _build(rows, 16, 5)


def test_extend_distribution_zero_code():
    ext = extend_distribution(WeightDistribution({0: 1}, 63, 0))
    assert ext.entries == {0: 1, 64: 1}
    assert (ext.length, ext.dimension) == (64, 1)


def test_extend_distribution_cyclic_c1(f6):
    cyc = cyclic_weight_distribution(CodeSpec("c1", 3), f6)
    assert extend_distribution(cyc).entries == C1_S3_ENUMERATOR


def test_extend_weight_collision():
    with pytest.raises(WeightCollision):
        extend_distribution(WeightDistribution({0: 1, 3: 1}, 63, 1))


def test_exp_sum_trivial(f4, f6):
    assert exp_sum(f4, 0, 0, 0) == 16
    assert exp_sum(f6, 0, 0, 0) == 64
    for c in range(1, 16):
        assert exp_sum(f4, 0, 0, c) == 0


def test_exp_sum_against_reference(f4):
    # direct 16-term summation with an independent field implementation
    for a in range(16):
        for b in range(0, 16, 3):
            for c in range(0, 16, 5):
                assert exp_sum(f4, a, b, c) == ref_exp_sum(a, b, c, f4.poly, 4)


def test_quadform_examples(f6, f8):
    p = quadform_rank(f8, 1, 0)
    assert (p.kernel_size, p.rank) == (16, 4)  # kernel is the GF(16) subfield
    p = quadform_rank(f6, 0, 1)
    assert (p.kernel_size, p.rank) == (4, 4)  # {0} plus the three sixth roots of 1
    with pytest.raises(ZeroForm):
        quadform_rank(f6, 0, 0)


def test_quadform_rank_range_exhaustive(f4):
    for a in range(16):
        for b in range(16):
            if (a, b) == (0, 0):
                continue
            p = quadform_rank(f4, a, b)
            assert p.rank in (4, 2, 0)
            assert p.kernel_size == 1 << (4 - p.rank)


def test_exp_sum_value_set_m4(f4):
    for a in range(16):
        for b in range(16):
            if (a, b) == (0, 0):
                continue
            mag = 1 << (4 - quadform_rank(f4, a, b).rank // 2)
            assert {exp_sum(f4, a, b, c) for c in range(16)} <= {0, mag, -mag}


def test_weight_from_sum(f4):
    assert weight_from_sum(0, 3) == 32
    assert weight_from_sum(16, 3) == 24  # S = 2^(s+1) row
    assert weight_from_sum(16, 2) == 0  # the all-x-plus-one case S = q
    with pytest.raises(OddSum):
        weight_from_sum(3, 2)


def test_pless_cyclic_c1_s3(f6):
    cyc = cyclic_weight_distribution(CodeSpec("c1", 3), f6)
    assert (cyc.length, cyc.dimension) == (63, 18)
    assert bool(pless_verify(cyc))


@pytest.mark.parametrize("spec,failing_identity", [
    (CodeSpec("c1", 2), None),
    (CodeSpec("c1", 3), None),
    (CodeSpec("c2", 2, 1), None),
    (CodeSpec("c2", 3, 1), 6),
    (CodeSpec("c2", 3, 2), 6),
    (CodeSpec("c2", 4, 1), 6),
    (CodeSpec("c2", 4, 3), 6),
])
def test_pless_precondition_holds_for_c1_only(spec, failing_identity, f4, f6, f8):
    # the moment identities assume a dual without words of weight <= 6: true
    # for the c1 codes (duals of triple-error-correcting BCH codes), false for
    # c2 beyond m = 4, so no c2 code belongs among golden.PLESS_CASES
    f = {4: f4, 6: f6, 8: f8}[spec.m]
    cyc = cyclic_weight_distribution(spec, f, threads=2)
    res = pless_verify(cyc)
    if failing_identity is None:
        assert res.ok and res.first_failure is None
    else:
        assert not res.ok and res.first_failure[0] == failing_identity


def test_pless_detects_perturbation(f6):
    cyc = cyclic_weight_distribution(CodeSpec("c1", 3), f6)
    bad = dict(cyc.entries)
    bad[16] += 1
    res = pless_verify(WeightDistribution(bad, 63, 18))
    assert not res
    assert res.first_failure[0] == 1  # sum A_i = 2^k is the first to break


def test_pless_reads_the_macwilliams_dual():
    # the [7,4] Hamming code's dual is the [7,3] simplex code, whose seven
    # nonzero words have weight 4: identity 5 reads 2^4 * B_4 = 16 * 7
    hamming = WeightDistribution({0: 1, 3: 7, 4: 7, 7: 1}, 7, 4)
    assert pless_verify(hamming).first_failure == (5, 112, 0)


def test_distribution_json_serialization(f4):
    d = weight_distribution(CodeSpec("c1", 2), f4)
    obj = d.to_json_obj()
    assert obj["length"] == 16 and obj["dimension"] == 11
    assert obj["weights"][1] == {"w": 4, "count": "140"}


def test_validate_survives_optimize_flag():
    # the distribution guards are real checks, not asserts that -O strips
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "from designforge.checks import CheckFailed\n"
        "from designforge.spectrum import WeightDistribution\n"
        "try:\n"
        "    WeightDistribution({0: 1, 3: 5}, 8, 3).validate()\n"
        "except CheckFailed:\n"
        "    raise SystemExit(7)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 7

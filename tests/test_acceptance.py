"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Expected values are frozen literals.  Where a criterion says exhaustive,
the loops below really do cover the whole parameter space.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from designforge import (
    CodeSpec,
    Field,
    WeightDistribution,
    build_codeword,
    closed_form_c1,
    closed_form_c2_cyclic,
    closed_form_c2_extended,
    closure_check,
    cyclic_weight_distribution,
    defining_set_of_family,
    extend_distribution,
    full_design_report,
    affine_orbit_check,
    pless_verify,
    weight_distribution,
)
from designforge.cli import main as cli_main
from designforge.codebuild import cyclic_generator_basis
from designforge.polyops import cyclotomic_coset, poly_degree
from ref_codes import bch_generator, quadform_rank

GOLDEN = {
    ("c1", 3, None): (19, {0: 1, 16: 252, 24: 37632, 28: 107520, 32: 233478,
                           36: 107520, 40: 37632, 48: 252, 64: 1}),
    ("c1", 4, None): (25, {0: 1, 96: 17136, 112: 2437120, 120: 6754304, 128: 15137310,
                           136: 6754304, 144: 2437120, 160: 17136, 256: 1}),
    ("c1", 2, None): (11, {0: 1, 4: 140, 6: 448, 8: 870, 10: 448, 12: 140, 16: 1}),
    ("c2", 2, 1): (11, {0: 1, 4: 140, 6: 448, 8: 870, 10: 448, 12: 140, 16: 1}),
    ("c2", 3, 2): (16, {0: 1, 24: 5040, 28: 12544, 32: 30366, 36: 12544, 40: 5040, 64: 1}),
    ("c2", 3, 1): (16, {0: 1, 16: 84, 24: 3360, 28: 17920, 32: 22806,
                        36: 17920, 40: 3360, 48: 84, 64: 1}),
}

C1_S3_LAMBDAS = {16: 15, 24: 5152, 28: 20160, 32: 57443, 36: 33600, 40: 14560, 48: 141}
M4_T3 = {4: 1, 6: 16, 8: 87, 10: 96, 12: 55}
M4_T2 = {4: 7, 6: 56, 8: 203, 10: 168, 12: 77}
C2_32_LAMBDAS = {24: 690, 28: 2352, 32: 7471, 36: 3920, 40: 1950}
C2_31_LAMBDAS = {16: 5, 24: 460, 28: 3360, 32: 5611, 36: 5600, 40: 1300, 48: 47}


@pytest.fixture(scope="module")
def fields():
    return {4: Field(4), 6: Field(6), 8: Field(8)}


def test_criterion_1_golden_enumerators(fields):
    for (family, s, l), (dim, enumerator) in GOLDEN.items():
        spec = CodeSpec(family, s, l)
        dist = weight_distribution(spec, fields[spec.m], threads=4)
        assert dist.dimension == dim, spec.label()
        assert dist.entries == enumerator, spec.label()
    print("ACCEPTANCE 1: PASS - all six published enumerators reproduced exactly")


def test_criterion_2_closed_form_consistency(fields):
    assert closed_form_c1(3) == weight_distribution(CodeSpec("c1", 3), fields[6])
    assert closed_form_c1(4) == weight_distribution(CodeSpec("c1", 4), fields[8], threads=4)
    for s, l in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]:
        spec = CodeSpec("c2", s, l)
        assert closed_form_c2_extended(s, l) == weight_distribution(
            spec, fields[spec.m], threads=4
        ), spec.label()
    # pure closed-form identity between the cyclic and extended tables
    for s in range(2, 7):
        for l in range(1, s):
            assert extend_distribution(closed_form_c2_cyclic(s, l)) == closed_form_c2_extended(s, l)
    print("ACCEPTANCE 2: PASS - closed forms equal enumeration; table extension identity holds")


def test_criterion_3_design_verification(fields):
    reports = full_design_report(CodeSpec("c1", 3), fields[6], t=2)
    assert {r.k: r.lam for r in reports} == C1_S3_LAMBDAS
    assert all(r.verified and r.match for r in reports)

    rep = full_design_report(CodeSpec("c1", 2), fields[4], t=3)
    assert {r.k: r.lam for r in rep} == M4_T3 and all(r.verified for r in rep)

    rep = full_design_report(CodeSpec("c2", 2, 1), fields[4], t=2)
    assert {r.k: r.lam for r in rep} == M4_T2 and all(r.verified and r.match for r in rep)

    rep = full_design_report(CodeSpec("c2", 3, 2), fields[6], t=2)
    assert {r.k: r.lam for r in rep} == C2_32_LAMBDAS and all(r.verified and r.match for r in rep)

    rep = full_design_report(CodeSpec("c2", 3, 1), fields[6], t=2)
    assert {r.k: r.lam for r in rep} == C2_31_LAMBDAS and all(r.verified and r.match for r in rep)
    print("ACCEPTANCE 3: PASS - every published (i, lambda) pair brute-force verified")


def test_criterion_4_affine_invariance(fields):
    specs = [CodeSpec("c1", 2), CodeSpec("c1", 3), CodeSpec("c1", 4),
             CodeSpec("c2", 2, 1), CodeSpec("c2", 3, 1), CodeSpec("c2", 3, 2),
             CodeSpec("c2", 4, 1), CodeSpec("c2", 4, 3)]
    for spec in specs:
        ok, witness = closure_check(set(defining_set_of_family(spec)), spec.m)
        assert ok and witness is None, spec.label()
    for spec in specs:
        assert affine_orbit_check(spec, fields[spec.m]), spec.label()
    bad = {0} | set(cyclotomic_coset(7, 15).members)
    assert closure_check(bad, 4) == (False, (7, 3))
    print("ACCEPTANCE 4: PASS - closure and orbit checks pass; negative witness is (7, 3)")


def test_criterion_5_pless_suite(fields):
    for s, n, k in [(3, 63, 18), (4, 255, 24)]:
        dist = cyclic_weight_distribution(CodeSpec("c1", s), fields[2 * s], threads=4)
        assert (dist.length, dist.dimension) == (n, k)
        assert bool(pless_verify(dist))
        perturbed = dict(dist.entries)
        w = dist.min_distance()
        perturbed[w] += 1
        assert not pless_verify(WeightDistribution(perturbed, n, k))
    print("ACCEPTANCE 5: PASS - seven power moments hold for s=3, 4; perturbation detected")


def test_criterion_6_exp_sum_and_rank(fields):
    for m in (4, 6):
        f = fields[m]
        q = f.q
        spec = CodeSpec("c1", m // 2)
        # precompute c*alpha^i for the direct weight route
        prod = np.zeros((q, f.n), dtype=np.int64)
        for cval in range(1, q):
            prod[cval] = f.scalar_mul_vec(cval, f.exp_np[: f.n])
        i = np.arange(f.n, dtype=np.int64)
        x5 = f.exp_np[(5 * i) % f.n]
        x3 = f.exp_np[(3 * i) % f.n]
        # S = q - 2 * weight of the c1 word, on every (a, b) row at m = 4 and
        # on a sample of 64 rows at m = 6
        checked_rows = set(range(q * q) if m == 4 else random.Random(m).sample(range(q * q), 64))
        for a in range(q):
            base_a = f.scalar_mul_vec(a, x5)
            for b in range(q):
                base = base_a ^ f.scalar_mul_vec(b, x3)
                weights = f.trace_np[base[None, :] ^ prod].sum(axis=1, dtype=np.int64)
                sums = (q - 2 * weights).tolist()  # S(a, b, c) for every c
                if (a, b) != (0, 0):
                    r = quadform_rank(f, a, b).rank
                    assert r in (m, m - 2, m - 4) and r % 2 == 0
                    mag = 1 << (m - r // 2)
                    assert set(sums) <= {0, mag, -mag}
                if a * q + b in checked_rows:
                    assert [q - 2 * build_codeword(spec, f, a, b, c).bit_count() for c in range(q)] == sums

    f8 = fields[8]
    rng = random.Random(20260810)
    checked = 0
    while checked < 10_000:
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        if (a, b) == (0, 0):
            continue
        r = quadform_rank(f8, a, b).rank
        assert r in (8, 6, 4)
        word = build_codeword(CodeSpec("c1", 4), f8, a, b, c)
        s_val = f8.q - 2 * word.bit_count()
        mag = 1 << (8 - r // 2)
        assert s_val in (0, mag, -mag)
        cyclic_word = word >> 1
        assert cyclic_word.bit_count() == (1 << 7) - s_val // 2  # 2^(2s-1) - S/2
        checked += 1
    print("ACCEPTANCE 6: PASS - value/rank laws exhaustive for m=4,6 and on 10^4 m=8 samples")


def test_criterion_7_determinism(capsys):
    outputs = {"weights": [], "designs": []}
    for threads in ("1", "2", "8"):
        code = cli_main(["weights", "--family", "c1", "--s", "3", "--threads", threads])
        out = capsys.readouterr().out
        assert code == 0
        outputs["weights"].append(out.encode())
        code = cli_main(["designs", "--family", "c2", "--s", "3", "--l", "1",
                         "--t", "2", "--threads", threads])
        out = capsys.readouterr().out
        assert code == 0
        outputs["designs"].append(out.encode())
    assert outputs["weights"][0] == outputs["weights"][1] == outputs["weights"][2]
    assert outputs["designs"][0] == outputs["designs"][1] == outputs["designs"][2]
    json.loads(outputs["weights"][0])  # well-formed JSON
    print("ACCEPTANCE 7: PASS - byte-identical reports across 1, 2, 8 workers")


@pytest.mark.parametrize("s", [2, 3, 4])
def test_cyclic_c1_dual_is_triple_error_correcting_bch(s, fields):
    # the paper's "related to the triple-error-correcting BCH codes": the
    # cyclic c1(s) code is the dual of the BCH code of designed distance 7
    f = fields[2 * s]
    n = f.n
    basis = cyclic_generator_basis(CodeSpec("c1", s), f)
    g = bch_generator(7, f)
    ones = (1 << n) - 1
    shifts = [((g << j) | (g >> (n - j))) & ones for j in range(n)]
    assert all((row & shift).bit_count() % 2 == 0 for row in basis for shift in shifts)
    assert len(basis) + (n - poly_degree(g)) == n

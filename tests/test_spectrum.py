from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import xor
from pathlib import Path
from random import Random

import pytest

from designforge import (
    CheckFailed,
    CodeSpec,
    Field,
    InapplicableParameters,
    NonIntegerCount,
    WeightCollision,
    WeightDistribution,
    build_codeword,
    closed_form,
    closed_form_c1,
    closed_form_c2_cyclic,
    closed_form_c2_extended,
    cyclic_weight_distribution,
    extend_distribution,
    generator_basis,
    pless_verify,
    weight_distribution,
)
from designforge import golden
import designforge.spectrum as spectrum
from designforge.codebuild import cyclic_generator_basis, slot_words, weight_histogram
from designforge.spectrum import _as_count, _build
from one_layer import one_layer_basis
from plain_sweep import span_distribution
from ref_codes import ZeroForm, quadform_rank
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
    # a sweep of the whole extended code against the cyclic sweep extended
    # by complements (the route weight_distribution and designs take)
    f = {4: f4, 6: f6, 8: f8}[spec.m]
    basis = generator_basis(spec, f)
    assert reduce(xor, basis) == (1 << spec.length) - 1  # the span holds the all-one word
    dist = weight_distribution(spec, f)
    assert weight_histogram(one_layer_basis(spec, f), spec.length, threads=2) == dist.entries
    assert dist.dimension == len(basis) == len(one_layer_basis(spec, f))


# alternates of the built-in polynomials: x^4+x^3+1, x^6+x^4+x^3+x+1,
# x^8+x^6+x^5+x^3+1 and x^10+x^7+1
ALT_POLYS = {4: 0x19, 6: 0x5B, 8: 0x169, 10: 0x481}


def _spy_sweeps(monkeypatch) -> list[tuple[int, int]]:
    """(basis rows, summed coset multiplicities) of every sweep the spectrum
    layer runs."""
    swept = []

    def spy(basis, length, threads=1, cosets=None):
        swept.append((len(basis), sum(cosets.values())))
        return weight_histogram(basis, length, threads, cosets)

    monkeypatch.setattr(spectrum, "weight_histogram", spy)
    return swept


@pytest.mark.parametrize("poly", ["built-in", "alternate"])
@pytest.mark.parametrize("spec", [
    CodeSpec("c1", 2), CodeSpec("c2", 2, 1),
    CodeSpec("c1", 3), CodeSpec("c1", 4), CodeSpec("c2", 3, 1), CodeSpec("c2", 3, 2),
    CodeSpec("c2", 4, 1), CodeSpec("c2", 4, 3), *(CodeSpec("c2", 5, l) for l in range(1, 5)),
], ids=CodeSpec.label)
def test_fold_equals_the_plain_sweep(spec, poly, monkeypatch):
    # one sweep of the m linear rows over the orbit representatives' words,
    # whose multiplicities count every pair (a, b) of the slots once
    field = Field(spec.m, ALT_POLYS[spec.m] if poly == "alternate" else None)
    plain = span_distribution(cyclic_generator_basis(spec, field), spec.n, threads=2)
    swept = _spy_sweeps(monkeypatch)
    for threads in (1, 2):
        swept.clear()
        assert cyclic_weight_distribution(spec, field, threads) == plain
        assert swept == [(spec.m, 2 ** (spec.terms[0][1] + spec.m))]


def test_fold_divides_where_the_a_slot_is_not_independent(monkeypatch):
    # at m = 4, 5 divides 15: c1's a-slot words span 2 dimensions, not 4,
    # so the 2^(4 + 4) pairs (a, b) and 2^4 words c count each word of c1(2)
    # 4 times, and the counts are divided by 4; c2(2, 1), the same code,
    # has a GF(4) a-slot and counts each word once
    swept = _spy_sweeps(monkeypatch)
    for poly in (None, 0x19):
        field = Field(4, poly)
        plain = span_distribution(cyclic_generator_basis(CodeSpec("c1", 2), field), 15)
        assert plain.dimension == 10
        assert extend_distribution(plain).entries == golden.EXAMPLES["m4"]["enumerator"]
        for spec, pairs in ((CodeSpec("c1", 2), 2**8), (CodeSpec("c2", 2, 1), 2**6)):
            assert pairs * 2**4 == (4 if spec.family == "c1" else 1) * 2**plain.dimension
            for threads in (1, 2):
                swept.clear()
                assert cyclic_weight_distribution(spec, field, threads) == plain
                assert swept == [(4, pairs)]


@pytest.mark.parametrize("spec", [CodeSpec("c1", 2), CodeSpec("c2", 3, 1)], ids=CodeSpec.label)
def test_fold_with_a_wrong_divisor_fails(spec, monkeypatch):
    # one rank too few doubles the times the orbits count each word: 8 for
    # c1(2), 2 for c2(3, 1), neither of which divides the zero word's count
    original = spectrum.reduce_rows
    monkeypatch.setattr(spectrum, "reduce_rows", lambda rows: original(rows)[:-1])
    with pytest.raises(CheckFailed, match="is not a multiple of"):
        cyclic_weight_distribution(spec, Field(spec.m))


@pytest.mark.parametrize("spec", [
    CodeSpec("c1", 5), *(CodeSpec("c2", 6, l) for l in range(1, 6)), CodeSpec("c1", 6),
    *(CodeSpec("c2", 7, l) for l in range(1, 4)), CodeSpec("c1", 7),
    *(CodeSpec("c2", 8, l) for l in range(1, 5)),
], ids=CodeSpec.label)
def test_fold_matches_the_closed_forms(spec):
    dist = cyclic_weight_distribution(spec, Field(spec.m), threads=2)
    assert extend_distribution(dist) == closed_form(spec)
    if spec.family == "c2":
        assert dist == closed_form_c2_cyclic(spec.s, spec.l)


@pytest.mark.parametrize("s, count", [(2, 10), (3, 17), (4, 40), (5, 111), (6, 356), (7, 1185), (8, 4120)])
def test_orbit_representatives_of_c1(s, count):
    # one representative per orbit of <x -> alpha x, x -> x^2> on the pairs
    # (a, b), the orbit sizes summing to the 2^(2m) pairs
    spec = CodeSpec("c1", s)
    orbits = spectrum._orbits(spec)
    assert len(orbits) == count
    assert sum(size for *_, size in orbits) == 4**spec.m
    spectrum._require_orbit_sizes(spec, orbits)


def _stabilizer_order(spec, la, lb):
    """The (i, j) of Z_m x Z_n with 2^i L + j (e, e') = L at L = (la, lb),
    counted one by one; a None log (a zero coefficient) is fixed by all."""
    n, m = spec.n, spec.m
    (e, _), (e2, _), _ = spec.terms
    return sum(all(log is None or (((1 << i) - 1) * log + j * step) % n == 0
                   for log, step in ((la, e), (lb, e2)))
               for i in range(m) for j in range(n))


@pytest.mark.parametrize("spec", [CodeSpec("c1", 2), CodeSpec("c1", 3), CodeSpec("c2", 3, 1)], ids=CodeSpec.label)
def test_orbit_size_check_matches_a_pointwise_count(spec):
    # the true orbits pass; with one representative's log b moved, the check
    # fails exactly when some size times its stabilizer order, counted
    # (i, j) by (i, j), is not nm, and names only such pairs
    rng = Random(spec.m)
    orbits = spectrum._orbits(spec)
    trials = [orbits]
    for _ in range(8):
        moved = list(orbits)
        k = rng.choice([k for k, (_, lb, _) in enumerate(orbits) if lb is not None])
        moved[k] = (moved[k][0], rng.randrange(spec.n), moved[k][2])
        trials.append(moved)
    for reps in trials:
        wrong = [(la, lb) for la, lb, size in reps if size * _stabilizer_order(spec, la, lb) != spec.n * spec.m]
        if not wrong:
            spectrum._require_orbit_sizes(spec, reps)
            continue
        with pytest.raises(CheckFailed, match="do not have nm / \\|stabilizer\\| pairs") as exc:
            spectrum._require_orbit_sizes(spec, reps)
        named = re.search(r"in (\[.*\]) do not", str(exc.value)).group(1)
        assert set(ast.literal_eval(named)) <= set(wrong)


def test_fold_refuses_a_wrong_slot_exponent_before_any_sweep(f6, monkeypatch):
    # a-slot words of x^3 where spec.terms names x^5: x -> alpha x multiplies
    # their coefficients by alpha^3, not by the alpha^5 the orbits read
    def swapped(spec, field):
        a, b, c = slot_words(spec, field)
        return [b, a, c]

    monkeypatch.setattr(spectrum, "slot_words", swapped)
    swept = _spy_sweeps(monkeypatch)
    with pytest.raises(CheckFailed, match="x -> alpha x does not send the word at a = 0x1"):
        cyclic_weight_distribution(CodeSpec("c1", 3), f6)
    assert swept == []


# (spec, source text of spectrum.py or codebuild.py, its mutation, the
# CheckFailed message): each mutation must stop cyclic_weight_distribution
# with CheckFailed under python -O, before or after its sweep
MUTATIONS = {
    "wrong_h": (CodeSpec("c2", 3, 1), "spectrum.py", "h = gcd(n, n // g * e2)", "h = gcd(n, e2)",
                "do not have nm / \\|stabilizer\\| pairs"),
    "dropped_twist": (CodeSpec("c1", 4), "spectrum.py", "if rhs % g == 0:", "if rhs == 0:",
                      "do not have nm / \\|stabilizer\\| pairs"),
    "wrong_orbit_size": (CodeSpec("c2", 3, 2), "spectrum.py", "a_size * (n // h) * size)",
                         "a_size * (n // h) * size + 1)", "the orbit sizes do not sum to 2\\^9"),
    # the evaluator's trace table replaced by bit 0 of the element, a linear
    # functional other than the trace: the words stay shift-covariant but
    # x -> x^2 no longer permutes them
    "broken_frobenius": (CodeSpec("c1", 3), "codebuild.py",
                         "trace = field.trace_np if d == field.m else field.sub_trace_np",
                         "trace = (np.arange(field.q) % 2).astype(np.uint8) if d == field.m"
                         " else field.sub_trace_np",
                         "x -> x\\^2 does not send the word at a = 0x1 "),
    # the evaluator's coefficient log one step off, so the word built for
    # coef is that of coef * alpha: the a-slot's coef * alpha leaves GF(2^3)
    # and its words vanish; the b-slot's stay linear in coef and
    # shift-covariant, but x -> x^2 sends the word built for coef to that of
    # coef^2 * alpha^2, not coef^2 * alpha
    "wrong_coefficient_log": (CodeSpec("c2", 3, 1), "codebuild.py",
                              "logs = field.log_np[coefs][:, None]",
                              "logs = (field.log_np[coefs] + 1)[:, None]",
                              "x -> x\\^2 does not send the word at b = 0x1 "),
    # each bit moved from x to alpha x, the reverse of x -> alpha x: the
    # word at coef * alpha^-e
    "reversed_alpha_map": (CodeSpec("c1", 3), "spectrum.py",
                           "field.scalar_mul_vec(field.alpha_pow(-1), points)",
                           "field.scalar_mul_vec(field.alpha_pow(1), points)",
                           "x -> alpha x does not send the word at a = 0x1 "),
    # the words left in place: the word at coef, which is the word at coef^2
    # only for coef = 1
    "identity_for_square": (CodeSpec("c2", 3, 1), "spectrum.py", '("x -> x^2", field.power_table(2),',
                            '("x -> x^2", field.power_table(1),', "x -> x\\^2 does not send the word at "),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_orbit_route_mutations_fail_under_optimize(name, tmp_path):
    spec, module, text, mutated, message = MUTATIONS[name]
    package = Path(spectrum.__file__).parent
    copy = tmp_path / "designforge"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / module).read_text()
    assert source.count(text) == 1, (module, text)
    (copy / module).write_text(source.replace(text, mutated))
    code = (
        "import re\n"
        "from designforge import CheckFailed, CodeSpec, Field, cyclic_weight_distribution\n"
        f"spec = CodeSpec{(spec.family, spec.s, spec.l)!r}\n"
        "try:\n"
        "    cyclic_weight_distribution(spec, Field(spec.m))\n"
        "except CheckFailed as exc:\n"
        f"    raise SystemExit(7 if re.search({message!r}, str(exc)) else str(exc))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 7, proc.stderr[-2000:]


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


def _exp_sum(field, a, b, c):
    """S(a,b,c) = sum over all x of (-1)^tr(a*x^5 + b*x^3 + c*x): q minus
    twice the weight of the c1 word at (a, b, c)."""
    return field.q - 2 * build_codeword(CodeSpec("c1", field.s), field, a, b, c).bit_count()


def test_exp_sum_trivial(f4, f6):
    assert _exp_sum(f4, 0, 0, 0) == 16
    assert _exp_sum(f6, 0, 0, 0) == 64
    for c in range(1, 16):
        assert _exp_sum(f4, 0, 0, c) == 0


def test_exp_sum_against_reference(f4):
    # direct 16-term summation with an independent field implementation
    for a in range(16):
        for b in range(0, 16, 3):
            for c in range(0, 16, 5):
                assert _exp_sum(f4, a, b, c) == ref_exp_sum(a, b, c, f4.poly, 4)


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
            assert {_exp_sum(f4, a, b, c) for c in range(16)} <= {0, mag, -mag}


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

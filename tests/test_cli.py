from __future__ import annotations

import hashlib
import json
import os

import pytest

from designforge.cli import main
from designforge.codebuild import CodeSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_field_command(capsys):
    code, out, _ = run_cli(capsys, "field", "--m", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 6 and obj["q"] == 64 and obj["poly"] == "0x43"


def test_field_rejects_odd_m(capsys):
    code, out, err = run_cli(capsys, "field", "--m", "5")
    assert code == 2 and out == "" and "UnsupportedM" in err


def test_field_rejects_non_primitive(capsys):
    code, _, err = run_cli(capsys, "field", "--m", "4", "--poly", "0x1F")
    assert code == 2 and "NonPrimitivePolynomial" in err


@pytest.mark.parametrize("argv", [
    ("field", "--m", "4"), ("weights", "--family", "c1", "--s", "2"),
])
def test_negative_poly_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--poly", "-13")
    assert code == 2 and out == "" and "NonPrimitivePolynomial" in err


def test_weights_closed_form_match(capsys):
    code, out, _ = run_cli(capsys, "weights", "--family", "c1", "--s", "3", "--closed-form")
    assert code == 0
    obj = json.loads(out)
    assert obj["closed_form_match"] is True
    assert obj["distribution"]["dimension"] == 19


def test_weights_closed_form_inapplicable(capsys):
    code, _, err = run_cli(capsys, "weights", "--family", "c1", "--s", "2", "--closed-form")
    assert code == 2 and "InapplicableParameters" in err


@pytest.mark.parametrize("argv", [
    ("--family", "c2", "--s", "5", "--l", "1", "--cyclic", "--closed-form"),
    ("--family", "c1", "--s", "2", "--closed-form"),
])
def test_weights_closed_form_rejected_before_the_sweep(capsys, monkeypatch, argv):
    import designforge.spectrum as spectrum

    swept = []
    monkeypatch.setattr(spectrum, "weight_histogram", lambda *args, **kwargs: swept.append(args))
    code, out, err = run_cli(capsys, "weights", *argv)
    assert code == 2 and out == "" and "InapplicableParameters" in err
    assert swept == []


def test_weights_c2_enumerator(capsys):
    code, out, _ = run_cli(capsys, "weights", "--family", "c2", "--s", "2", "--l", "1")
    assert code == 0
    obj = json.loads(out)
    weights = {row["w"]: row["count"] for row in obj["distribution"]["weights"]}
    assert weights == {0: "1", 4: "140", 6: "448", 8: "870", 10: "448", 12: "140", 16: "1"}


def test_weights_requires_l_for_c2(capsys):
    code, _, err = run_cli(capsys, "weights", "--family", "c2", "--s", "2")
    assert code == 2 and "ValueError" in err


def test_weights_csv(capsys):
    code, out, _ = run_cli(capsys, "weights", "--family", "c1", "--s", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,count"
    assert lines[1] == "0,1" and lines[2] == "4,140"


# Exact stdout and exit code: the CSV tables no other test pins, and the
# exit-1 verdict of an unverified t = 3 class, whose CSV row leaves lambda
# and theorem_lambda empty and spells its booleans True/False.
PINNED_OUTPUT = [
    (("field", "--m", "4", "--format", "csv"), 0, "m,s,q,n,poly,alpha_order\n4,2,16,15,0x13,15\n"),
    (("invariance", "--family", "c2", "--s", "3", "--l", "2", "--format", "csv"), 0,
     "closure,witness,orbit_checked,orbit_invariant\nTrue,,True,True\n"),
    (("designs", "--family", "c1", "--s", "3", "--weight", "16", "--format", "csv"), 0,
     "t,v,k,b,lambda,verified,theorem_lambda,match,skipped\n2,64,16,252,15,True,15,True,False\n"),
    (("designs", "--family", "c2", "--s", "3", "--l", "1", "--t", "3", "--weight", "16",
      "--format", "csv"), 1,
     "t,v,k,b,lambda,verified,theorem_lambda,match,skipped\n3,64,16,84,,False,,,False\n"),
    (("designs", "--family", "c2", "--s", "3", "--l", "1", "--t", "3", "--weight", "16"), 1,
     '{"family": "c2", "l": 1, "reports": [{"b": "84", "k": 16, "lambda": null, "match": null, '
     '"t": 3, "theorem_lambda": null, "v": 64, "verified": false}], "s": 3, "t": 3, "v": 64}\n'),
]


# The unverified class names its witness on stderr: two t-subsets covered
# by different numbers of blocks.
PINNED_STDERR = {
    argv: "weight 16: not a 3-design: (0, 1, 2) is in 1 of the blocks, (0, 1, 22) in 5\n"
    for argv, _, _ in PINNED_OUTPUT[3:]
}


@pytest.mark.parametrize(("argv", "rc", "stdout"), PINNED_OUTPUT)
def test_output_is_pinned(capsys, argv, rc, stdout):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (rc, stdout, PINNED_STDERR.get(argv, ""))


def test_weights_closed_form_mismatch_exits_1(capsys, monkeypatch):
    import dataclasses

    import designforge.cli as cli

    table = cli.closed_form(cli.CodeSpec("c1", 3))
    perturbed = dataclasses.replace(table, entries={**table.entries, 16: table.entries[16] + 1})
    monkeypatch.setattr(cli, "closed_form", lambda spec: perturbed)
    code, out, err = run_cli(capsys, "weights", "--family", "c1", "--s", "3", "--closed-form")
    assert code == 1
    assert json.loads(out)["closed_form_match"] is False
    assert err == "closed form disagrees with enumeration\n"


def test_designs_gate_notice_goes_to_stderr_only(capsys, monkeypatch):
    import designforge.designs as designs

    monkeypatch.setattr(designs, "COST_GATE", 3 * 10**5)
    code, out, err = run_cli(capsys, "designs", "--family", "c1", "--s", "3")
    assert code == 0
    # weights 16 and 48 (252 blocks, 252*C(k, 2) increments) stay under the gate
    skipped = [r["k"] for r in json.loads(out)["reports"] if r.get("skipped")]
    assert skipped == [24, 28, 32, 36, 40]
    assert "rerun with --exhaustive" not in out
    assert err.splitlines() == [
        f"weight {k}: skipped ({b} blocks; rerun with --exhaustive)"
        for k, b in ((24, 37632), (28, 107520), (32, 233478), (36, 107520), (40, 37632))
    ]


def test_designs_command(capsys):
    code, out, _ = run_cli(capsys, "designs", "--family", "c1", "--s", "3", "--t", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["reports"]) == 7
    assert all(r["verified"] and r["match"] for r in obj["reports"])


def test_designs_t3_m4(capsys):
    code, out, _ = run_cli(capsys, "designs", "--family", "c2", "--s", "2", "--l", "1", "--t", "3")
    assert code == 0
    obj = json.loads(out)
    got = {r["k"]: r["lambda"] for r in obj["reports"]}
    assert got == {4: "1", 6: "16", 8: "87", 10: "96", 12: "55"}


def test_designs_export_blocks(capsys):
    # one line per block, its k points; the raw order is the index order of
    # the h = 0 basis's span, and the sorted lines are the set of blocks,
    # which no change of basis order may move.  The middle class of
    # c2(3, 1) comes from one batch of 11403 H0 words, each slice of 1024
    # followed by its complements, so its raw order also pins where the
    # stream's chunks and the export's slices break
    for code_args, weight, n_lines, digest, sorted_digest in (
        (("c1", "2"), "4", 140, "f16411288c2f296d814dcb0b19594557fed7cbc103fe6904c2eea79963f53e2f",
         "7a10147d50ae9cc0fbac411128d9ce31f1ed75d7e2961214cfc8952a96294adc"),
        (("c1", "3"), "16", 252, "4dd46479fd0d5daf5c07d6618d59d35e02b2a6824fd15ee5f7385f7786b07fbf",
         "9fa75c0f49524c2d76018950b9e009560f4b463901aae40d4e6393ef56eb4cb0"),
        (("c2", "3", "--l", "1"), "32", 22806,
         "2d3ddec2ae680ead0a0b76dfe4ab443f5f8d625a7e2bda264b2b38ce2f162c41",
         "91e1fa5767fbc43d0265934faae3846196f70a83d7cc7044afa658760ed587be"),
    ):
        family, s, *l_args = code_args
        code, out, _ = run_cli(
            capsys, "designs", "--family", family, "--s", s, *l_args, "--weight", weight, "--export-blocks"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == n_lines
        assert all(len(line.split()) == int(weight) for line in lines)
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert hashlib.sha256(("\n".join(sorted(lines)) + "\n").encode()).hexdigest() == sorted_digest


@pytest.mark.parametrize("weight", ["0", "16", "-2", "18"])
def test_export_blocks_rejects_trivial_and_out_of_range_weights(capsys, monkeypatch, weight):
    import designforge.designs as designs

    streamed = []
    monkeypatch.setattr(designs, "stream_weight_class", lambda *args: streamed.append(args) or iter(()))
    code, out, err = run_cli(
        capsys, "designs", "--family", "c1", "--s", "2", "--weight", weight, "--export-blocks"
    )
    assert code == 2 and out == ""
    assert err == f"EmptyWeightClass: no nontrivial class at weights [{weight}]\n"
    assert streamed == []


def test_export_blocks_rejects_odd_weight_before_streaming(capsys, monkeypatch):
    import designforge.designs as designs

    streamed = []
    original = designs.stream_weight_class

    def spy(basis, length, groups):
        streamed.append(groups)
        return original(basis, length, groups)

    monkeypatch.setattr(designs, "stream_weight_class", spy)
    code, out, err = run_cli(
        capsys, "designs", "--family", "c1", "--s", "2", "--weight", "5", "--export-blocks"
    )
    assert (code, out, err) == (2, "", "EmptyWeightClass: no nontrivial class at weights [5]\n")
    assert streamed == []


@pytest.mark.parametrize("s,weight", [
    ("3", "97"), ("3", "300"), ("3", "-4"), ("3", "0"), ("3", "64"), ("3", "33"),
    ("4", "97"), ("4", "0"), ("4", "256"),
])
def test_designs_rejects_a_weight_before_any_sweep(capsys, monkeypatch, s, weight):
    import designforge.designs as designs

    swept = []
    for name in ("h0_basis", "weight_distribution", "stream_weight_class"):
        def spy(*args, _name=name, _original=getattr(designs, name), **kwargs):
            swept.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(designs, name, spy)
    code, out, err = run_cli(capsys, "designs", "--family", "c1", "--s", s, "--weight", weight)
    assert (code, out, err) == (2, "", f"EmptyWeightClass: no nontrivial class at weights [{weight}]\n")
    assert swept == []


def test_missing_class_has_one_message_with_and_without_export(capsys):
    # an even in-range weight the code lacks: the report finds it missing
    # from the distribution, the export once its stream ends empty
    argv = ("designs", "--family", "c1", "--s", "3", "--weight", "2")
    expected = (2, "", "EmptyWeightClass: no nontrivial class at weights [2]\n")
    assert run_cli(capsys, *argv) == expected
    assert run_cli(capsys, *argv, "--export-blocks") == expected


def test_closed_stdout_ends_the_export(tmp_path):
    # a reader that stops after one line cuts the export short; the exit
    # code stays the verdict, and no traceback reaches stderr
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["designs", "--family", "c1", "--s", "3", "--weight", "32", "--export-blocks"]
    with open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "designforge.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err.seek(0)
        assert (code, err.read()) == (0, "")
    assert len(first.split()) == 32


def test_export_blocks_is_a_lazy_stream(monkeypatch):
    import designforge.designs as designs
    from designforge.cli import build_parser, cmd_designs

    original = designs.stream_weight_class
    streamed = []

    def spy(basis, length, groups):  # records a stream when its first chunk is asked for
        streamed.append(groups)
        yield from original(basis, length, groups)

    monkeypatch.setattr(designs, "stream_weight_class", spy)
    args = build_parser().parse_args(
        ["designs", "--family", "c1", "--s", "2", "--weight", "4", "--export-blocks"]
    )
    lines = cmd_designs(args)
    assert streamed == []
    assert next(lines) == "5 11 14 15"
    assert streamed == [((4, 12),)]  # one group, class 4's pair: H0 weights 4 and 16 - 4


def test_invariance_command(capsys):
    code, out, _ = run_cli(capsys, "invariance", "--family", "c1", "--s", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "closure": True, "witness": None, "orbit_checked": True,
        "orbit_invariant": True, "dual_inherits": True,
    }


def test_invariance_checks_orbit_at_m8(capsys):
    code, out, err = run_cli(capsys, "invariance", "--family", "c1", "--s", "4")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["closure"] is True
    assert obj["orbit_checked"] is True and obj["orbit_invariant"] is True


def test_invariance_at_m14_uses_the_built_in_poly(capsys):
    code, out, err = run_cli(capsys, "invariance", "--family", "c1", "--s", "7")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["orbit_checked"] is True and obj["orbit_invariant"] is True


@pytest.mark.parametrize(("m", "poly"), [("14", "0x402b"), ("16", "0x1002d")])
def test_field_command_built_in_poly(capsys, m, poly):
    code, out, _ = run_cli(capsys, "field", "--m", m)
    assert code == 0 and json.loads(out)["poly"] == poly


@pytest.mark.parametrize("s", ["3", "4"])
def test_invariance_rejects_bad_poly(capsys, s):
    code, out, err = run_cli(capsys, "invariance", "--family", "c1", "--s", s, "--poly", "0x3")
    assert code == 2 and out == "" and "NonPrimitivePolynomial" in err


def test_reproduce_single(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--example", "m4")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_match"] is True
    assert obj["results"][0]["code"] == "[16, 11, 4]"


def test_reproduce_unknown_example(capsys):
    code, _, err = run_cli(capsys, "reproduce", "--example", "9.9")
    assert code == 2 and "InapplicableParameters" in err


def test_reproduce_csv(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--example", "3.7", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "example,code,match"
    assert lines[1] == "3.7,[64, 16, 24],True"


REPRODUCE_RESULTS = [
    {"example": "3.3", "code": "[64, 19, 16]", "match": True},
    {"example": "3.4", "code": "[256, 25, 96]", "match": True},
    {"example": "m4", "code": "[16, 11, 4]", "match": True},
    {"example": "3.6", "code": "[16, 11, 4]", "match": True},
    {"example": "3.7", "code": "[64, 16, 24]", "match": True},
    {"example": "3.8", "code": "[64, 16, 16]", "match": True},
    {"example": "pless-s3", "code": "[63, 18]", "match": True},
    {"example": "pless-s4", "code": "[255, 24]", "match": True},
]


# the lengths of reproduce's sweeps, one per CodeSpec it names, each of the
# m linear rows over its orbit representatives' words: c1(2) and c2(2, 1)
# at m = 4, c1(3), c2(3, 1) and c2(3, 2) at m = 6, and c1(4)
REPRODUCE_SWEEPS = [15] * 2 + [63] * 3 + [255]


def test_reproduce_sweeps_each_code_once(capsys, monkeypatch):
    import designforge.spectrum as spectrum

    original = spectrum.weight_histogram
    swept = []

    def spy(basis, length, threads=1, cosets=None):
        swept.append((len(basis), length, sum(cosets.values())))
        return original(basis, length, threads, cosets)

    monkeypatch.setattr(spectrum, "weight_histogram", spy)
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    assert json.loads(out) == {"results": REPRODUCE_RESULTS, "all_match": True}
    # one distribution per CodeSpec: 3.3 and pless-s3 share c1(3), and 3.4
    # and pless-s4 share c1(4); m4 and 3.6 name one code, c1(2) = c2(2, 1),
    # swept over the orbits of each: its 2^d * 2^m pairs (a, b), with d = m
    # for c1 and d = m / 2 for c2
    assert sorted(length for _, length, _ in swept) == REPRODUCE_SWEEPS
    assert sorted(swept) == [
        (4, 15, 2**6), (4, 15, 2**8), (6, 63, 2**9), (6, 63, 2**9), (6, 63, 2**12), (8, 255, 2**16),
    ]


def test_reproduce_builds_each_code_basis_once(capsys, monkeypatch):
    # the slot words the orbits sweep are built once per CodeSpec, and no
    # whole basis of any code is built
    import designforge.codebuild as codebuild
    import designforge.spectrum as spectrum

    built: dict[str, list] = {"basis": [], "orbits": []}

    def spy(name, module, use):
        original = getattr(module, name)

        def build(spec, field):
            built[use].append(spec)
            return original(spec, field)

        monkeypatch.setattr(module, name, build)

    spy("h0_basis", codebuild, "basis")
    spy("slot_words", spectrum, "orbits")
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    assert json.loads(out) == {"results": REPRODUCE_RESULTS, "all_match": True}
    assert built["basis"] == []
    assert len(built["orbits"]) == len(set(built["orbits"])) == 6
    assert CodeSpec("c2", 2, 1) in built["orbits"]


# one pass of commands whose outputs a parser, cache or sweep could carry
# from one main() call into the next
REPEATED = [
    ("field", "--m", "4"),
    ("weights", "--family", "c1", "--s", "3", "--closed-form"),
    ("designs", "--family", "c1", "--s", "2", "--weight", "5"),
    ("invariance", "--family", "c2", "--s", "3", "--l", "1"),
    ("reproduce", "--example", "3.8"),
    ("designs", "--family", "c1", "--s", "2", "--t", "3", "--format", "csv"),
]


def test_repeated_main_calls_share_nothing_but_the_parser(capsys):
    import designforge.cli as cli

    passes = [[run_cli(capsys, *argv) for argv in REPEATED] for _ in range(2)]
    assert [code for code, _, _ in passes[0]] == [0, 0, 2, 0, 0, 0]
    assert passes[1] == passes[0]
    assert cli._parser.cache_info().misses == 1


def test_threads_default_follows_the_cpu_count_of_each_call(capsys, monkeypatch):
    import designforge.spectrum as spectrum

    original = spectrum.weight_histogram
    threads = []

    def spy(basis, length, threads_here=1, *args, **kwargs):
        threads.append(threads_here)
        return original(basis, length, 1, *args, **kwargs)

    monkeypatch.setattr(spectrum, "weight_histogram", spy)
    argv = ("weights", "--family", "c1", "--s", "2")
    outs = []
    for count, extra in ((3, ()), (1, ()), (None, ()), (5, ("--threads", "2")), (4, ())):
        monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        outs.append(out)
    # one sweep a call
    assert threads == [3, 1, 1, 2, 4]
    assert len(set(outs)) == 1


def test_reproduce_reports_each_example_of_a_shared_sweep(capsys, monkeypatch):
    from designforge import golden

    enumerator = dict(golden.EXAMPLES["3.4"]["enumerator"])
    enumerator[96] += 1
    monkeypatch.setitem(golden.EXAMPLES, "3.4", {**golden.EXAMPLES["3.4"], "enumerator": enumerator})
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 1
    expected = [{**r, "match": r["example"] != "3.4"} for r in REPRODUCE_RESULTS]
    assert json.loads(out) == {"results": expected, "all_match": False}


def test_weights_too_large_caps_the_swept_cyclic_basis(capsys):
    # the orbits sweep only the m <= 16 linear rows, so no cap applies to
    # weights: c1(7) at m = 14, whose a = 0 subcode of dimension 28 the
    # coset fold refused, runs and matches; the caps that still apply are
    # designs' on H0 (the next test) and the field's m <= 16
    code, out, _ = run_cli(capsys, "weights", "--family", "c1", "--s", "7", "--closed-form")
    assert code == 0 and json.loads(out)["closed_form_match"] is True
    code, out, err = run_cli(capsys, "field", "--m", "18")
    assert code == 2 and out == "" and "UnsupportedM" in err


def test_designs_refuses_an_h0_past_the_cap_before_any_sweep(capsys, monkeypatch):
    # designs takes its class sizes from the orbits, which sweep 10 rows
    # for c1(5), but gathers and streams over H0, of dimension 30: the
    # report checks H0 against the cap before the orbits are swept
    import designforge.codebuild as codebuild

    def no_tables(*args, **kwargs):
        raise AssertionError("the sweep tables were built")

    monkeypatch.setattr(codebuild, "_SweepTables", no_tables)
    code, out, err = run_cli(capsys, "designs", "--family", "c1", "--s", "5", "--t", "2")
    assert (code, out, err) == (2, "", "TooLarge: dimension 30 exceeds the enumeration cap 26\n")


def test_export_blocks_requires_weight(capsys):
    code, _, err = run_cli(capsys, "designs", "--family", "c1", "--s", "2", "--export-blocks")
    assert code == 2 and "InapplicableParameters" in err


def test_thread_count_does_not_change_output(capsys):
    outs = []
    for threads in ("1", "2", "8"):
        code, out, _ = run_cli(
            capsys, "weights", "--family", "c2", "--s", "3", "--l", "1", "--threads", threads
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_threads_must_be_positive(capsys):
    code, out, err = run_cli(capsys, "weights", "--family", "c1", "--s", "2", "--threads", "0")
    assert code == 2 and out == "" and "threads" in err


def test_reproduce_rejects_poly(capsys):
    code, out, err = run_cli(capsys, "reproduce", "--example", "m4", "--poly", "0x19")
    assert code == 2 and out == "" and "--poly" in err


def test_failed_check_exits_1(capsys, monkeypatch):
    import designforge.cli as cli
    from designforge import CheckFailed

    def broken(*_args, **_kwargs):
        raise CheckFailed("t-subset count conservation failed")

    monkeypatch.setattr(cli, "full_design_report", broken)
    code, out, err = run_cli(capsys, "designs", "--family", "c1", "--s", "2")
    assert code == 1 and out == "" and "CheckFailed" in err

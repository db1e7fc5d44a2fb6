"""Workload definitions, expected outputs and the work the problem fixes.

Every expected output is built from values the paper publishes, never from
a recording of the program: the golden enumerators and dimensions
(`designforge.golden.EXAMPLES`), the c2 closed-form table
(`closed_form_c2_extended`), the design identity
lambda = b*C(k,t)/C(v,t) with b read off a published enumerator, and the
published lambda tables below.  The same tables give the closed value of
the one work count the problem fixes, `designs.blocks` (the sum of b over
the verified classes), which the traced run must reproduce exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb

from designforge import golden
from designforge.spectrum import closed_form_c2_extended

# Published (weight -> lambda) tables, as pinned by the acceptance suite.
PAPER_LAMBDAS = {
    ("c1", 3, None, 2): {16: 15, 24: 5152, 28: 20160, 32: 57443, 36: 33600, 40: 14560, 48: 141},
    ("c2", 3, 1, 2): {16: 5, 24: 460, 28: 3360, 32: 5611, 36: 5600, 40: 1300, 48: 47},
    ("c2", 3, 2, 2): {24: 690, 28: 2352, 32: 7471, 36: 3920, 40: 1950},
    ("c1", 2, None, 3): {4: 1, 6: 16, 8: 87, 10: 96, 12: 55},
    ("c2", 2, 1, 3): {4: 1, 6: 16, 8: 87, 10: 96, 12: 55},
}

# Per-layer metric -> (end-to-end metric it should move, workload where it
# should move, workloads where it is predicted not to move).  Each share is
# the span's self time over traced wall_s in `run.py --trace 1` at seeds 7
# and 8 (2 vCPU, 2 threads).  The tracer's per-block bookkeeping runs between
# block spans, so it is counted in the consumer's self time (count_t2/t3).
LAYER_MAP = {
    "codebuild.sweep_s": ("wall_s, words_per_s", "spectra (97-98%), designs (18-20%)", "-"),
    "codebuild.sweep_words": ("wall_s, words_per_s", "spectra, designs", "-"),
    "codebuild.sweep_words_per_s": ("wall_s, words_per_s", "spectra, designs", "-"),
    "codebuild.stream_s": ("wall_s", "designs (48-49%)", "spectra"),
    "codebuild.stream_words": ("wall_s", "designs", "spectra"),
    "codebuild.useful_word_ratio": ("wall_s", "designs", "spectra"),
    "codebuild.basis_builds": ("wall_s, through the streams each build starts", "designs", "spectra"),
    "codebuild.basis_s": ("nothing (0.5% of designs)", "-", "all"),
    "designs.blocks_self_s": ("wall_s", "designs (9%)", "spectra"),
    "designs.blocks": ("nothing (fixed by the problem: sum of b)", "-", "all"),
    "designs.count_t2_s": ("wall_s, capped at its 18-19% share", "designs", "spectra"),
    "designs.count_t3_s": ("wall_s, capped at its 4% share", "designs", "spectra"),
    "designs.increments": ("nothing (derived: sum of b*C(k,t))", "-", "all"),
    "designs.increments_per_s": ("wall_s", "designs", "spectra"),
    "designs.classes_verified": ("nothing (a guard)", "-", "all"),
    "designs.classes_skipped": ("nothing (a guard)", "-", "all"),
    "codebuild.sweep_parallel_eff": ("cpu_s vs wall_s", "spectra", "-"),
    "spectrum.closed_form_s": ("nothing (under 0.1% of each workload)", "-", "all"),
    "spectrum.pless_s": ("nothing (under 0.1% of spectra)", "-", "all"),
    "invariance.orbit_s": ("nothing (2% of spectra)", "-", "all"),
    "invariance.closure_s": ("nothing (under 0.1% of spectra)", "-", "all"),
    "gf2m.field_s": ("nothing (under 0.2% of each workload)", "-", "all"),
    "gf2m.fields_built": ("nothing", "-", "all"),
    "polyops.defining_set_s": ("nothing (under 0.1% of spectra)", "-", "all"),
    "cli.self_s": ("nothing (0.3% of each workload)", "-", "all"),
    "cli.stdout_bytes": ("nothing", "-", "all"),
    "trace.wall_s": ("nothing (traced wall_s)", "-", "all"),
    "trace.untraced_wall_s": ("nothing (wall_s of the traced run's untraced repetitions)", "-", "all"),
    "trace.overhead_s": ("nothing (traced minus untraced wall_s)", "-", "all"),
}

EXIT_OK, EXIT_MISMATCH = 0, 1


@dataclass
class Invocation:
    """One CLI call: its argv (without --poly/--threads), the expected exit
    code and parsed stdout, and the work the problem fixes: codewords of the
    code it names, blocks of the classes it verifies and their t-subsets."""

    key: str
    argv: list[str]
    m: int | None  # degree of the --poly to draw; None leaves the built-in
    rc: int
    expected: dict
    problem_words: int = 0
    blocks: int = 0
    increments: int = 0


def _golden(family: str, s: int, l: int | None) -> dict:
    for info in golden.EXAMPLES.values():
        if (info["family"], info["s"], info["l"]) == (family, s, l):
            return info
    raise KeyError((family, s, l))


def _code_args(family: str, s: int, l: int | None) -> list[str]:
    args = ["--family", family, "--s", str(s)]
    return args + ["--l", str(l)] if l is not None else args


def _reproduce() -> Invocation:
    results, words = [], 0
    for ex_id, info in golden.EXAMPLES.items():
        length, dim, dmin = info["params"]
        results.append({"example": ex_id, "code": f"[{length}, {dim}, {dmin}]", "match": True})
        words += 1 << dim
    for ex_id, _s, n, k in golden.PLESS_CASES:
        results.append({"example": ex_id, "code": f"[{n}, {k}]", "match": True})
        words += 1 << k
    return Invocation(
        "reproduce", ["reproduce"], None, EXIT_OK, {"results": results, "all_match": True},
        problem_words=words,
    )


def _weights_closed_form(s: int, l: int) -> Invocation:
    dist = closed_form_c2_extended(s, l)
    expected = {
        "family": "c2", "s": s, "l": l, "cyclic": False,
        "distribution": {
            "length": dist.length,
            "dimension": dist.dimension,
            "weights": [{"w": w, "count": str(dist.entries[w])} for w in sorted(dist.entries)],
        },
        "closed_form_match": True,
    }
    words = 1 << dist.dimension
    return Invocation(
        f"weights-c2-{s}-{l}", ["weights", *_code_args("c2", s, l), "--closed-form"], 2 * s,
        EXIT_OK, expected, problem_words=words,
    )


def _invariance(family: str, s: int, l: int | None) -> Invocation:
    expected = {"closure": True, "witness": None, "orbit_checked": True,
                "orbit_invariant": True, "dual_inherits": True}
    return Invocation(
        f"invariance-{family}-{s}-{l}", ["invariance", *_code_args(family, s, l)], 2 * s,
        EXIT_OK, expected,
    )


def _designs(family: str, s: int, l: int | None, t: int, weight: int | None = None) -> Invocation:
    info = _golden(family, s, l)
    v, dim = info["params"][0], info["params"][1]
    enum = info["enumerator"]
    classes = [w for w in sorted(enum) if w not in (0, v)]
    if weight is not None:
        classes = [weight]
    table = PAPER_LAMBDAS.get((family, s, l, t), {})
    reports, blocks, increments = [], 0, 0
    verified_all = True
    for k in classes:
        b = enum[k]
        lam, rem = divmod(b * comb(k, t), comb(v, t))
        if k in table and (rem or lam != table[k]):
            raise RuntimeError(f"published lambda {table[k]} for {family}({s},{l}) weight {k} "
                             f"disagrees with b*C(k,t)/C(v,t) = {b * comb(k, t)}/{comb(v, t)}")
        integral = rem == 0
        verified_all &= integral
        theorem = str(lam) if t == 2 and integral else None
        reports.append({
            "t": t, "v": v, "k": k, "b": str(b),
            "lambda": str(lam) if integral else None,
            "verified": integral,
            "theorem_lambda": theorem,
            "match": True if theorem is not None else None,
        })
        blocks += b
        increments += b * comb(k, t)
    expected = {"family": family, "s": s, "l": l, "t": t, "v": v, "reports": reports}
    argv = ["designs", *_code_args(family, s, l), "--t", str(t)]
    if weight is not None:
        argv += ["--weight", str(weight)]
    key = f"designs-t{t}-{family}-{s}-{l}" + (f"-w{weight}" if weight is not None else "")
    return Invocation(
        key, argv, 2 * s, EXIT_OK if verified_all else EXIT_MISMATCH, expected,
        problem_words=1 << dim, blocks=blocks, increments=increments,
    )


def build(name: str) -> list[Invocation]:
    """The invocations of one workload, in their canonical order."""
    if name == "spectra":
        return [_reproduce(), _weights_closed_form(5, 1), _invariance("c1", 3, None),
                _invariance("c2", 3, 1), _invariance("c2", 3, 2)]
    if name == "designs":
        inv = [_designs("c1", 3, None, 2), _designs("c2", 3, 1, 2), _designs("c2", 3, 2, 2),
               _designs("c1", 4, None, 2, weight=96),
               _designs("c1", 2, None, 3), _designs("c2", 2, 1, 3),
               _designs("c2", 3, 1, 3, weight=16)]
        if inv[-1].rc != EXIT_MISMATCH:
            raise RuntimeError("c2(3,1) weight 16 was chosen for its non-integer t=3 lambda")
        return inv
    raise KeyError(name)


WORKLOADS = ("spectra", "designs")


# -- seeded inputs --------------------------------------------------------------


def primitive_polys(m: int) -> list[int]:
    """Every primitive polynomial of degree m over GF(2), as ints (LSB = x^0).

    p is primitive iff x has multiplicative order exactly 2^m - 1 modulo p.
    """
    n = (1 << m) - 1
    out = []
    for p in range((1 << m) | 1, 1 << (m + 1), 2):
        x, order = 1, 0
        while True:
            x <<= 1
            if x >> m:
                x ^= p
            order += 1
            if x == 1 or order > n:
                break
        if order == n:
            out.append(p)
    return out


def draw(invocations: list[Invocation], rng: random.Random, polys: dict[int, list[int]],
         threads: int) -> list[tuple[Invocation, list[str]]]:
    """One repetition: a seeded order and a seeded --poly for each invocation."""
    order = list(invocations)
    rng.shuffle(order)
    out = []
    for inv in order:
        argv = list(inv.argv)
        if inv.m is not None:
            argv += ["--poly", f"{rng.choice(polys[inv.m]):#x}"]
        out.append((inv, argv + ["--threads", str(threads)]))
    return out


# -- output checker -------------------------------------------------------------


def check(inv: Invocation, rc: int | None, stdout: str, error: str | None) -> str | None:
    """None if the invocation's exit code and stdout are the expected ones,
    else the reason it failed."""
    if error is not None:
        return f"exception: {error}"
    if rc != inv.rc:
        return f"exit code {rc}, expected {inv.rc}"
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if got != inv.expected:
        return "stdout differs from the published values"
    return None


def _bump_first_count(obj):
    """Copy of obj with its first decimal-string count increased by one."""
    if isinstance(obj, dict):
        obj = dict(obj)
        for key in sorted(obj):
            if key in ("b", "count", "lambda") and isinstance(obj[key], str):
                obj[key] = str(int(obj[key]) + 1)
                return obj, True
            obj[key], done = _bump_first_count(obj[key])
            if done:
                return obj, True
        return obj, False
    if isinstance(obj, list):
        obj = list(obj)
        for i, item in enumerate(obj):
            obj[i], done = _bump_first_count(item)
            if done:
                return obj, True
    return obj, False


def self_check(inv: Invocation, rc: int, stdout: str) -> None:
    """Raise unless the checker rejects a perturbed copy of a real output:
    one count off by one, and the right output under the wrong exit code."""
    bumped, done = _bump_first_count(json.loads(stdout))
    if done and check(inv, rc, json.dumps(bumped, sort_keys=True), None) is None:
        raise RuntimeError(f"checker accepted an off-by-one count for {inv.key}")
    if check(inv, rc + 1, stdout, None) is None:
        raise RuntimeError(f"checker accepted a wrong exit code for {inv.key}")

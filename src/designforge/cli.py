"""Command-line surface.

Every verification is a scriptable subcommand with machine-readable output
on stdout (JSON by default, CSV via --format csv) and diagnostics on
stderr.  Exit codes: 0 success / all verified, 1 verification mismatch or
failed internal check, 2 invalid parameters.  Identical inputs give
byte-identical JSON no matter how many worker threads run the enumeration.

Each `cmd_*` computes and returns a Result, or, for --export-blocks, a lazy
stream of block lines; main() is the one writer of stdout and the one map
from verdicts and errors to exit codes.  A reader that closes stdout early
ends the output, not the run's verdict: no traceback, and the exit code is
the one the full output would have had.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Iterator, NamedTuple

from . import golden
from .checks import CheckFailed
from .codebuild import CodeSpec
from .designs import blocks_of_weight, full_design_report
from .gf2m import Field
from .invariance import affine_orbit_check, closure_check
from .polyops import defining_set_of_family, poly_str
from .spectrum import (
    InapplicableParameters,
    WeightDistribution,
    closed_form,
    cyclic_weight_distribution,
    extend_distribution,
    pless_verify,
    weight_distribution,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_PARAMS = 2


class Result(NamedTuple):
    """What a command computed: its JSON object, its CSV table, and its verdict."""

    obj: dict
    header: list[str]
    rows: list[list]
    ok: bool = True


def _parse_poly(text: str) -> int:
    return int(text, 16)


def _spec_from_args(args) -> CodeSpec:
    return CodeSpec(args.family, args.s, getattr(args, "l", None))


def cmd_field(args) -> Result:
    f = Field(args.m, args.poly)
    obj = {
        "m": f.m,
        "s": f.s,
        "q": f.q,
        "n": f.n,
        "poly": f"{f.poly:#x}",
        "poly_terms": poly_str(f.poly),
        "alpha_order": f.n,
    }
    header = ["m", "s", "q", "n", "poly", "alpha_order"]
    return Result(obj, header, [[obj[k] for k in header]])


def cmd_weights(args) -> Result:
    spec = _spec_from_args(args)
    f = Field(spec.m, args.poly)
    # a closed form that cannot be compared is rejected before the sweep
    expected = None
    if args.closed_form:
        if args.cyclic:
            raise InapplicableParameters("--closed-form compares the extended code only")
        expected = closed_form(spec)
    if args.cyclic:
        dist = cyclic_weight_distribution(spec, f, threads=args.threads)
    else:
        dist = weight_distribution(spec, f, threads=args.threads)
    match = None if expected is None else expected == dist
    obj = {
        "family": spec.family,
        "s": spec.s,
        "l": spec.l,
        "cyclic": args.cyclic,
        "distribution": dist.to_json_obj(),
        "closed_form_match": match,
    }
    if match is False:
        print("closed form disagrees with enumeration", file=sys.stderr)
    return Result(obj, ["w", "count"], [[w, dist.entries[w]] for w in dist.weights()],
                  ok=match is not False)


def cmd_designs(args) -> Result | Iterator[str]:
    spec = _spec_from_args(args)
    f = Field(spec.m, args.poly)
    if args.export_blocks:
        if args.weight is None:
            raise InapplicableParameters("--export-blocks needs --weight")
        # each block as its support, lazily: main prints one line per block
        return (" ".join(str(i) for i, bit in enumerate(f"{mask:b}"[::-1]) if bit == "1")
                for mask in blocks_of_weight(spec, f, args.weight))
    reports = full_design_report(
        spec, f, t=args.t, threads=args.threads, exhaustive=args.exhaustive, weight=args.weight
    )
    for r in reports:
        if r.skipped:
            print(f"weight {r.k}: skipped ({r.b} blocks; rerun with --exhaustive)", file=sys.stderr)
        elif not r.verified:
            (*first, n_first), (*other, n_other) = r.witness
            print(f"weight {r.k}: not a {r.t}-design: {tuple(first)} is in {n_first} of the "
                  f"blocks, {tuple(other)} in {n_other}", file=sys.stderr)
    obj = {
        "family": spec.family,
        "s": spec.s,
        "l": spec.l,
        "t": args.t,
        "v": spec.length,
        "reports": [r.to_json_obj() for r in reports],
    }
    rows = [[r.t, r.v, r.k, r.b, r.lam, r.verified, r.theorem_lambda, r.match, r.skipped]
            for r in reports]
    ok = all(r.verified and r.match in (True, None) for r in reports if not r.skipped)
    header = ["t", "v", "k", "b", "lambda", "verified", "theorem_lambda", "match", "skipped"]
    return Result(obj, header, rows, ok=ok)


def cmd_invariance(args) -> Result:
    spec = _spec_from_args(args)
    closed, witness = closure_check(set(defining_set_of_family(spec)), spec.m)
    orbit_invariant = affine_orbit_check(spec, Field(spec.m, args.poly))
    obj = {
        "closure": closed,
        "witness": list(witness) if witness else None,
        "orbit_checked": True,
        "orbit_invariant": orbit_invariant,
        "dual_inherits": closed,
    }
    wit_csv = "" if witness is None else f"{witness[0]};{witness[1]}"
    return Result(obj, ["closure", "witness", "orbit_checked", "orbit_invariant"],
                  [[closed, wit_csv, True, orbit_invariant]], ok=closed and orbit_invariant)


def cmd_reproduce(args) -> Result:
    """The golden suite: each worked example's enumerator and each BCH-dual
    power-moment case, from one orbit-swept distribution per CodeSpec."""
    if args.poly is not None:
        raise InapplicableParameters(
            "reproduce runs the built-in polynomial of each m it covers (4, 6, 8); drop --poly"
        )
    targets = list(golden.EXAMPLES) + [c[0] for c in golden.PLESS_CASES]
    if args.example is not None:
        if args.example not in targets:
            raise InapplicableParameters(
                f"unknown example {args.example!r}; choose from {', '.join(targets)}"
            )
        targets = [args.example]
    # one distribution per code: an example extends the distribution its
    # moment case checks
    @cache
    def cyclic(spec: CodeSpec) -> WeightDistribution:
        return cyclic_weight_distribution(spec, Field(spec.m), args.threads)

    results = []
    for ex_id in targets:
        if ex_id in golden.EXAMPLES:
            info = golden.EXAMPLES[ex_id]
            dist = extend_distribution(cyclic(CodeSpec(info["family"], info["s"], info["l"])))
            match = dist.entries == info["enumerator"] and dist.dimension == info["params"][1]
            code = f"[{dist.length}, {dist.dimension}, {dist.min_distance()}]"
        else:
            _, s, n, k = next(c for c in golden.PLESS_CASES if c[0] == ex_id)
            dist = cyclic(CodeSpec("c1", s))
            match = dist.length == n and dist.dimension == k and bool(pless_verify(dist))
            code = f"[{n}, {k}]"
        results.append({"example": ex_id, "code": code, "match": match})
    all_match = all(r["match"] for r in results)
    return Result({"results": results, "all_match": all_match}, ["example", "code", "match"],
                  [[r["example"], r["code"], r["match"]] for r in results], ok=all_match)


def build_parser() -> argparse.ArgumentParser:
    """The argument tree of every subcommand.  main() builds it once per
    process, on its first call, and reuses it: --threads defaults to None,
    which main() resolves to the CPU count of the moment on every call."""
    parser = argparse.ArgumentParser(
        prog="designforge",
        description="Exact weight distributions, affine invariance, and design "
        "verification for two families of extended binary cyclic codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family=False):
        p.add_argument("--poly", type=_parse_poly, default=None,
                       help="primitive polynomial as hex (LSB = constant term)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: the CPU count)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if family:
            p.add_argument("--family", choices=("c1", "c2"), required=True)
            p.add_argument("--s", type=int, required=True)
            p.add_argument("--l", type=int, default=None)

    p = sub.add_parser("field", help="field summary and primitivity check")
    p.add_argument("--m", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("weights", help="weight distribution by enumeration")
    add_common(p, family=True)
    p.add_argument("--closed-form", action="store_true", dest="closed_form",
                   help="compare against the closed-form table")
    p.add_argument("--cyclic", action="store_true", help="length-n cyclic relative")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("designs", help="brute-force t-design verification")
    add_common(p, family=True)
    p.add_argument("--t", type=int, default=2, choices=(2, 3))
    p.add_argument("--weight", type=int, default=None, help="verify one weight class")
    p.add_argument("--exhaustive", action="store_true",
                   help="verify classes beyond the cost gate")
    p.add_argument("--export-blocks", action="store_true", dest="export_blocks",
                   help="print blocks (needs --weight), one per line")
    p.set_defaults(func=cmd_designs)

    p = sub.add_parser("invariance", help="affine-invariance checks")
    add_common(p, family=True)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("reproduce", help="golden suite of published examples")
    add_common(p)
    p.add_argument("--example", default=None, help="run one example by id")
    p.set_defaults(func=cmd_reproduce)

    return parser


_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only code that writes stdout or picks the exit code."""
    args = _parser().parse_args(argv)
    if args.threads is None:
        args.threads = os.cpu_count() or 1
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        result = args.func(args)
        if not isinstance(result, Result):  # --export-blocks: a stream of block lines
            lines, code = result, EXIT_OK
        else:
            code = EXIT_OK if result.ok else EXIT_MISMATCH
            if args.format == "csv":
                lines = [",".join(result.header)]
                lines += [",".join("" if x is None else str(x) for x in row) for row in result.rows]
            else:
                lines = [json.dumps(result.obj, sort_keys=True)]
        try:
            for line in lines:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout, which ends the output but not the
            # verdict; stdout goes to devnull so the exit flush cannot raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except ValueError as exc:  # UnsupportedM, InapplicableParameters, TooLarge, ... subclass it
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except CheckFailed as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

"""Run the same CLI invocations under two source trees and report every difference.

Usage (from any directory):

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each invocation runs as `python -m designforge.cli ...` in a subprocess
whose PYTHONPATH is one tree's src directory (the directory that holds the
designforge package).  The invocations are:

- the `spectra` and `designs` workloads of perfbench/workloads.py, each
  with the built-in polynomial and with two polynomials of its degree drawn
  by a fixed seed, at --threads 1 and 2;
- the three --export-blocks cases pinned in tests/test_cli.py;
- `weights --cyclic` and `invariance` for c1(2..4), c2(2,1), c2(3,1),
  c2(3,2), c2(4,1), c2(4,3) and c2(5,1..4);
- `weights --cyclic` and `weights --closed-form` for c1(6) and c2(6,1), at
  m = 12;
- `weights --cyclic` for c2(7,1) and c2(8,1), at m = 14 and 16: the
  orbit premises on the longest words a command builds;
- `reproduce --example m4` and `--example 3.6`, one code, c1(2) = c2(2,1),
  swept over the orbits of each;
- the gated `designs --family c1 --s 4 --t 2` report, where classes are
  skipped and partner classes 96 and 160 share their H0 pair;
- bad inputs: an odd --weight, --l equal to --s, and `field --m 5`.

A second pass runs every invocation again, in the same order, through
one interpreter's `designforge.cli.main` per tree, as perfbench/worker.py
does, and compares each with that tree's subprocess run: state that one
call leaves behind for the next (a cached parser or table) shows up there.

Prints the unified diff of every stdout or stderr that differs and every
pair of exit codes that differ, then one summary line per pass.  Exits 1
if any invocation differs in either pass, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 24
THREADS = (1, 2)
CODES = [("c1", 2, None), ("c1", 3, None), ("c1", 4, None), ("c2", 2, 1),
         ("c2", 3, 1), ("c2", 3, 2), ("c2", 4, 1), ("c2", 4, 3),
         *(("c2", 5, l) for l in range(1, 5))]


def invocations() -> list[list[str]]:
    """Every argv the two trees are compared on, in a fixed order."""
    from perfbench import workloads

    rng = random.Random(SEED)
    drawn: dict[int, list[int]] = {}
    out = []
    for name in ("spectra", "designs"):
        for inv in workloads.build(name):
            polys: list[list[str]] = [[]]
            if inv.m is not None:
                if inv.m not in drawn:
                    drawn[inv.m] = rng.sample(workloads.primitive_polys(inv.m), 2)
                polys += [["--poly", f"{p:#x}"] for p in drawn[inv.m]]
            out += [inv.argv + poly + ["--threads", str(t)] for poly in polys for t in THREADS]
    for s, weight in (("2", "4"), ("3", "16")):
        out.append(["designs", "--family", "c1", "--s", s, "--weight", weight, "--export-blocks"])
    out.append(["designs", "--family", "c2", "--s", "3", "--l", "1", "--weight", "32", "--export-blocks"])
    for code in CODES:
        out.append(["weights", *workloads._code_args(*code), "--cyclic"])
        out.append(["invariance", *workloads._code_args(*code)])
    for code in (("c1", 6, None), ("c2", 6, 1)):
        for flag in ("--cyclic", "--closed-form"):
            out.append(["weights", *workloads._code_args(*code), flag])
    for code in (("c2", 7, 1), ("c2", 8, 1)):
        out.append(["weights", *workloads._code_args(*code), "--cyclic"])
    for example in ("m4", "3.6"):
        out.append(["reproduce", "--example", example])
    out.append(["designs", "--family", "c1", "--s", "4", "--t", "2"])
    out.append(["designs", "--family", "c1", "--s", "2", "--weight", "5"])
    out.append(["weights", "--family", "c2", "--s", "3", "--l", "3"])
    out.append(["field", "--m", "5"])
    return out


# Reads a JSON list of argvs on stdin, runs each through one main(), and
# writes [exit code, stdout, stderr] of each as one JSON list.
IN_PROCESS = """
import contextlib, io, json, sys, traceback
from designforge.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # as an uncaught error ends `python -m`: exit 1, traceback on stderr
            traceback.print_exc()
            rc = 1
    results.append([rc, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _env(src: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def run(src: Path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "designforge.cli", *argv], cwd=src, env=_env(src),
                          capture_output=True, text=True, check=False)


def run_in_process(src: Path, argvs: list[list[str]]) -> list[subprocess.CompletedProcess]:
    """Every argv in order through one interpreter's designforge.cli.main."""
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS], cwd=src, env=_env(src),
                          input=json.dumps(argvs), capture_output=True, text=True, check=True)
    return [subprocess.CompletedProcess(argv, rc, out, err)
            for argv, (rc, out, err) in zip(argvs, json.loads(proc.stdout), strict=True)]


def differences(old: subprocess.CompletedProcess, new: subprocess.CompletedProcess,
                labels: tuple[str, str]) -> list[str]:
    """Lines describing how two runs of one argv differ; empty if they agree."""
    out = []
    if old.returncode != new.returncode:
        out.append(f"exit code: {old.returncode} -> {new.returncode}")
    for stream in ("stdout", "stderr"):
        a, b = getattr(old, stream), getattr(new, stream)
        if a != b:
            out.append(f"{stream}:")
            out += difflib.unified_diff(a.splitlines(), b.splitlines(), *labels, lineterm="")
    return out


def report(pairs, labels: tuple[str, str], where: str) -> int:
    """Print the differences of each (argv, old, new); return how many differ."""
    differing = 0
    for argv, old, new in pairs:
        diff = differences(old, new, labels)
        if diff:
            differing += 1
            print(f"DIFFERS{where}: designforge " + " ".join(argv))
            print("\n".join(diff))
    return differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="src directory of the parent tree")
    parser.add_argument("change", type=Path, help="src directory of the changed tree")
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    # workloads.py builds its expected outputs with designforge; the argv it
    # yields is the same under either tree
    sys.path[:0] = [str(REPO), str(change)]
    argvs = invocations()
    trees = (parent, change)
    runs: tuple[list, list] = ([], [])
    for argv in argvs:
        for tree, done in zip(trees, runs):
            done.append(run(tree, argv))
    differing = report(zip(argvs, *runs), ("parent", "change"), "")
    print(f"{len(argvs)} invocations, {differing} differ in stdout, stderr or exit code")
    for name, tree, done in zip(("parent", "change"), trees, runs):
        alone = report(zip(argvs, done, run_in_process(tree, argvs)),
                       ("subprocess", "in-process"), f" in one process ({name})")
        print(f"{name}: {len(argvs)} invocations in one process, {alone} differ from their subprocess runs")
        differing += alone
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

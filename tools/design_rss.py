"""Peak resident set of the `designs` benchmark invocations, for comparing
two source trees.

Usage (from any directory):

    python3 tools/design_rss.py path/to/src [--repeats 5] [--threads 2]

Imports designforge.cli from the given src directory in a fresh
interpreter per run, with stdout discarded.  Each of the seven `designs`
invocations of the benchmark runs alone, then the c1(4) weight-96 and
the c1(3) t = 2 invocations run in one process in both orders, since the
peak of the pair depends on which comes first.  Each run is repeated
--repeats times; the runs alternate, so a drifting machine shows in every
entry alike.  Prints one JSON object: for each run the median, least and
greatest ru_maxrss in MB (kB / 1024, as the benchmark's peak_rss_mb), and
the median resident set left once the run is over (VmRSS, where /proc
is readable), plus the CPU count and the numpy version.  The built-in
primitive polynomials are used, so every run does the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

INVOCATIONS = {
    "c1(3) t2": ["designs", "--family", "c1", "--s", "3", "--t", "2"],
    "c2(3,1) t2": ["designs", "--family", "c2", "--s", "3", "--l", "1", "--t", "2"],
    "c2(3,2) t2": ["designs", "--family", "c2", "--s", "3", "--l", "2", "--t", "2"],
    "c1(4) t2 w96": ["designs", "--family", "c1", "--s", "4", "--t", "2", "--weight", "96"],
    "c1(2) t3": ["designs", "--family", "c1", "--s", "2", "--t", "3"],
    "c2(2,1) t3": ["designs", "--family", "c2", "--s", "2", "--l", "1", "--t", "3"],
    "c2(3,1) t3 w16": ["designs", "--family", "c2", "--s", "3", "--l", "1", "--t", "3", "--weight", "16"],
}
PAIR = ("c1(4) t2 w96", "c1(3) t2")

CHILD = """
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1])
from designforge.cli import main
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
try:
    with open("/proc/self/status") as status:
        after = next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))
except OSError:
    after = None
print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "after_kb": after}))
"""


def _run(src: Path, keys: tuple[str, ...], threads: int) -> dict:
    argvs = [INVOCATIONS[key] + ["--threads", str(threads)] for key in keys]
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(argvs)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _mb(kb: float) -> float:
    return round(kb / 1024, 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="directory that holds the designforge package")
    parser.add_argument("--repeats", type=int, default=5, help="runs of each invocation or order")
    parser.add_argument("--threads", type=int, default=2, help="--threads of every invocation")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    runs = [(key,) for key in INVOCATIONS] + [PAIR, PAIR[::-1]]
    readings: dict[tuple[str, ...], list[dict]] = {run: [] for run in runs}
    for _ in range(args.repeats):
        for run in runs:
            readings[run].append(_run(src, run, args.threads))
    result = {"src": str(src), "nproc": os.cpu_count(), "numpy": np.__version__,
              "threads": args.threads, "repeats": args.repeats, "alone": {}, "pair": {}}
    for run, got in readings.items():
        peaks = [r["maxrss_kb"] for r in got]
        after = [r["after_kb"] for r in got if r["after_kb"] is not None]
        entry = {"peak_mb": _mb(statistics.median(peaks)), "peak_min_mb": _mb(min(peaks)),
                 "peak_max_mb": _mb(max(peaks)),
                 "after_mb": _mb(statistics.median(after)) if after else None}
        if len(run) == 1:
            result["alone"][run[0]] = entry
        else:
            result["pair"][" then ".join(run)] = entry
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()

"""Sweep timing at 1 and 2 threads, for comparing two source trees.

Usage (from any directory):

    python3 tools/sweep_scaling.py path/to/src

Imports designforge from the given src directory and times
spectrum.cyclic_weight_distribution, the orbit sweep that `--threads`
splits, of c1(6) at m = 12 (356 orbit representatives, about 12 batches)
and c1(7) at m = 14 (1185 representatives).  Each spectrum is computed
once as a warm-up, then 15 more times at each of 1 and 2 threads, the
thread counts alternating run by run.  Prints one JSON object: the
median seconds per spectrum and thread count, the 2-thread speedup of
each, the CPU count and the numpy version.  Run it on two trees one
after the other, on an otherwise idle machine, to compare them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

REPEATS = 15
THREADS = (1, 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="directory that holds the designforge package")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    from designforge import CodeSpec, Field
    from designforge.spectrum import cyclic_weight_distribution

    result = {"src": str(args.src.resolve()), "nproc": os.cpu_count(), "numpy": np.__version__,
              "repeats": REPEATS, "median_s": {}, "speedup_2_threads": {}}
    for spec in (CodeSpec("c1", 6), CodeSpec("c1", 7)):
        field = Field(spec.m)
        cyclic_weight_distribution(spec, field)
        times: dict[int, list[float]] = {t: [] for t in THREADS}
        for _ in range(REPEATS):
            for threads in THREADS:
                start = perf_counter()
                cyclic_weight_distribution(spec, field, threads)
                times[threads].append(perf_counter() - start)
        medians = {str(t): round(statistics.median(times[t]), 5) for t in THREADS}
        result["median_s"][spec.label()] = medians
        result["speedup_2_threads"][spec.label()] = round(medians["1"] / medians["2"], 3)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()

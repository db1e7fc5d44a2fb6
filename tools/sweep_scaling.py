"""Sweep timing at 1 and 2 threads, for comparing two source trees.

Usage (from any directory):

    python3 tools/sweep_scaling.py path/to/src

Imports designforge from the given src directory and times
codebuild.weight_histogram on the cyclic bases of c1(4) (2^24 words,
length 255) and c2(5,1) (2^25 words, length 1023).  Each sweep runs once
as a warm-up, then 15 more times at each of 1 and 2 threads, the thread
counts alternating run by run.  Prints one JSON object: the median
seconds per sweep and thread count, the 2-thread speedup of each sweep,
the CPU count and the numpy version.  Run it on two trees one after the
other, on an otherwise idle machine, to compare them.
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
    from designforge.codebuild import cyclic_generator_basis, weight_histogram

    result = {"src": str(args.src.resolve()), "nproc": os.cpu_count(), "numpy": np.__version__,
              "repeats": REPEATS, "median_s": {}, "speedup_2_threads": {}}
    for spec in (CodeSpec("c1", 4), CodeSpec("c2", 5, 1)):
        basis = cyclic_generator_basis(spec, Field(spec.m))
        weight_histogram(basis, spec.n)
        times: dict[int, list[float]] = {t: [] for t in THREADS}
        for _ in range(REPEATS):
            for threads in THREADS:
                start = perf_counter()
                weight_histogram(basis, spec.n, threads)
                times[threads].append(perf_counter() - start)
        medians = {str(t): round(statistics.median(times[t]), 5) for t in THREADS}
        result["median_s"][spec.label()] = medians
        result["speedup_2_threads"][spec.label()] = round(medians["1"] / medians["2"], 3)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()

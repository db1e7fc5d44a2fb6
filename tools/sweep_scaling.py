"""Spectrum timing per layer at 1 thread, and at 1 and 2 threads, for
comparing two source trees.

Usage (from any directory):

    python3 tools/sweep_scaling.py path/to/src

Imports designforge from the given src directory.  The setup table times
each layer of spectrum.cyclic_weight_distribution at 1 thread, for c1(2..8),
c2(5,1) and c2(8,1): the slot words, the two orbit premises (with the
linear maps they compare against), the orbits and their size check, the
rank of the slot words, and the sweep (the representatives' coset words
and weight_histogram).  Each layer runs once as a warm-up, then until it
has 15 samples or 1 s of them, at least 3.  The thread table times the
whole spectrum, the orbit sweep that `--threads` splits, of c1(6) at
m = 12 (356 orbit representatives, about 12 batches) and c1(7) at m = 14
(1185 representatives): once as a warm-up, then 15 more times at each of
1 and 2 threads, the thread counts alternating run by run.  Prints one
JSON object: the median seconds per layer and code, the median seconds
per spectrum and thread count, the 2-thread speedup of each, the CPU
count and the numpy version.  Run it on two trees one after the other, on
an otherwise idle machine, to compare them.
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
LAYER_BUDGET_S = 1.0


def _median_s(run) -> float:
    """Median seconds of run() after one warm-up call: REPEATS samples, or
    as many as fit in LAYER_BUDGET_S, at least 3."""
    run()
    times: list[float] = []
    while len(times) < 3 or (len(times) < REPEATS and sum(times) < LAYER_BUDGET_S):
        start = perf_counter()
        run()
        times.append(perf_counter() - start)
    return statistics.median(times)


def setup_table(spec, field) -> dict[str, float]:
    """Median seconds of each layer of cyclic_weight_distribution at 1 thread."""
    from designforge import spectrum
    from designforge.codebuild import reduce_rows, slot_words, weight_histogram

    slots = slot_words(spec, field)
    word_at = [spectrum._linear_words(words) for words in slots]
    orbits = spectrum._orbits(spec)

    def premises():
        spectrum._require_premises(spec, field, slots, [spectrum._linear_words(words) for words in slots])

    def orbits_and_sizes():
        spectrum._require_orbit_sizes(spec, spectrum._orbits(spec))

    def sweep():
        cosets: dict[int, int] = {}
        for la, lb, size in orbits:
            a, b = (0 if log is None else field.alpha_pow(log) for log in (la, lb))
            word = (word_at[0](a) ^ word_at[1](b)) >> 1
            cosets[word] = cosets.get(word, 0) + size
        weight_histogram([word >> 1 for word in slots[-1].values()], spec.n, 1, cosets)

    layers = {
        "slot_words": lambda: slot_words(spec, field),
        "premises": premises,
        "orbits": orbits_and_sizes,
        "rank": lambda: reduce_rows([word for words in slots for word in words.values()]),
        "sweep": sweep,
    }
    return {name: round(_median_s(run), 6) for name, run in layers.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="directory that holds the designforge package")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    from designforge import CodeSpec, Field
    from designforge.spectrum import cyclic_weight_distribution

    result = {"src": str(args.src.resolve()), "nproc": os.cpu_count(), "numpy": np.__version__,
              "repeats": REPEATS, "setup_median_s": {}, "median_s": {}, "speedup_2_threads": {}}
    for spec in (*(CodeSpec("c1", s) for s in range(2, 9)), CodeSpec("c2", 5, 1), CodeSpec("c2", 8, 1)):
        result["setup_median_s"][spec.label()] = setup_table(spec, Field(spec.m))
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

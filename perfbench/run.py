"""Benchmark of the designforge command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Each repetition runs every invocation of one workload (see workloads.py)
through `designforge.cli.main(argv)` in a fresh interpreter: one client in
a closed loop, invocations back to back, at `--threads min(2, nproc)`.
The seed picks each invocation's primitive polynomial and the invocation
order; the program sees only the generated argv.  Every output is checked
against published values, and outputs must be byte-identical across the
repetitions' different polynomials.  Repetitions run until the next one
would likely end past `--seconds`.

With `--trace 0` the last stdout line reports the end-to-end metrics:

    wall_s       median over repetitions of the invocations' wall time
    words_per_s  problem codewords (sum of 2^dim per code an invocation
                 names) per second of wall time
    cpu_s        user + system CPU time of the invocations
    peak_rss_mb  peak resident set of the repetition's process
    setup_s      interpreter start to `designforge.cli` imported, median
                 over dedicated probes and every repetition's process

fail_ratio, the tail of wall_s and (for the designs workload) increments_per_s
are printed on the lines above it.  With `--trace 1` the repetitions
alternate traced and untraced, and the last line reports the per-layer
metrics of the traced ones (see tracer.py and workloads.LAYER_MAP), with each
span's share of the traced wall time on the lines above it.  Work counts must
repeat across traced repetitions, and designs.blocks must equal the sum of b
over the verified classes.  The spans are written to perfbench/out/.

Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # the whole run ends within this, whatever --seconds says
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Counts that must repeat exactly across traced repetitions.  Of these only
# designs.blocks (the sum of b over the verified classes) is fixed by the
# problem and checked against its closed value; how often the program sweeps,
# streams or builds a basis is its own choice, which an optimisation may change.
REPEATING = ("codebuild.sweep_words", "codebuild.stream_words", "codebuild.basis_builds",
             "designs.blocks", "designs.increments", "designs.classes_verified",
             "gf2m.fields_built")


class BenchmarkError(RuntimeError):
    """The benchmark itself is wrong: its checker, its counts or its worker."""


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}", statistics.quantiles(values, n=1000)[round(p * 10) - 1]
    return "max", max(values)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, wl):
        self.wl = wl
        self.workload = workload
        self.seconds = seconds
        self.threads = min(2, os.cpu_count() or 1)
        self.invocations = wl.build(workload)
        self.polys = {m: wl.primitive_polys(m) for m in {i.m for i in self.invocations if i.m}}
        self.rng = random.Random(seed)
        self.env = dict(os.environ)
        self.env.pop("DESIGN_FORGE_THREADS", None)
        self.env["PYTHONPATH"] = str(SRC)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.started = perf_counter()
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}
        self.self_checked: set[str] = set()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - self.started)

    def spawn(self, job: dict, timeout: float) -> tuple[float, list[dict], dict | None, str]:
        """Run worker.py on job; returns set-up seconds, invocation lines, the
        end line (None on a timeout or crash) and stderr."""
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT, bufsize=0,
        )
        try:
            ready = proc.stdout.readline()  # unbuffered: reads exactly this line
            setup = perf_counter() - t0
            if ready != b"ready\n":
                out, err = proc.communicate(timeout=max(1.0, timeout))
                raise BenchmarkError(f"worker did not start: {(ready + err).decode()[-2000:]}")
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = []
        for text in out.decode().splitlines():
            try:
                lines.append(json.loads(text))
            except json.JSONDecodeError:  # cut short by a kill
                break
        end = lines.pop() if lines and "maxrss_kb" in lines[-1] else None
        return setup, lines, end, err.decode()

    def probe_setup(self) -> None:
        self.spawn({"invocations": [], "trace": False}, timeout=60)  # warm-up, not counted
        for _ in range(SETUP_PROBES):
            self.setups.append(self.spawn({"invocations": [], "trace": False}, timeout=60)[0])

    def repetition(self, trace: bool, calibrate: bool = False) -> dict:
        drawn = self.wl.draw(self.invocations, self.rng, self.polys, self.threads)
        job = {"invocations": [argv for _, argv in drawn], "trace": trace,
               "calibrate_threads": self.threads if calibrate else 0}
        setup, lines, end, err = self.spawn(job, timeout=max(1.0, self.remaining() - 5))
        self.setups.append(setup)
        self.attempted += len(drawn)
        done = {line["i"]: line for line in lines}
        for i, (inv, argv) in enumerate(drawn):
            line = done.get(i)
            if line is None:
                self.failures.append(f"{' '.join(argv)}: timeout or crash\n{err[-2000:]}")
                continue
            reason = self.wl.check(inv, line["rc"], line["stdout"], line["error"])
            if reason is None and self.outputs.setdefault(inv.key, line["stdout"]) != line["stdout"]:
                reason = "stdout differs from another repetition's (another --poly)"
            if reason is not None:
                self.failures.append(f"{' '.join(argv)}: {reason}")
            elif inv.key not in self.self_checked:
                self.wl.self_check(inv, line["rc"], line["stdout"])
                self.self_checked.add(inv.key)
        if end is None or len(done) != len(drawn):
            return {"complete": False}
        return {
            "complete": True,
            "wall": sum(x["wall"] for x in lines),
            "cpu": sum(x["cpu"] for x in lines),
            "rss_mb": end["maxrss_kb"] / 1024,
            "stdout_bytes": sum(len(x["stdout"].encode()) for x in lines),
            "end": end,
            "drawn": [argv for _, argv in drawn],
        }

    def loop(self, schedule) -> list[dict]:
        """Run the repetitions schedule() yields, as (traced, calibrate, forced),
        until the next unforced one would likely end past --seconds."""
        reps: list[dict] = []
        t0 = perf_counter()
        durations: list[float] = []  # of repetitions without calibration
        for traced, calibrate, forced in schedule():
            estimate = _median(durations)
            if not forced and perf_counter() - t0 + estimate > self.seconds:
                break
            if estimate + 5 > self.remaining():
                break
            r0 = perf_counter()
            rep = self.repetition(traced, calibrate)
            rep["traced"] = traced
            if not calibrate:
                durations.append(perf_counter() - r0)
            reps.append(rep)
            if not rep["complete"]:
                break
        return reps

    @property
    def problem_words(self) -> int:
        return sum(i.problem_words for i in self.invocations)

    @property
    def increments(self) -> int:
        return sum(i.increments for i in self.invocations)


def end_to_end(runner: Runner) -> tuple[dict, list[str]]:
    def schedule():
        while True:
            yield (False, False, False)

    reps = [r for r in runner.loop(schedule) if r["complete"]]
    walls = [r["wall"] for r in reps]
    notes = []
    metrics = {}
    if reps:
        metrics = {
            "wall_s": _median(walls),
            "words_per_s": _median([runner.problem_words / w for w in walls]),
            "cpu_s": _median([r["cpu"] for r in reps]),
            "peak_rss_mb": _median([r["rss_mb"] for r in reps]),
        }
        label, value = tail(walls)
        notes.append(f"wall_s {label} {value!r} s (n={len(walls)}); samples {walls!r}")
        if runner.increments:
            notes.append(f"increments_per_s {_median([runner.increments / w for w in walls])!r} "
                         f"1/s ({runner.increments} t-subset increments per repetition)")
    metrics["setup_s"] = _median(runner.setups)
    notes.append(f"setup_s n={len(runner.setups)}")
    return metrics, notes


def per_layer(runner: Runner) -> tuple[dict, list[str], dict]:
    def schedule():
        yield (True, True, True)
        yield (False, False, True)
        yield (True, False, True)
        while True:
            yield (False, False, False)
            yield (True, False, False)

    reps = [r for r in runner.loop(schedule) if r["complete"]]
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    if not traced or not untraced:
        return {}, ["no complete traced and untraced repetition"], {}

    closed_blocks = sum(i.blocks for i in runner.invocations)
    for r in traced:
        got = r["end"]["counters"].get("designs.blocks", 0)
        if got != closed_blocks:
            raise BenchmarkError(f"designs.blocks = {got}, closed value sum(b) = {closed_blocks}")

    def layer_metrics(rep: dict) -> dict:
        counters = rep["end"]["counters"]
        selfs: dict[str, float] = {}
        for span in rep["end"]["spans"]:
            selfs[span["name"]] = selfs.get(span["name"], 0.0) + span["self"]
        # Spans are named after their metric; a layer the workload never calls reads 0.
        m = {name: selfs.get(name, 0.0) for name, unit in PER_LAYER_UNITS.items()
             if unit == "s" and not name.startswith("trace.")}
        m.update({name: counters.get(name, 0)
                  for name, unit in PER_LAYER_UNITS.items() if unit == "count"})
        swept = m["codebuild.sweep_words"] + m["codebuild.stream_words"]
        m["codebuild.sweep_words_per_s"] = (
            m["codebuild.sweep_words"] / m["codebuild.sweep_s"] if m["codebuild.sweep_s"] else 0.0)
        m["codebuild.useful_word_ratio"] = runner.problem_words / swept if swept else 0.0
        count_s = m["designs.count_t2_s"] + m["designs.count_t3_s"]
        m["designs.increments_per_s"] = m["designs.increments"] / count_s if count_s else 0.0
        m["cli.stdout_bytes"] = rep["stdout_bytes"]
        m["trace.self_sum_s"] = sum(selfs.values())
        m["trace.selfs"] = selfs
        return m

    layers = [layer_metrics(r) for r in traced]
    for m in layers[1:]:
        for k in REPEATING:
            if m[k] != layers[0][k]:
                raise BenchmarkError(f"{k} did not repeat: {m[k]} != {layers[0][k]}")
    metrics = {k: layers[0][k] if PER_LAYER_UNITS[k] in ("count", "B") else _median([m[k] for m in layers])
               for k in PER_LAYER_UNITS if k in layers[0]}
    cal = traced[0]["end"]["calibration"]
    metrics["codebuild.sweep_parallel_eff"] = (
        cal["one_thread_s"] / (cal["threads"] * cal["many_threads_s"]))
    metrics["trace.wall_s"] = _median([r["wall"] for r in traced])
    metrics["trace.untraced_wall_s"] = _median([r["wall"] for r in untraced])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    self_sum = _median([m["trace.self_sum_s"] for m in layers])
    wall = metrics["trace.wall_s"]
    spans = sorted({k for m in layers for k in m["trace.selfs"]})
    share = {k: round(_median([m["trace.selfs"].get(k, 0.0) for m in layers]) / wall, 4)
             for k in spans}
    notes = [
        f"traced repetitions {len(traced)}, untraced {len(untraced)}",
        f"self times sum to {self_sum!r} s; traced wall_s {metrics['trace.wall_s']!r} s = "
        f"untraced {metrics['trace.untraced_wall_s']!r} s + overhead {metrics['trace.overhead_s']!r} s",
        f"share of traced wall_s by span self time: {json.dumps(share)}",
        f"sweep calibration over {cal['bases']} bases: {cal['one_thread_s']!r} s at 1 thread, "
        f"{cal['many_threads_s']!r} s at {cal['threads']}",
        f"designs.blocks equals its closed value {closed_blocks}; "
        + ", ".join(f"{k}={layers[0][k]}" for k in REPEATING) + " repeat",
    ]
    trace = {"spans": [r["end"]["spans"] for r in traced], "argv": [r["drawn"] for r in traced],
             "counters": [r["end"]["counters"] for r in traced], "calibration": cal}
    return metrics, notes, trace


def environment(runner: Runner, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": os.cpu_count(), "threads": runner.threads, "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__, "seed": seed,
            "commit": commit, "workload": runner.workload}


def run(workload: str, seed: int, seconds: float, trace: bool, wl) -> dict:
    if set(wl.LAYER_MAP) != set(PER_LAYER_UNITS):
        raise BenchmarkError("workloads.LAYER_MAP and BENCHMARK.json per_layer name "
                             f"different metrics: {set(wl.LAYER_MAP) ^ set(PER_LAYER_UNITS)}")
    runner = Runner(workload, seed, seconds, wl)
    print(json.dumps({"environment": environment(runner, seed)}))
    runner.probe_setup()
    if trace:
        metrics, notes, spans = per_layer(runner)
        units = PER_LAYER_UNITS
    else:
        metrics, notes = end_to_end(runner)
        units = END_TO_END_UNITS
    fail_ratio = len(runner.failures) / max(1, runner.attempted)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for note in notes:
        print(f"# {workload}: {note}")
    print(f"# {workload}: fail_ratio {fail_ratio!r} ({len(runner.failures)}/{runner.attempted})")
    for name, value in metrics.items():
        print(f"{workload:11s} {name:30s} {value!r} {units[name]}")
    if trace and spans:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace_{workload}_seed{seed}.json", "w") as f:
            json.dump({"environment": environment(runner, seed), "layer_map": wl.LAYER_MAP,
                       "metrics": metrics, **spans}, f)
    complete = set(metrics) >= set(units)
    return {
        "correct": not runner.failures and complete,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "designforge" / "cli.py").is_file():
        print(f"no designforge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(wl.WORKLOADS):
        print(f"unknown workload {args.workload!r}; choose from all, {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        results = [run(name, args.seed, args.seconds, bool(args.trace), wl) for name in names]
    except RuntimeError as exc:  # BenchmarkError, or the checker's self-check
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

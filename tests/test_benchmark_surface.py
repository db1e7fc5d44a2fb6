"""The benchmark harness under perfbench/ patches and imports library names
by attribute; this fails when one of them is removed or renamed.  Its traced
run also requires every verified block to pass through
`designs.blocks_of_weight`, one int at a time, the words each workload
sweeps and streams to be the counts pinned below, each workload to record
a sweep, and every field to be built inside `Field.__init__`, which the
tracer counts."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import workloads
from tracer import Tracer
import designforge.gf2m as gf2m
from designforge.cli import main

built = []  # every Field construction, counted apart from the tracer
gf2m.Field.__new__ = lambda cls, *args, **kwargs: built.append(args) or object.__new__(cls)
tracer = Tracer()
tracer.install()
counters = tracer.counters
# Fields built per workload: reproduce builds one per CodeSpec it names (6),
# every other invocation one.  Words swept per workload: every distribution
# is one sweep of the span of its m linear rows, 2^m words, over its orbit
# representatives' words (c1(2) and c2(2, 1) are one code, each swept over
# its own orbits).  Words streamed: designs gathers each code's classes by
# one stream of its H0, and spectra streams nothing.  Each workload must
# record a sweep: the calibration of `run.py --trace 1` times those it
# recorded, and divides by that time.
for name, fields, words, streamed in (("spectra", 10, 1504, 0), ("designs", 7, 544, 17139712)):
    before = (counters["gf2m.fields_built"], len(built), counters["codebuild.sweep_words"],
              counters["codebuild.stream_words"])
    tracer.swept.clear()
    invocations = workloads.build(name)
    assert invocations, name
    for inv in invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(inv.argv)
        failure = workloads.check(inv, rc, out.getvalue(), None)
        assert failure is None, (inv.key, failure)
    built_here = counters["gf2m.fields_built"] - before[0], len(built) - before[1]
    assert built_here == (fields, fields), (name, built_here)
    swept = counters["codebuild.sweep_words"] - before[2]
    assert swept == words, (name, swept)
    streamed_here = counters["codebuild.stream_words"] - before[3]
    assert streamed_here == streamed, (name, streamed_here)
    assert tracer.swept, name
assert counters["designs.blocks"] == sum(inv.blocks for inv in invocations), dict(counters)
"""


def test_perfbench_tracer_installs_and_workloads_build():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

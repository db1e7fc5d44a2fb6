"""The benchmark harness under perfbench/ patches and imports library names
by attribute; this fails when one of them is removed or renamed.  Its traced
run also requires every verified block to pass through
`designs.blocks_of_weight`, one int at a time, and no class to be streamed."""

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
from designforge.cli import main

tracer = Tracer()
tracer.install()
for name in ("spectra", "designs"):
    assert workloads.build(name), name

invocations = workloads.build("designs")
for inv in invocations:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(inv.argv)
    failure = workloads.check(inv, rc, out.getvalue(), None)
    assert failure is None, (inv.key, failure)
counters = tracer.counters
assert counters["designs.blocks"] == sum(inv.blocks for inv in invocations), dict(counters)
assert counters["codebuild.stream_words"] == 0, dict(counters)
"""


def test_perfbench_tracer_installs_and_workloads_build():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

"""The benchmark harness under perfbench/ patches and imports library names
by attribute; this fails when one of them is removed or renamed."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import workloads
from tracer import Tracer

Tracer().install()
for name in ("spectra", "designs"):
    assert workloads.build(name), name
"""


def test_perfbench_tracer_installs_and_workloads_build():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

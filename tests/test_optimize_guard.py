"""Every internal check of the program stays active under `python -O`.

`python -O` compiles away assert statements and code under `if __debug__`,
so the program checks with checks.require instead.  This scans the source
of every module, not only the paths that the -O subprocess tests run.
"""

from __future__ import annotations

import ast
from pathlib import Path


def test_no_check_vanishes_under_optimize():
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "designforge").rglob("*.py"))
    assert {p.name for p in modules} >= {"cli.py", "codebuild.py", "designs.py", "spectrum.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == [], f"python -O strips these checks: {found}"

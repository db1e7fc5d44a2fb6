"""cli.main is the one writer of stdout.

Commands return their results and main prints them, so whatever else the
program writes (diagnostics, notices) goes to stderr and stdout stays
byte-identical however a run is observed.  This scans the source of every
module: outside cli.main, a print must pass file=sys.stderr and nothing may
name sys.stdout.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "designforge"


def _is_sys_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def _stdout_writes(tree: ast.AST, where: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if _is_sys_attr(node, "stdout"):
            found.append(f"{where}:{node.lineno} sys.stdout")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            if not any(kw.arg == "file" and _is_sys_attr(kw.value, "stderr") for kw in node.keywords):
                found.append(f"{where}:{node.lineno} print without file=sys.stderr")
    return found


def _without_main(tree: ast.Module) -> ast.Module:
    body = [n for n in tree.body if not (isinstance(n, ast.FunctionDef) and n.name == "main")]
    assert len(body) == len(tree.body) - 1, "cli.py defines no module-level main"
    return ast.Module(body=body, type_ignores=[])


def test_only_cli_main_writes_stdout():
    modules = sorted(SRC.rglob("*.py"))
    assert {p.name for p in modules} >= {"cli.py", "codebuild.py", "designs.py", "spectrum.py"}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "cli.py":
            tree = _without_main(tree)
        found += _stdout_writes(tree, path.name)
    assert found == [], f"stdout written outside cli.main: {found}"


def test_the_guard_sees_a_stray_print():
    tree = ast.parse(
        "import sys\n"
        "def cmd(x):\n"
        "    print(x, file=sys.stderr)\n"
        "    print(x)\n"
        "    sys.stdout.write(x)\n"
        "def main():\n"
        "    print('ok')\n"
    )
    assert _stdout_writes(_without_main(tree), "m.py") == [
        "m.py:4 print without file=sys.stderr",
        "m.py:5 sys.stdout",
    ]

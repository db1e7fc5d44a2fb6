"""src/designforge holds only what the program uses.

Every public module-level name (a function, class or constant not
starting with _) must be used.  The roots are perfbench/tracer.py, which
wraps library functions by attribute, and every src statement that
defines no public name: imports, private helpers, the __main__ block.  A
public definition that a root or a used definition names is used, and
what it names is used in turn.  Re-exports in __init__ do not count.
Names match by spelling, as grep would: a name, an attribute or an
imported alias.  A reference that only tests reach belongs under tests/
(ref_codes.py), not in src.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "designforge"
TRACER = ROOT / "perfbench" / "tracer.py"

# build_codeword is the one-word API of the trace-form evaluator, which
# tests and readers call for a single codeword, and these are the errors
# it raises on a bad field or coefficient; no command needs them.
ALLOWED = {"build_codeword", "LengthMismatch", "CoefficientOutOfRange", "CoefficientNotInSubfield"}


def _named(node: ast.AST) -> set[str]:
    """Every identifier node reads: names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _defined(node: ast.stmt) -> list[str]:
    """The public names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _unused(sources: dict[str, str], tracer: str) -> list[str]:
    """module.name of every public definition no used statement names."""
    used = _named(ast.parse(tracer))
    definitions = []  # (module, name, identifiers its statement reads)
    for module, text in sources.items():
        if module == "__init__":
            continue
        for node in ast.parse(text).body:
            names = _defined(node)
            if names:
                definitions += [(module, name, _named(node)) for name in names]
            else:
                used |= _named(node)
    grew = True
    while grew:  # a used definition makes what it names used
        grew = False
        for _, name, reads in definitions:
            if name in used and not reads <= used:
                used |= reads
                grew = True
    return sorted(f"{module}.{name}" for module, name, _ in definitions if name not in used)


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_is_used_by_the_program():
    sources = _sources()
    assert {"cli", "codebuild", "spectrum", "designs", "__init__"} <= set(sources)
    unused = _unused(sources, TRACER.read_text())
    assert {name.split(".")[1] for name in unused} == ALLOWED, (
        f"public names nothing but tests use (move them under tests/ or delete them), "
        f"or an allowance no longer needed: {unused}"
    )


def test_the_guard_flags_a_planted_unused_function():
    sources = _sources()
    sources["codebuild"] += "\n\ndef planted(rows):\n    return helper(rows)\n\n\ndef helper(rows):\n    return rows\n"
    sources["__init__"] += "\nfrom .codebuild import planted\n"
    unused = _unused(sources, TRACER.read_text())
    assert {"codebuild.planted", "codebuild.helper"} <= set(unused)
    # a name the tracer patches is used
    assert "codebuild.planted" not in _unused(sources, TRACER.read_text() + "\ncodebuild.planted\n")

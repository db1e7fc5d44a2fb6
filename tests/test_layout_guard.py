"""codebuild is the one module that knows the packed bit layout.

Words are int bitmasks, packed uint64 rows or 0/1 incidence rows, and
codebuild's conversion helpers (pack_words, packed_rows_to_ints,
unpack_rows, bits_to_ints, row_weights) are the only code that fixes how
bit i of a word maps to a byte, a limb or a column.  This scans the source
of every other module for the calls that pick a bit or byte order.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "designforge"


def _layout_calls(tree: ast.AST, where: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr, owner = node.func.attr, node.func.value
        if (
            attr in ("packbits", "unpackbits") and isinstance(owner, ast.Name) and owner.id == "np"
            or attr == "from_bytes" and isinstance(owner, ast.Name) and owner.id == "int"
            or attr == "to_bytes"
        ):
            found.append(f"{where}:{node.lineno} {attr}")
    return found


def test_only_codebuild_knows_the_bit_layout():
    modules = sorted(SRC.rglob("*.py"))
    assert {p.name for p in modules} >= {"codebuild.py", "designs.py", "invariance.py"}
    found = []
    for path in modules:
        if path.name != "codebuild.py":
            found += _layout_calls(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert found == [], f"bit layout handled outside codebuild: {found}"


def test_the_guard_sees_each_layout_call():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(bits, rows, w):\n"
        "    np.packbits(bits, bitorder='little')\n"
        "    np.unpackbits(rows.view(np.uint8), axis=1)\n"
        "    int.from_bytes(rows.tobytes(), 'little')\n"
        "    w.to_bytes(8, 'little')\n"
        "    np.bitwise_count(rows)\n"
        "    rows.tobytes()\n"
    )
    assert _layout_calls(tree, "m.py") == [
        "m.py:3 packbits",
        "m.py:4 unpackbits",
        "m.py:5 from_bytes",
        "m.py:6 to_bytes",
    ]

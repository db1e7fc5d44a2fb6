"""codebuild is the one module that knows the packed bit layout.

Words are int bitmasks, packed uint64 rows or 0/1 incidence rows, and
codebuild's helpers (pack_words, packed_rows_to_ints, unpack_rows,
bits_to_ints, row_weights, holds_point, move_words) are the only code that
fixes how bit i of a word maps to a byte, a limb or a column.  This scans
the source of every other module for the calls that pick a bit or byte
order, and for the arithmetic that finds a bit's 64-bit limb (p >> 6,
p // 64) or its place in the limb (p & 63, p % 64).
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


# (operator, constant) of each step from a bit to its limb or its place in the limb
_LIMB_STEPS = {(ast.RShift, 6), (ast.FloorDiv, 64), (ast.BitAnd, 63), (ast.Mod, 64)}


def _limb_arithmetic(tree: ast.AST, where: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            operands = [node.right] + [node.left] * isinstance(node.op, ast.BitAnd)
        elif isinstance(node, ast.AugAssign):
            operands = [node.value]
        else:
            continue
        if any(isinstance(x, ast.Constant) and (type(node.op), x.value) in _LIMB_STEPS for x in operands):
            found.append(f"{where}:{node.lineno} {type(node.op).__name__} {ast.unparse(node)}")
    return found


def test_only_codebuild_knows_the_bit_layout():
    modules = sorted(SRC.rglob("*.py"))
    assert {p.name for p in modules} >= {"codebuild.py", "designs.py", "invariance.py"}
    found = []
    for path in modules:
        if path.name != "codebuild.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += _layout_calls(tree, path.name) + _limb_arithmetic(tree, path.name)
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


def test_the_guard_sees_limb_arithmetic():
    tree = ast.parse(
        "def f(rows, p, n):\n"
        "    rows[:, p >> 6] & (1 << (p & 63))\n"
        "    rows[:, p // 64] >> (p % 64)\n"
        "    63 & p\n"
        "    p >>= 6\n"
        "    p >> 7, p & 62, p // 8, n % 63\n"
    )
    assert sorted(_limb_arithmetic(tree, "m.py")) == [
        "m.py:2 BitAnd p & 63",
        "m.py:2 RShift p >> 6",
        "m.py:3 FloorDiv p // 64",
        "m.py:3 Mod p % 64",
        "m.py:4 BitAnd 63 & p",
        "m.py:5 RShift p >>= 6",
    ]

"""No module of the package computes with floats."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seplab"


def float_uses(source: str) -> list[str]:
    """'line: what' for each float literal, ``float(...)`` call and square
    root from ``math`` in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float()"))
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt":
            found.append((node.lineno, ".sqrt"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, "math.sqrt") for a in node.names if a.name == "sqrt"]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_scan_finds_every_float_source():
    source = (
        "import math\nfrom math import sqrt\n"
        "a = 2 ** 0.5\nb = float(3)\nc = math.sqrt(2)\nd = 1e3\ne = math.isqrt(9)\n"
    )
    assert float_uses(source) == [
        "2: math.sqrt", "3: literal 0.5", "4: float()", "5: .sqrt", "6: literal 1000.0"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_float(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []

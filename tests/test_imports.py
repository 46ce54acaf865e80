"""Every module of the package, every test file and every benchmark script
reads every name it imports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "seplab"
BENCH = TESTS.parent / "bench"


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # ``mod.attr`` reads ``mod`` as a Name, so dotted uses count too
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in read]


def test_scan_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom a import b as c, d\nc(d)\n"
    assert unused_imports(source) == ["1: os", "2: osp"]


# __init__ imports names to re-export them, not to read them
@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py"))
    + sorted(BENCH.glob("**/*.py")),
    ids=lambda p: str(p.relative_to(BENCH.parent)) if BENCH in p.parents else p.name,
)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

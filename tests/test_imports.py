"""Every module of the package, every test file and every benchmark script
reads every name it imports, every public function, class or method of the
package has a caller outside the unit tests, every defaulted parameter
of a public function is passed by one, and every dataclass field is read."""

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


# Test-facing names kept on purpose although no module, benchmark script or
# acceptance criterion reads them; one reason each.
KEPT = {
    "format_table": "writes the truth-table files that the rs-distance --table tests read",
    "identity_element": "the group and f2lab tests' neutral element",
    "random_permutation": "the group tests' permutation sampler",
    "compose": "the group law that the group tests check apply against",
    "minors_explicit": "spans the minors explicitly at tiny sizes, to check evaluate_module",
    "grlex_key": "the grlex order as a sort key, which the column and term order tests check against",
}


def _read_sites(tree: ast.AST, defs: dict, sites: dict) -> None:
    """Add to ``sites``, for each name read in ``tree`` as a Name or an
    attribute, the set of ``defs`` nodes around each read."""
    stack = [(tree, frozenset())]
    while stack:
        node, around = stack.pop()
        if node in defs:
            around = around | {node}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            sites.setdefault(node.id, []).append(around)
        elif isinstance(node, ast.Attribute):
            sites.setdefault(node.attr, []).append(around)
        stack.extend((child, around) for child in ast.iter_child_nodes(node))


def _public(tree: ast.Module, module: str) -> dict:
    """The label of each public top-level function or class of ``tree``, and
    of each public method of such a class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out[node] = f"{module}: {node.name}"
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    out[m] = f"{module}: {node.name}.{m.name}"
    return out


def uncalled(modules: list[Path], readers: list[Path], kept=KEPT) -> list[str]:
    """'module: name' for each top-level public function or class of
    ``modules``, and 'module: Class.name' for each public method of such a
    class, that nothing reads by name outside its own definition, in the
    modules or in ``readers``; names in ``kept`` are never flagged.  A name
    read only inside such definitions is uncalled too, so the scan repeats
    until nothing more drops."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in modules + readers}
    defs = {node: label for p in modules for node, label in _public(trees[p], p.stem).items()}
    sites: dict = {}
    for t in trees.values():
        _read_sites(t, defs, sites)
    dead: set = set()
    while True:
        # a name is read outside ``dead`` and its own definition when some
        # read of it lies in none of them
        found = {
            node
            for node in defs
            if node.name not in kept
            and all(around & (dead | {node}) for around in sites.get(node.name, ()))
        }
        if found == dead:  # reads only shrink as ``dead`` grows
            return sorted(defs[node] for node in dead)
        dead = found


def test_scan_finds_an_uncalled_function(tmp_path):
    module, reader = tmp_path / "a.py", tmp_path / "b.py"
    module.write_text(
        "def used(): pass\ndef dead(): return helper()\ndef helper(): pass\n"
        "def recursive(): recursive()\nclass _Private: pass\n"
        "class Box:\n    def __init__(self): pass\n    def get(self): pass\n"
        "    def unread(self): pass\n    def _own(self): pass\n"
    )
    reader.write_text("from a import Box, used\nused()\nBox().get()\n")
    assert uncalled([module], [reader]) == [
        "a: Box.unread", "a: dead", "a: helper", "a: recursive",
    ]


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(BENCH.glob("**/*.py")) + [TESTS / "test_acceptance.py"]


def test_every_public_function_has_a_caller():
    assert uncalled(MODULES, READERS) == []


def test_every_kept_name_is_needed():
    """Each KEPT entry names a public function or class of the package that
    the scan flags once the entry is removed, so no entry outlives its name
    or its need."""
    stale = [
        name
        for name in KEPT
        if not any(
            label.endswith(f": {name}")
            for label in uncalled(MODULES, READERS, KEPT.keys() - {name})
        )
    ]
    assert stale == []



# Defaulted parameters kept on purpose although no module, benchmark script
# or acceptance criterion passes them; one reason each.
KEPT_PARAMS = {
    "group_closure.rng": "seeds the sampled GL closure, which only its tests run until "
    "exact GL_n-modules replace it",
}


def _calls(trees) -> dict:
    """For each called name, the (positional count, keywords) of each call;
    a ``*args`` call passes every position, a ``**kwargs`` call every
    keyword (None)."""
    calls: dict = {}
    for node in (n for t in trees for n in ast.walk(t) if isinstance(n, ast.Call)):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        calls.setdefault(name, []).append(
            (float("inf") if starred else len(node.args), None if None in keywords else keywords)
        )
    return calls


def unpassed(
    modules: list[Path], readers: list[Path], kept=KEPT, kept_params=KEPT_PARAMS
) -> list[str]:
    """'module: function.param' for each defaulted parameter of a public
    top-level function of ``modules`` that no call in the modules or in
    ``readers`` passes, by keyword or by position.  Calls are matched by the
    called name alone, as ``uncalled`` matches reads.  Functions in ``kept``
    and parameters in ``kept_params`` are never flagged.

    A parameter that reaches its function only through a dict is invisible:
    a measure's parameters travel in ``compute_measure``'s params dict, so
    the scan could not see that nothing set ``dim_partials``'s old
    ``include_order_zero`` flag."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in modules + readers}
    calls = _calls(trees.values())
    found = []
    for p in modules:
        for node in trees[p].body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            if node.name in kept:
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(i, x.arg) for i, x in enumerate(positional) if i >= first]
            defaulted += [
                (float("inf"), x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
            ]
            for i, param in defaulted:
                if f"{node.name}.{param}" in kept_params:
                    continue
                if not any(
                    kws is None or param in kws or npos > i
                    for npos, kws in calls.get(node.name, ())
                ):
                    found.append(f"{p.stem}: {node.name}.{param}")
    return sorted(found)


def test_scan_finds_an_unpassed_parameter(tmp_path):
    module, reader = tmp_path / "a.py", tmp_path / "b.py"
    module.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(x=0): pass\ndef h(x=0): pass\ndef kept(x=0): pass\ndef _own(x=0): pass\n"
    )
    reader.write_text("from a import f, g, h\nf(0, 1, e=5)\ng(*[1])\nh(**{})\n")
    assert unpassed([module], [reader], kept={"kept"}, kept_params={}) == ["a: f.c", "a: f.d"]
    assert unpassed([module], [reader], kept={"kept"}, kept_params={"f.c": ""}) == ["a: f.d"]


def test_every_defaulted_parameter_is_passed():
    assert unpassed(MODULES, READERS) == []


def test_every_kept_parameter_is_needed():
    """The scan flags every KEPT_PARAMS entry once the allow-list is empty."""
    flagged = unpassed(MODULES, READERS, kept_params={})
    assert sorted(label.partition(": ")[2] for label in flagged) == sorted(KEPT_PARAMS)


# Dataclass fields kept on purpose although nothing reads them by name: a
# class name keeps every field of a report that the CLI prints whole through
# asdict; one reason each.
KEPT_FIELDS = {
    "GKReport": "gk-check prints it whole through asdict",
    "InvarianceReport": "invariance prints it whole through asdict",
    "SeparationReport": "separate prints it whole through asdict",
    "SymbolicMatrix.row_labels": "the derivative operator of each row, which the tests check",
    "SymbolicMatrix.col_labels": "the monomial of each column, which the tests check",
}


def unread_fields(modules: list[Path], readers: list[Path], kept=KEPT_FIELDS) -> list[str]:
    """'module: Class.field' for each field of a top-level @dataclass of
    ``modules`` that no attribute read in the modules or in ``readers`` names;
    a class in ``kept`` keeps all its fields, a 'Class.field' entry one.

    Reads are matched by the attribute name alone, as ``uncalled`` matches
    calls, so a field that shares its name with any attribute read anywhere
    is never flagged: the scan cannot see an unread field called ``n``, ``d``
    or ``field``, which many classes have."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in modules + readers]
    read = {
        n.attr for t in trees for n in ast.walk(t)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    found = []
    for p, tree in zip(modules, trees):
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name in kept or not any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                    if name not in read and f"{node.name}.{name}" not in kept:
                        found.append(f"{p.stem}: {node.name}.{name}")
    return sorted(found)


def test_scan_finds_an_unread_field(tmp_path):
    module, reader = tmp_path / "a.py", tmp_path / "b.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Report:\n    shown: int\n    echoed: int\n"
        "    def total(self): return self.shown\n"
        "@dataclass\nclass Pair:\n    left: int\n    right: int\n"
        "@dataclass\nclass Printed:\n    whole: int\n"
        "class Plain:\n    unread: int\n"
    )
    reader.write_text("from a import Pair\nPair(1, 2).left = 3\nprint(Pair(1, 2).right)\n")
    kept = {"Printed": ""}
    assert unread_fields([module], [reader], kept) == ["a: Pair.left", "a: Report.echoed"]
    assert unread_fields([module], [reader], kept | {"Pair.left": ""}) == ["a: Report.echoed"]


def test_every_dataclass_field_is_read():
    assert unread_fields(MODULES, READERS) == []


def test_every_kept_field_is_needed():
    """Each KEPT_FIELDS entry, a class or one field, makes the scan flag a
    field of it once the entry is removed."""
    stale = []
    for entry in KEPT_FIELDS:
        flagged = unread_fields(MODULES, READERS, KEPT_FIELDS.keys() - {entry})
        names = [label.partition(": ")[2] for label in flagged]
        if not any(name == entry or name.startswith(entry + ".") for name in names):
            stale.append(entry)
    assert stale == []

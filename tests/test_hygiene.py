"""Source hygiene: every name a module imports is used in that module, every
module-level private function or class is used somewhere in the package, and
every public export, with each public method of an exported class, is read
by the package, the demos or the benchmark; a read from the tests alone does
not count."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hgsparse"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "graph.py", "sparsify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nfrom typing import Iterable, Optional\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["line 1: math", "line 2: Iterable"]


def names_used(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level `_private` functions and classes that no code in
    `sources` (module name -> text) uses outside their own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}: {node.name}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, DEFS) and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == names_used(node)[node.name]
    )


def test_every_private_definition_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_detects_an_unused_private_definition():
    sources = {
        "a.py": "def _dead():\n    pass\n\n\ndef _loop(n):\n    return _loop(n - 1)\n\n\n"
                "class _Kept:\n    pass\n\n\ndef _helper():\n    return 1\n",
        "b.py": "from .a import _Kept\nimport a\nx = _Kept()\ny = a._helper()\n",
    }
    assert unreferenced_privates(sources) == ["a.py: _dead", "a.py: _loop"]


def names_loaded(node) -> set[str]:
    """Names the code reads, bare or as an attribute; an import or a comment
    alone reads nothing."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def running_sources(root: Path) -> list[str]:
    """The code an export has to serve: the package modules but
    `__init__.py`, `demos/` and `perfbench/`.  A read from `tests/` alone
    does not keep an export."""
    paths = sorted((root / "src" / "hgsparse").glob("*.py"))
    paths += [p for d in ("demos", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    return [p.read_text() for p in paths if p.name != "__init__.py"]


def unloaded_exports(exported: list[str], sources: list[str]) -> list[str]:
    """Exports, and public methods (`Class.method`) of exported classes
    defined in `sources`, that no source reads.  A read inside the
    definition of an unread export does not count, so dead code cannot keep
    other dead code alive."""
    trees = [ast.parse(text) for text in sources]
    methods = {f"{node.name}.{item.name}": item.name
               for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in exported
               for item in node.body
               if isinstance(item, DEFS) and not item.name.startswith("_")}
    dead: set[str] = set()
    while True:
        loaded = set().union(*(names_loaded(node) for tree in trees for node in tree.body
                               if getattr(node, "name", None) not in dead))
        unread = {name for name in exported if name not in loaded}
        unread |= {label for label, name in methods.items() if name not in loaded}
        if unread == dead:
            return sorted(dead)
        dead = unread


def test_every_export_is_loaded():
    import hgsparse

    assert unloaded_exports(hgsparse.__all__, running_sources(ROOT)) == []


def write_tree(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_detects_an_unloaded_export(tmp_path):
    write_tree(tmp_path, {
        "src/hgsparse/mod.py": "class a:\n    pass\n\n\ndef f():\n    return e\n",
        "demos/demo.py": "from pkg import a, b, c\n# c is only named here\nx = a()\n"
                         "b = pkg.b\nc = 1\n",
        "tests/test_mod.py": "from pkg import d\nd()\n",
    })
    # d is read by a test only; e only by f, which nothing reads
    assert unloaded_exports(list("abcdef"), running_sources(tmp_path)) == ["c", "d", "e", "f"]


def test_detects_a_method_only_a_test_reads(tmp_path):
    write_tree(tmp_path, {
        "src/hgsparse/mod.py": "class K:\n    def used(self):\n        return 1\n\n"
                               "    def tested(self):\n        return 2\n\n"
                               "    def _private(self):\n        return 3\n",
        "perfbench/bench.py": "from pkg import K\nK().used()\n",
        "tests/test_mod.py": "from pkg import K\nK().tested()\n",
    })
    assert unloaded_exports(["K"], running_sources(tmp_path)) == ["K.tested"]

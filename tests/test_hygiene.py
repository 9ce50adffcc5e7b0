"""Source hygiene: every name a module imports is used in that module, every
module-level private function or class is used somewhere in the package, and
every public export is read by some code."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hgsparse"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PRIVATE_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
        if isinstance(node, PRIVATE_DEFS) and node.name.startswith("_")
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


def names_loaded(source: str) -> set[str]:
    """Names the code reads, bare or as an attribute; an import or a comment
    alone reads nothing."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def unloaded_exports(exported: list[str], sources: list[str]) -> list[str]:
    loaded = set().union(*map(names_loaded, sources))
    return sorted(set(exported) - loaded)


def test_every_export_is_loaded():
    import hgsparse

    users = [p for d in ("tests", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    sources = [p.read_text() for p in MODULES + users]
    assert unloaded_exports(hgsparse.__all__, sources) == []


def test_detects_an_unloaded_export():
    sources = ["from pkg import a, b, c\n# c is only named here\nx = a()\nb = pkg.b\nc = 1\n"]
    assert unloaded_exports(["a", "b", "c"], sources) == ["c"]

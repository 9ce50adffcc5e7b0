"""Source hygiene: every name a module imports is used in that module, no
module imports another module's private name, every
module-level private function or class and every private method is used
somewhere in the package, and every public export, every public module-level
function or class, with each public method of those classes, and every name
a module assigns at module level is read by the package, the demos or the
benchmark; a read from the tests alone does not count."""

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


def private_imports(source: str) -> list[str]:
    """`line N: name` for each private name imported from another module;
    dunders such as `__future__` are not private."""
    return sorted(f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text()) == []


def test_detects_a_private_import():
    source = ("from __future__ import annotations\n"
              "from .graph import StrengthTree, _first_fail\nfrom . import _impl as impl\n")
    assert private_imports(source) == ["line 2: _first_fail", "line 3: _impl"]


def names_used(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def private_definitions(tree: ast.Module):
    """(label, node) for each module-level `_private` function or class and
    each `_private` method of a module-level class; dunders are not private."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        members = node.body if isinstance(node, ast.ClassDef) else []
        for label, item in [(node.name, node)] + [
                (f"{node.name}.{m.name}", m) for m in members if isinstance(m, DEFS)]:
            if item.name.startswith("_") and not item.name.startswith("__"):
                yield label, item


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private definitions, as `private_definitions` lists them, that no
    code in `sources` (module name -> text) uses outside their own body.  A
    method counts as used wherever an attribute of its name is read."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}: {label}"
        for module, tree in trees.items() for label, node in private_definitions(tree)
        if used[node.name] == names_used(node)[node.name]
    )


def test_every_private_definition_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_detects_an_unused_private_definition():
    sources = {
        "a.py": "def _dead():\n    pass\n\n\ndef _loop(n):\n    return _loop(n - 1)\n\n\n"
                "class _Kept:\n    def __init__(self):\n        self._walk()\n\n"
                "    def _walk(self):\n        return 1\n\n"
                "    def _spin(self, n):\n        return self._spin(n - 1)\n\n"
                "    def _called(self):\n        return 2\n\n\n"
                "class Open:\n    def _idle(self):\n        pass\n\n\n"
                "def _helper():\n    return 1\n",
        "b.py": "from .a import _Kept\nimport a\nx = _Kept()\ny = a._helper()\nz = x._called()\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py: Open._idle", "a.py: _Kept._spin", "a.py: _dead", "a.py: _loop"]


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


def public_definitions(root: Path) -> list[str]:
    """The public module-level functions and classes of the package modules
    but `__init__.py`, exported or not."""
    paths = sorted((root / "src" / "hgsparse").glob("*.py"))
    return [node.name for path in paths if path.name != "__init__.py"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, DEFS) and not node.name.startswith("_")]


def test_every_public_definition_is_loaded():
    # an export dropped from __all__ must not leave its code behind
    assert unloaded_exports(public_definitions(ROOT), running_sources(ROOT)) == []


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


def unread_assignments(root: Path) -> list[str]:
    """`module: name` for each name that a module-level assignment in a
    package module but `__init__.py` binds and no running source reads.
    Dunders are read by Python itself and are not counted."""
    loaded = set().union(*(names_loaded(ast.parse(text)) for text in running_sources(root)))
    paths = sorted(p for p in (root / "src" / "hgsparse").glob("*.py") if p.name != "__init__.py")
    return sorted(
        f"{path.name}: {target.id}"
        for path in paths for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in ast.walk(node)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
        and not target.id.startswith("__") and target.id not in loaded
    )


def test_every_module_assignment_is_read():
    assert unread_assignments(ROOT) == []


def test_detects_an_unread_assignment(tmp_path):
    write_tree(tmp_path, {
        "src/hgsparse/__init__.py": "VERSION = '1'\n",
        "src/hgsparse/mod.py": "LIMIT = 3\nDEAD = Alias = int\n_cache: dict = {}\n"
                               "first, rest = 1, 2\nTESTED = 4\n__all__ = []\n\n\n"
                               "def f():\n    return LIMIT, _cache\n",
        "demos/demo.py": "import mod\nprint(mod.rest)\n",
        "tests/test_mod.py": "from mod import TESTED\nassert TESTED\n",
    })
    assert unread_assignments(tmp_path) == [
        "mod.py: Alias", "mod.py: DEAD", "mod.py: TESTED", "mod.py: first"]


def test_detects_an_unloaded_public_definition(tmp_path):
    write_tree(tmp_path, {
        "src/hgsparse/__init__.py": "from .mod import run\n__all__ = ['run']\n",
        "src/hgsparse/mod.py": "def run():\n    return helper()\n\n\n"
                               "def helper():\n    return 1\n\n\n"
                               "def dropped():\n    return Gone()\n\n\n"
                               "class Gone:\n    pass\n\n\n"
                               "def _private():\n    return 2\n",
        "demos/demo.py": "from pkg import run\nrun()\n",
        "tests/test_mod.py": "from pkg.mod import dropped\ndropped()\n",
    })
    # dropped is read by a test only, and Gone only by dropped
    assert public_definitions(tmp_path) == ["run", "helper", "dropped", "Gone"]
    assert unloaded_exports(public_definitions(tmp_path), running_sources(tmp_path)) == [
        "Gone", "dropped"]

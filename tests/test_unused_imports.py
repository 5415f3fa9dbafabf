"""Every top-level import of a ``src/reqlattice`` module is used by it, and
every module-level private name, function and class of the package is read
somewhere in it.

No linter is a test dependency, so ``ast`` scans stand in for one: a name
that a module-level ``import`` binds must be read somewhere in the module.
``__init__.py`` imports to re-export, and ``from __future__`` binds nothing.
A module-level private function, class or constant (``_name``) must be read
by some module of the package, and so must a public function or class,
unless the benchmark's tracer pins it by name; reads from the tests do not
count.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reqlattice"
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound: list[str] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [alias.asname or alias.name for alias in stmt.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport re as regex\nfrom a import b, c\nc(regex)\n"
    assert unused_imports(source) == ["os", "b"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private function, class or
    constant of ``sources`` (module name to source) that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_package_reads_its_private_names():
    assert unread_private_names({p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_seen, _gone = 1, 2\ndef _used():\n    return _LIMIT\nclass _Dead:\n    pass\n"
             "__all__ = []\ndef public():\n    pass\n",
        "b": "from a import _used\n_used(_seen)\nx.attr._Dead\n",
    }
    assert unread_private_names(sources) == ["a._gone", "a._Dead"]


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level public function or class of
    ``sources`` (module name to source) that no module reads: by a bare name
    it defines or imports (``from pkg.module import name``), or as an
    attribute of an imported module (``module.name``)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[str] = set()
    for module, tree in trees.items():
        bound = {}  # local name -> "module.name", or the module's own name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                bound.update({alias.asname or alias.name: f"{source}.{alias.name}" if source in trees else alias.name
                              for alias in node.names})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(bound.get(node.id, f"{module}.{node.id}"))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add(f"{bound.get(node.value.id, node.value.id)}.{node.attr}")
    return [f"{module}.{stmt.name}" for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and f"{module}.{stmt.name}" not in read]


def traced_names() -> set[str]:
    """``module.name`` for each module-level function ``perfbench/tracing.py`` pins."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{module}.{name}" for module, names in tracing.TARGETS.items() for name in names if "." not in name}


def test_package_reads_its_public_functions_and_classes():
    unread = unread_public_names({p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))})
    assert [name for name in unread if name not in traced_names()] == []


def test_the_scan_finds_an_unread_public_function():
    # b reads module c, not its function c; x.Gone is no read of a.Gone
    sources = {
        "a": "def helper():\n    pass\ndef dead():\n    pass\nclass Used:\n    pass\nclass Gone:\n    pass\n"
             "def _private():\n    pass\ndef recursive():\n    return recursive\n",
        "b": "from pkg.a import helper as h\nfrom pkg import c\nh(c.called)\nx.Gone\na.Used\n",
        "c": "def called():\n    pass\ndef c():\n    pass\n",
    }
    assert unread_public_names(sources) == ["a.dead", "a.Gone", "c.c"]

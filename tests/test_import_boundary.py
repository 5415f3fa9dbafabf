"""No command loads numpy, only ``cli`` imports ``gc``, the package imports one way,
and only ``cli.run`` catches a package error.

numpy is only the tests' oracle for ``rank``, so every command, ``rank``
included, runs in an interpreter where importing numpy fails. The check runs
in a fresh interpreter, since this test session has imported numpy already.
``reqlattice.topsis`` itself stays imported with the CLI: the benchmark tracer
wraps its functions through ``sys.modules``.

The collector is process-wide state, so its policy stays at the command
boundary: an ``ast`` scan finds every import of ``gc``, top-level or not.
The same scan keeps the package's imports one-way: no module imports from the
package inside a function, where a back-edge to a module that builds on it
would hide, and the module-level import graph has no cycle. Each fault takes
one path, from where it is raised to the one handler in ``cli.run`` that maps
it to an exit code, so no other ``except`` clause names a class of ``errors``.
"""

import ast
import graphlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reqlattice"
CORPORA = ROOT / "corpora"
EXPECTED = Path(__file__).resolve().parent / "expected_text"

# run in the child with numpy blocked: report whether the CLI is loaded with
# topsis, and each command's exit code and text stdout
PROGRAM = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # `import numpy` now raises ImportError
from reqlattice import cli

corpus, changes, alts, out = sys.argv[1:]
facts = {"topsis": "reqlattice.topsis" in sys.modules, "commands": []}
argvs = [[command, *level] for command in ("validate", "partition", "scenario")
         for level in ([], *(["--level", flag] for flag in ("national", "state", "org")))]
argvs += [["optimize"], ["conflicts"], ["hierarchy"], ["change", "--changes", changes, "--out", out],
          ["rank", "--alts", alts]]
for argv in argvs:
    for fmt in ("text", "json"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.run([*argv, "--corpus", corpus, "--format", fmt])
        facts["commands"].append([argv, fmt, code, stdout.getvalue()])
facts["numpy"] = sys.modules["numpy"] is not None
print(json.dumps(facts))
"""


def test_no_command_imports_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(CORPORA / "worked-example.reqcorpus.json"),
         str(CORPORA / "worked-example.reqchange.json"), str(CORPORA / "worked-example.reqalts.json"),
         str(tmp_path / "after.reqcorpus.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "REQLATTICE_COLOR": "0"})
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)

    assert facts["topsis"] is True and facts["numpy"] is False
    assert len(facts["commands"]) == 2 * (3 * 4 + 5)
    for argv, fmt, code, _ in facts["commands"]:
        assert code == 0, (argv, fmt)
    assert (tmp_path / "after.reqcorpus.json").is_file()
    rank_text = [stdout for argv, fmt, _, stdout in facts["commands"] if (argv[0], fmt) == ("rank", "text")]
    assert rank_text == [(EXPECTED / "rank.txt").read_text(encoding="utf-8")]


def names(node: ast.AST, module: str) -> bool:
    """Whether ``node`` is an import of ``module`` or of a name from it."""
    if isinstance(node, ast.Import):
        return any(alias.name == module for alias in node.names)
    return isinstance(node, ast.ImportFrom) and module in (node.module, *(f"{node.module}.{a.name}" for a in node.names))


def imports(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or a name from it, at any depth."""
    return any(names(node, module) for node in ast.walk(ast.parse(source)))


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def with_function(source: str):
    """Each node of ``source`` with the innermost function around it, or None
    for a node that runs when the module loads."""
    stack: list[tuple[ast.AST, str | None]] = [(ast.parse(source), None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield node, function
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


def package_imports(source: str) -> set[tuple[str | None, str]]:
    """Each package module that ``source`` imports, with the innermost function
    around the import, or None for an import that runs when the module loads."""
    return {(function, module) for node, function in with_function(source)
            for module in MODULES if names(node, f"reqlattice.{module}")}


ERRORS = {node.name for node in ast.walk(ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")))
          if isinstance(node, ast.ClassDef)}


def error_handlers(source: str) -> set[tuple[str | None, int]]:
    """Each ``except`` clause of ``source`` that names a class of ``errors``, bare,
    in a tuple or as ``errors.X``, with the innermost function around it and its line."""
    found = set()
    for node, function in with_function(source):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(c, "id", None) in ERRORS or getattr(c, "attr", None) in ERRORS for c in caught):
                found.add((function, node.lineno))
    return found


def package_graph() -> dict[str, set[tuple[str | None, str]]]:
    return {module: package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) for module in MODULES}


def test_only_cli_imports_gc():
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if imports(p.read_text(encoding="utf-8"), "gc")] == ["cli.py"]


def test_no_module_imports_from_the_package_in_a_function():
    nested = {(module, function, target) for module, found in package_graph().items()
              for function, target in found if function is not None}
    # corpus_io builds on model, so model may name it only at call time; the fingerprint
    # stays in model while perfbench/tracing.py traces it there by name
    assert nested == {("model", "corpus_fingerprint", "corpus_io")}
    for nested_import in ("from reqlattice.hierarchy import effective_requirements", "from reqlattice import hierarchy"):
        assert package_imports(f"def f():\n    {nested_import}\n") == {("f", "hierarchy")}


def test_the_module_import_graph_has_no_cycle():
    graph = {module: {target for function, target in found if function is None}
             for module, found in package_graph().items()}
    assert graph["cli"] >= {"corpus_io", "hierarchy", "model", "partition", "relations"}  # the scan sees edges
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    graph["model"].add("relations")  # the back-edge the refinement order once took
    with pytest.raises(graphlib.CycleError):
        list(graphlib.TopologicalSorter(graph).static_order())


def test_only_cli_run_catches_a_package_error():
    handlers = {(module, function, line) for module in MODULES
                for function, line in error_handlers((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))}
    assert sorted(f"{module}.py:{line}" for module, function, line in handlers if (module, function) != ("cli", "run")) == []
    assert handlers  # the scan sees the handlers in cli.run that map faults to exit codes
    snippet = ("def f():\n    try:\n        pass\n    except ValidationError:\n        pass\n"
               "    except (KeyError, errors.IOFailure):\n        pass\n    except OSError:\n        pass\n"
               "try:\n    pass\nexcept (ParseError):\n    pass\n")
    assert error_handlers(snippet) == {("f", 4), ("f", 6), (None, 12)}

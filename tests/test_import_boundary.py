"""No command loads numpy, only a command that hashes loads hashlib, only ``cli``
imports ``gc``, the package imports one way, and only ``cli.run`` catches a
package error.

numpy is only the tests' oracle for ``rank``, so every command, ``rank``
included, runs in an interpreter where importing numpy fails. The check runs
in a fresh interpreter, since this test session has imported numpy already.
hashlib, and OpenSSL with it, loads only on the first hash (``model.sha256``):
every analysis command, at every ``--level`` and in both formats, leaves it
unloaded, while ``change``, with or without ``--out``, and the load of a
record without ``contentHash`` load it and keep their digests.
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
import hashlib
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
# topsis, and each command's exit code, text stdout and whether hashlib is loaded after it
PROGRAM = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # `import numpy` now raises ImportError
from reqlattice import cli

facts = {"topsis": "reqlattice.topsis" in sys.modules, "commands": []}
for argv in json.loads(sys.argv[1]):
    for fmt in ("text", "json"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.run([*argv, "--format", fmt])
        hashing = [name for name in ("hashlib", "_hashlib") if name in sys.modules]
        facts["commands"].append([argv, fmt, code, stdout.getvalue(), hashing])
facts["numpy"] = sys.modules["numpy"] is not None
print(json.dumps(facts))
"""

CORPUS = CORPORA / "worked-example.reqcorpus.json"
# every command that hashes nothing, at no --level and at every --level
ANALYSES = [[command, *level, "--corpus", str(CORPUS)] for command in ("validate", "partition", "scenario")
            for level in ([], *(["--level", flag] for flag in ("national", "state", "org")))]
ANALYSES += [[command, "--corpus", str(CORPUS)] for command in ("optimize", "conflicts", "hierarchy")]
ANALYSES += [["rank", "--corpus", str(CORPUS), "--alts", str(CORPORA / "worked-example.reqalts.json")]]
CHANGE = ["change", "--corpus", str(CORPUS), "--changes", str(CORPORA / "worked-example.reqchange.json")]


def run_fresh(argvs: list[list[str]]) -> dict:
    """PROGRAM's facts for ``argvs``, each run in both formats, in one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROGRAM, json.dumps(argvs)], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "REQLATTICE_COLOR": "0"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def after(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("change") / "after.reqcorpus.json"


@pytest.fixture(scope="module")
def facts(after) -> dict:
    """Every command, the analyses first and then change without and with --out, in one fresh interpreter."""
    return run_fresh([*ANALYSES, CHANGE, [*CHANGE, "--out", str(after)]])


def test_no_command_imports_numpy(facts, after):
    assert facts["topsis"] is True and facts["numpy"] is False
    assert len(facts["commands"]) == 2 * (3 * 4 + 6)
    for argv, fmt, code, _, _ in facts["commands"]:
        assert code == 0, (argv, fmt)
    assert after.is_file()
    rank_text = [stdout for argv, fmt, _, stdout, _ in facts["commands"] if (argv[0], fmt) == ("rank", "text")]
    assert rank_text == [(EXPECTED / "rank.txt").read_text(encoding="utf-8")]


def test_only_a_command_that_hashes_loads_hashlib(facts, after, tmp_path):
    runs = facts["commands"]
    analyses, changes = runs[:2 * len(ANALYSES)], runs[2 * len(ANALYSES):]
    assert [(argv, fmt, hashing) for argv, fmt, _, _, hashing in analyses] == [
        (argv, fmt, []) for argv in ANALYSES for fmt in ("text", "json")]
    assert [argv[-1] for argv, _, _, _, _ in changes] == [CHANGE[-1]] * 2 + [str(after)] * 2
    for _, _, code, _, hashing in changes:
        assert code == 0 and "hashlib" in hashing
    # the digests: the worked example is stored in canonical form, and --out holds the changed corpus
    bodies = [json.loads(stdout)["body"] for _, fmt, _, stdout, _ in changes if fmt == "json"]
    assert [(body["before"], body["after"]) for body in bodies] == [
        (hashlib.sha256(CORPUS.read_bytes()).hexdigest(), hashlib.sha256(after.read_bytes()).hexdigest())] * 2
    assert changes[0][3] == (EXPECTED / "change.txt").read_text(encoding="utf-8")

    # change --out alone, in a fresh interpreter, loads hashlib and prints what it printed after the analyses
    alone = run_fresh([[*CHANGE, "--out", str(tmp_path / "after.reqcorpus.json")]])["commands"]
    assert [(stdout, "hashlib" in hashing) for _, _, _, stdout, hashing in alone] == [
        (stdout, True) for _, _, _, stdout, _ in changes[2:]]
    assert (tmp_path / "after.reqcorpus.json").read_bytes() == after.read_bytes()

    # a record without contentHash is hashed at load: that loads hashlib, and the report is unchanged
    doc = json.loads(CORPUS.read_text(encoding="utf-8"))
    for record in (*doc["sources"], *doc["requirements"]):
        del record["contentHash"]
    unhashed = tmp_path / "unhashed.reqcorpus.json"
    unhashed.write_text(json.dumps(doc), encoding="utf-8")
    validated = run_fresh([["validate", "--corpus", str(unhashed)]])["commands"]
    assert [(code, stdout, "hashlib" in hashing) for _, _, code, stdout, hashing in validated] == [
        (0, stdout, True) for _, _, _, stdout, _ in analyses[:2]]


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

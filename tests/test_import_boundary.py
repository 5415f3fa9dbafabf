"""Only ``rank`` loads numpy, only ``cli`` imports ``gc``, and ``model`` never imports ``hierarchy``.

Every other command is set and graph work, so a run of it must not pay for
numpy's import. ``reqlattice.topsis`` itself stays imported with the CLI: the
benchmark tracer wraps its functions through ``sys.modules``. The check runs
in a fresh interpreter, since this test session has imported numpy already.

The collector is process-wide state, so its policy stays at the command
boundary: an ``ast`` scan finds every import of ``gc``, top-level or not.
The same scan keeps ``model`` from importing ``hierarchy``, which builds on it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reqlattice"
CORPORA = ROOT / "corpora"
EXPECTED = Path(__file__).resolve().parent / "expected_text"

# run in the child: report which modules are loaded after importing the CLI,
# after each command but rank, and after rank, with rank's stdout
PROGRAM = """
import contextlib, io, json, sys
from reqlattice import cli

corpus, changes, alts, out = sys.argv[1:]
loaded = lambda: {name: name in sys.modules for name in ("numpy", "reqlattice.topsis")}
facts = {"import": loaded(), "commands": []}
argvs = [[command, *level] for command in ("validate", "partition", "scenario")
         for level in ([], *(["--level", flag] for flag in ("national", "state", "org")))]
argvs += [["optimize"], ["conflicts"], ["hierarchy"], ["change", "--changes", changes, "--out", out]]
for argv in argvs:
    for fmt in ("text", "json"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run([*argv, "--corpus", corpus, "--format", fmt])
        facts["commands"].append([argv, fmt, code, loaded()["numpy"]])
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    facts["rank_code"] = cli.run(["rank", "--corpus", corpus, "--alts", alts])
facts["rank_stdout"], facts["rank"] = stdout.getvalue(), loaded()
print(json.dumps(facts))
"""


def test_only_rank_imports_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(CORPORA / "worked-example.reqcorpus.json"),
         str(CORPORA / "worked-example.reqchange.json"), str(CORPORA / "worked-example.reqalts.json"),
         str(tmp_path / "after.reqcorpus.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "REQLATTICE_COLOR": "0"})
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)

    assert facts["import"] == {"numpy": False, "reqlattice.topsis": True}
    assert len(facts["commands"]) == 2 * (3 * 4 + 4)
    for argv, fmt, code, numpy_loaded in facts["commands"]:
        assert (code, numpy_loaded) == (0, False), (argv, fmt)
    assert (tmp_path / "after.reqcorpus.json").is_file()

    assert facts["rank_code"] == 0
    assert facts["rank_stdout"] == (EXPECTED / "rank.txt").read_text(encoding="utf-8")
    assert facts["rank"] == {"numpy": True, "reqlattice.topsis": True}


def imports(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or a name from it, at any depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(alias.name == module for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and module in (node.module, *(f"{node.module}.{a.name}" for a in node.names)):
            return True
    return False


def test_only_cli_imports_gc():
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if imports(p.read_text(encoding="utf-8"), "gc")] == ["cli.py"]


def test_model_does_not_import_hierarchy():
    # hierarchy builds on model; the effective sets live on the corpus but are built in hierarchy
    source = (PACKAGE / "model.py").read_text(encoding="utf-8")
    assert not imports(source, "reqlattice.hierarchy")
    for nested in ("from reqlattice.hierarchy import effective_requirements", "from reqlattice import hierarchy"):
        assert imports(f"def f():\n    {nested}\n", "reqlattice.hierarchy")

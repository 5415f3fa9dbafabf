"""Every function the benchmark tracer wraps by name must still exist, and
a traced run must print what an untraced one prints.

``perfbench/tracing.py`` swaps each ``TARGETS`` entry for a wrapper through
``owner.__dict__``; a renamed or deleted function would break ``--trace 1``,
and so would a traced call whose arguments the tracer's counts cannot take.
The benchmark files are loaded by path and only read.
"""

import contextlib
import importlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

from reqlattice import cli, hierarchy  # cli imports every module the tracer swaps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets() -> list[tuple[str, str]]:
    tracing = _load(TRACING, "perfbench_tracing")
    return [(module, qualname) for module, names in tracing.TARGETS.items() for qualname in names]


@pytest.mark.parametrize(("module", "qualname"), _targets())
def test_target_resolves_to_callable(module, qualname):
    owner_name, _, attr = qualname.rpartition(".")
    owner = importlib.import_module(f"reqlattice.{module}")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(owner.__dict__.get(attr))


def _bindings() -> dict:
    """Every attribute of each package module and of each class the package defines."""
    modules = [m for name, m in sys.modules.items() if name.startswith("reqlattice.") and m]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("reqlattice.")}
    return {(owner.__name__, key): value for owner in (*modules, *classes.values()) for key, value in vars(owner).items()}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def test_traced_runs_print_what_untraced_runs_print(tmp_path, worked_example_path, change_set_path, alts_path):
    corpora = _load(PERFBENCH / "corpora.py", "perfbench_corpora")
    tree = tmp_path / "tree.reqcorpus.json"
    tree.write_text(corpora.dumps(corpora.tree_corpus(random.Random(0), nationals=2, states=2, orgs=2, common=4,
                                                      local=2, chains=2, depth=9, contradicts=2, stem=3)))
    out = tmp_path / "after.reqcorpus.json"
    example = ["--corpus", str(worked_example_path)]
    cases = [[command, *example, *extra, "--format", fmt]
             for command, extra in [("validate", []), ("partition", []), ("scenario", []), ("optimize", []),
                                    ("conflicts", []), ("hierarchy", []), ("rank", ["--alts", str(alts_path)]),
                                    ("change", ["--changes", str(change_set_path)]),
                                    ("change", ["--changes", str(change_set_path), "--out", str(out)])]
             for fmt in ("text", "json")]
    cases += [["hierarchy", "--corpus", str(tree), "--format", "json"]]
    cases += [["partition", "--corpus", str(tree), "--level", level, "--format", "json"]
              for level in ("org", "state", "national")]
    untraced = [(_run(argv), out.read_bytes() if "--out" in argv else None) for argv in cases]

    tracer = _load(TRACING, "perfbench_tracing").Tracer()
    before = _bindings()
    original = hierarchy.effective_requirements
    tracer.install()
    try:
        assert hierarchy.effective_requirements is not original
        traced = []
        for n, argv in enumerate(cases):
            tracer.begin_op(str(n))
            traced.append((_run(argv), out.read_bytes() if "--out" in argv else None))
            tracer.end_op(0.0)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert traced == untraced
    assert all(code == cli.EXIT_OK for (code, _), _ in traced)
    _, calls = tracer.take()
    hierarchy_runs = [str(n) for n, argv in enumerate(cases) if argv[0] == "hierarchy"]
    assert [calls[op].get("hierarchy.effective_requirements") for op in hierarchy_runs] == [1, 1, 1]

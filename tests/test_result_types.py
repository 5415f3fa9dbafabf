"""The result and input bags are named tuples; report bodies never hold one.

A named tuple is a ``tuple``, and ``corpus_io._render`` lays out any tuple as
a JSON array, so a record that leaked into a report body would print as an
array of its field values instead of failing. Each command's body is caught
on its way into ``reports.envelope_json`` and must hold no value, or key, of
a type that the package defines.

Each bag stays immutable, builds the same value from keywords as from
positions, and keeps its defaults.
"""

import inspect
import random

import pytest

from oracles import random_tree_corpus
from reqlattice import corpus_io, reports
from reqlattice.changes import ImpactReport, Migration, OpRecord, ReuseHint
from reqlattice.cli import EXIT_OK, EXIT_STRICT, run
from reqlattice.corpus_io import Alternative, AlternativesFile, ChangeOp, ChangePayload, ChangeSet
from reqlattice.optimize import GlobalView, OptimizedView
from reqlattice.partition import Finding
from reqlattice.relations import ConflictRecord
from reqlattice.topsis import Criterion, Ranking

LEVELS = ([], ["--level", "national"], ["--level", "state"], ["--level", "org"])
LEVEL_COMMANDS = ("validate", "partition", "scenario")


def _package_typed(value, path="body"):
    """Paths in ``value`` whose value or key has a type that the package defines."""
    found = [path] if type(value).__module__.split(".")[0] == "reqlattice" else []
    if isinstance(value, dict):
        for key, v in value.items():
            found += _package_typed(key, f"{path} key {key!r}") + _package_typed(v, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for n, v in enumerate(value):
            found += _package_typed(v, f"{path}[{n}]")
    return found


def _bodies(monkeypatch, argvs):
    """Each command's report type and body, as passed to ``envelope_json``."""
    bodies = []
    envelope_json = reports.envelope_json

    def spy(report_type, body):
        bodies.append((report_type, body))
        return envelope_json(report_type, body)

    monkeypatch.setattr(reports, "envelope_json", spy)
    for argv in argvs:
        before = len(bodies)
        assert run([*argv, "--format", "json"]) in (EXIT_OK, EXIT_STRICT), argv
        assert len(bodies) == before + 1, argv
    return bodies


def test_no_body_of_the_worked_example_holds_a_package_type(
        monkeypatch, capsys, worked_example_path, change_set_path, alts_path):
    corpus = ["--corpus", str(worked_example_path)]
    argvs = [[command, *corpus, *level] for command in LEVEL_COMMANDS for level in LEVELS]
    argvs += [["optimize", *corpus], ["conflicts", *corpus], ["hierarchy", *corpus],
              ["rank", *corpus, "--alts", str(alts_path)], ["change", *corpus, "--changes", str(change_set_path)]]
    bodies = _bodies(monkeypatch, argvs)
    assert {report_type for report_type, _ in bodies} == {
        "validate", "partition", "scenario", "optimize", "conflicts", "hierarchy", "ranking", "impact"}
    for report_type, body in bodies:
        assert _package_typed(body) == [], report_type


@pytest.mark.parametrize("seed", range(6))
def test_no_body_of_a_random_forest_holds_a_package_type(monkeypatch, capsys, tmp_path, seed):
    path = tmp_path / "tree.reqcorpus.json"
    corpus_io.save_corpus(random_tree_corpus(random.Random(seed)), path)
    corpus = ["--corpus", str(path)]
    argvs = [[command, *corpus, *level] for command in LEVEL_COMMANDS for level in LEVELS]
    argvs += [["optimize", *corpus], ["conflicts", *corpus], ["hierarchy", *corpus]]
    for report_type, body in _bodies(monkeypatch, argvs):
        assert _package_typed(body) == [], report_type


def test_the_scan_sees_a_leaked_record():
    record = ConflictRecord(("r1", "r2"), "explicit")
    assert _package_typed({"conflicts": [record]}) == ["body['conflicts'][0]"]
    assert corpus_io.canonical_json({"conflicts": [record]}) == corpus_io.canonical_json(
        {"conflicts": [[["r1", "r2"], "explicit"]]})


# one value per field, in field order; defaulted fields are left out
SAMPLES = {
    Finding: ("CODE", "warning", "r1", "a message"),
    ConflictRecord: (("r1", "r2"), "derived"),
    OptimizedView: ("all@global", frozenset({"r1"}), frozenset({"r2"}), {"r2": "r1"}),
    GlobalView: ({}, {}, OptimizedView("all@global", frozenset(), frozenset(), {}), []),
    Migration: ("r1", "general", "specific:j1"),
    ReuseHint: ("c1", "j1", "j2", "r1"),
    OpRecord: ("modify", "r1", "1a", (), frozenset({"j1"}), (("c1", "mustChange"),)),
    ImpactReport: ("label", ()),
    Criterion: ("r1", 0.5, "benefit"),
    Ranking: ((("a1", 1.0),), ()),
    ChangePayload: (),
    ChangeOp: ("remove", "r1"),
    ChangeSet: ("label", ()),
    Alternative: ("a1", {"r1": 1.0}),
    AlternativesFile: ((), {}),
}
DEFAULTS = {
    ChangePayload: {"text": None, "concept_key": None},
    ChangeOp: {"payload": None, "adopted_by": None},
    OpRecord: {"reuse": ()},
}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_each_bag_is_immutable_and_keeps_its_defaults(cls):
    params = inspect.signature(cls).parameters
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})
    values = SAMPLES[cls]
    required = [name for name in params if name not in defaults]
    assert len(values) == len(required)

    made = cls(*values)
    assert made == cls(**dict(zip(required, values)))
    assert made == cls(*values, *defaults.values())
    assert {name: getattr(made, name) for name in defaults} == defaults
    for name in params:
        with pytest.raises(AttributeError):
            setattr(made, name, getattr(made, name))
        with pytest.raises(AttributeError):
            delattr(made, name)
    with pytest.raises(AttributeError):
        made.unknown_field = 1

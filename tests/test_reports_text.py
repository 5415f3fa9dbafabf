"""Text reports on the worked example and on small edits of it.

Each case is pinned twice: its text stdout equals a checked-in expected file
(``tests/expected_text/<case>.txt``), and it equals the text renderer in
``reports`` applied to the body of the same command's ``--format json`` run,
so a text report shows what its JSON body holds and nothing else.
"""

import json
from pathlib import Path

import pytest

from reqlattice import reports
from reqlattice.cli import run
from reqlattice.partition import ScenarioOption

CORPORA = Path(__file__).resolve().parent.parent / "corpora"
EXPECTED = Path(__file__).resolve().parent / "expected_text"

# the text renderer of each command's report
RENDERER = {
    "validate": "validate_text",
    "partition": "partition_text",
    "scenario": "scenario_text",
    "optimize": "optimize_text",
    "conflicts": "conflicts_text",
    "change": "impact_text",
    "hierarchy": "hierarchy_text",
    "rank": "ranking_text",
}


def _item(items, item_id):
    return next(i for i in items if i["id"] == item_id)


def _component_scope(doc):
    """A general component with a specific requirement, and a specific
    component with general ones."""
    _item(doc["components"], "comp-de-retention").update(scope="general")
    del _item(doc["components"], "comp-de-retention")["jurisdiction"]
    _item(doc["components"], "comp-consent").update(scope="specific", jurisdiction="de")


def _elaboration(doc):
    """A general requirement with a specific source, and a specific one with
    only a general source."""
    _item(doc["requirements"], "req-de-consent")["derivedFrom"].append("src-de-retention")
    _item(doc["requirements"], "req-de-retention")["derivedFrom"] = ["src-de-consent"]


def _no_contradictions(doc):
    doc["relations"]["contradicts"] = []


def _orphan_state(doc):
    doc["jurisdictions"].append({"id": "de-by", "level": "state", "name": "Bavaria"})


def _constant_criterion(doc):
    for alt in doc["alternatives"]:
        alt["satisfies"]["req-de-retention"] = 0.5


# case id -> (command, extra arguments, corpus edit, alternatives edit)
CASES = {
    "validate": ("validate", [], None, None),
    "validate-component-scope": ("validate", [], _component_scope, None),
    "partition": ("partition", [], None, None),
    "partition-national": ("partition", ["--level", "national"], None, None),
    "partition-elaboration": ("partition", [], _elaboration, None),
    "scenario": ("scenario", [], None, None),
    "optimize": ("optimize", [], None, None),
    "optimize-min": ("optimize", ["--emit", "min"], None, None),
    "optimize-star": ("optimize", ["--emit", "star"], None, None),
    "optimize-no-conflicts": ("optimize", [], _no_contradictions, None),
    "conflicts": ("conflicts", [], None, None),
    "conflicts-none": ("conflicts", [], _no_contradictions, None),
    "change": ("change", [], None, None),
    "hierarchy": ("hierarchy", [], None, None),
    "hierarchy-orphan-state": ("hierarchy", [], _orphan_state, None),
    "rank": ("rank", [], None, None),
    "rank-dropped-criterion": ("rank", [], None, _constant_criterion),
}


def _input(tmp_path, suffix, edit) -> str:
    path = CORPORA / f"worked-example.{suffix}.json"
    if edit is None:
        return str(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    edited = tmp_path / path.name
    edited.write_text(json.dumps(doc), encoding="utf-8")
    return str(edited)


def _argv(case, tmp_path) -> list[str]:
    command, extra, corpus_edit, alts_edit = CASES[case]
    argv = [command, "--corpus", _input(tmp_path, "reqcorpus", corpus_edit), *extra]
    if command == "change":
        argv += ["--changes", str(CORPORA / "worked-example.reqchange.json")]
    if command == "rank":
        argv += ["--alts", _input(tmp_path, "reqalts", alts_edit)]
    return argv


def _stdout(capsys, argv) -> str:
    run(argv)
    return capsys.readouterr().out


@pytest.mark.parametrize("case", list(CASES))
def test_text_report_matches_expected(case, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REQLATTICE_COLOR", "0")
    out = _stdout(capsys, _argv(case, tmp_path))
    assert out == (EXPECTED / f"{case}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("color", [False, True], ids=["plain", "color"])
@pytest.mark.parametrize("case", list(CASES))
def test_text_report_is_rendered_from_the_json_body(case, color, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REQLATTICE_COLOR", "1" if color else "0")
    argv = _argv(case, tmp_path)
    body = json.loads(_stdout(capsys, [*argv, "--format", "json"]))["body"]
    render = getattr(reports, RENDERER[argv[0]])
    assert _stdout(capsys, argv) == render(body, color)


def test_every_scenario_option_has_a_note():
    # scenario_body looks each option's note up here; a missing one would end in a KeyError
    assert set(reports._SCENARIO_NOTES) == set(ScenarioOption)

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from oracles import random_tree_corpus
from reqlattice import corpus_io
from reqlattice.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_STRICT, run
from reqlattice.model import content_hash


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus_arg(worked_example_path):
    return ["--corpus", str(worked_example_path)]


def test_validate_ok(capsys, corpus_arg):
    code, out, _ = invoke(capsys, "validate", *corpus_arg)
    assert code == EXIT_OK
    assert "corpus valid" in out


def test_validate_json_envelope(capsys, corpus_arg):
    code, out, _ = invoke(capsys, "validate", *corpus_arg, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tool"] == "reqlattice"
    assert doc["formatVersion"] == 1
    assert doc["reportType"] == "validate"


def test_invalid_corpus_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"formatVersion": 1, "jurisdictions": [], "oops": 1}')
    code, _, err = invoke(capsys, "validate", "--corpus", str(bad))
    assert code == EXIT_INVALID
    assert "UNKNOWN_FIELD" in err


def test_duplicate_requirement_concept_exit_1(capsys, tmp_path, worked_example_path):
    doc = json.loads(worked_example_path.read_text())
    twin = dict(doc["requirements"][0], id="req-twin")
    doc["requirements"].append(twin)
    bad = tmp_path / "twin.reqcorpus.json"
    bad.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "validate", "--corpus", str(bad))
    assert code == EXIT_INVALID
    assert "DUPLICATE_CONCEPT" in err and "req-twin" in err
    assert out == ""


def test_missing_corpus_exit_3(capsys, tmp_path):
    code, _, err = invoke(capsys, "validate", "--corpus", str(tmp_path / "absent.json"))
    assert code == EXIT_IO


@pytest.mark.parametrize("argv,name", [
    pytest.param(["validate"], "report.txt", id="report-open-fails"),  # a raw OSError from _emit's open
    pytest.param(["change", "--changes", None], "after.json", id="corpus-save-fails"),  # IOFailure from save_corpus
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_out_into_a_missing_directory_exit_3(capsys, corpus_arg, change_set_path, tmp_path, argv, name, fmt):
    argv = [str(change_set_path) if a is None else a for a in argv]
    code, out, err = invoke(capsys, *argv, *corpus_arg, "--format", fmt, "--out", str(tmp_path / "absent" / name))
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith("reqlattice: i/o error: ") and err.count("\n") == 1


def test_unknown_subcommand_exit_1(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == EXIT_INVALID
    assert "usage" in err


def test_unknown_flag_exit_1(capsys, corpus_arg):
    code, _, err = invoke(capsys, "validate", *corpus_arg, "--wat")
    assert code == EXIT_INVALID


def test_conflicts_strict_exit_2(capsys, corpus_arg):
    code, out, _ = invoke(capsys, "conflicts", *corpus_arg, "--strict")
    assert code == EXIT_STRICT
    assert "req-de-retention" in out


def test_conflicts_lenient_exit_0(capsys, corpus_arg):
    code, _, _ = invoke(capsys, "conflicts", *corpus_arg)
    assert code == EXIT_OK


def test_partition_strict_escalates_condition_warnings(capsys, corpus_arg):
    code, _, _ = invoke(capsys, "partition", *corpus_arg, "--strict")
    assert code == EXIT_STRICT


@pytest.mark.parametrize("command,extra", [
    ("validate", []),
    ("partition", []),
    ("scenario", []),
    ("optimize", []),
    ("conflicts", []),
    ("hierarchy", []),
])
def test_json_reports_deterministic(capsys, corpus_arg, command, extra):
    _, out1, _ = invoke(capsys, command, *corpus_arg, "--format", "json", *extra)
    _, out2, _ = invoke(capsys, command, *corpus_arg, "--format", "json", *extra)
    assert out1 == out2
    json.loads(out1)


def test_rank_deterministic(capsys, corpus_arg, alts_path):
    args = ["rank", *corpus_arg, "--alts", str(alts_path), "--format", "json"]
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2
    body = json.loads(out1)["body"]
    assert body["ranking"][0]["alternative"] == "alt-per-jurisdiction-policy"


def test_change_deterministic_and_writes_corpus(capsys, corpus_arg, change_set_path, tmp_path, worked_example_path):
    out_path = tmp_path / "after.reqcorpus.json"
    args = ["change", *corpus_arg, "--changes", str(change_set_path),
            "--out", str(out_path), "--format", "json"]
    before = worked_example_path.read_bytes()
    code, out1, _ = invoke(capsys, *args)
    assert code == EXIT_OK
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2
    # input corpus file untouched, output corpus loadable
    assert worked_example_path.read_bytes() == before
    corpus_io.load_corpus(out_path)
    body = json.loads(out1)["body"]
    assert [op["case"] for op in body["ops"]] == ["1b", "2b"]



def test_change_out_serialises_the_new_corpus_once(capsys, corpus_arg, change_set_path, tmp_path, monkeypatch):
    import hashlib

    calls = []  # (corpus, layouts) per serialisation
    serialise = corpus_io.corpus_chunks
    monkeypatch.setattr(corpus_io, "corpus_chunks",
                        lambda corpus, layouts=None: calls.append((corpus, layouts)) or serialise(corpus, layouts))
    out_path = tmp_path / "after.reqcorpus.json"
    code, out, _ = invoke(capsys, "change", *corpus_arg, "--changes", str(change_set_path),
                          "--out", str(out_path), "--format", "json")
    assert code == EXIT_OK
    assert len(calls) == 2  # the bytes written to --out, then the input's fingerprint
    body = json.loads(out)["body"]
    assert body["after"] == hashlib.sha256(out_path.read_bytes()).hexdigest()
    # both share one memo, which ends holding one layout per record object of the two corpora
    (new, memo), (old, shared) = calls
    assert memo is shared and memo is not None
    records = [*new.sources, *new.requirements, *old.sources, *old.requirements]
    assert memo.keys() == {id(record) for record in records} and len(memo) < len(records)
    # without --out, the new corpus is serialised once, only to hash it
    calls.clear()
    code, out, _ = invoke(capsys, "change", *corpus_arg, "--changes", str(change_set_path), "--format", "json")
    assert code == EXIT_OK and len(calls) == 2
    assert json.loads(out)["body"] == body


def test_change_reports_the_digest_of_the_input_file(capsys, corpus_arg, change_set_path, tmp_path, worked_example_path):
    import hashlib

    # the worked example is stored in canonical form, so its fingerprint is the digest of the file
    code, out, _ = invoke(capsys, "change", *corpus_arg, "--changes", str(change_set_path),
                          "--out", str(tmp_path / "after.reqcorpus.json"), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["body"]["before"] == hashlib.sha256(worked_example_path.read_bytes()).hexdigest()


def test_change_out_onto_its_own_corpus_writes_what_a_fresh_path_gets(capsys, change_set_path, tmp_path,
                                                                      worked_example_path):
    import hashlib

    # the whole input is read before the output is opened, so --out may name the --corpus file itself
    data = worked_example_path.read_bytes()
    fresh, same = tmp_path / "fresh.reqcorpus.json", tmp_path / "same.reqcorpus.json"
    same.write_bytes(data)
    outputs = [invoke(capsys, "change", "--corpus", str(same), "--changes", str(change_set_path),
                      "--out", str(out), "--format", "json") for out in (fresh, same)]
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK
    assert same.read_bytes() == fresh.read_bytes() != data
    # the worked example is canonical, so before is the digest of the file the command overwrote
    assert json.loads(outputs[1][1])["body"]["before"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command,flag", [
    *[pytest.param(c, ["--level", "state"], id=c) for c in ("optimize", "conflicts", "change", "hierarchy", "rank")],
    *[pytest.param(c, ["--strict"], id=f"{c}-strict") for c in ("scenario", "change", "rank")],
])
def test_level_rejected_where_it_would_be_ignored(capsys, corpus_arg, change_set_path, alts_path, command, flag):
    extra = {"change": ["--changes", str(change_set_path)], "rank": ["--alts", str(alts_path)]}.get(command, [])
    code, out, err = invoke(capsys, command, *corpus_arg, *extra, *flag)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("usage: ") and f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("command", ["validate", "partition", "scenario"])
def test_level_kept_where_it_is_used(capsys, corpus_arg, command):
    code, _, err = invoke(capsys, command, *corpus_arg, "--level", "org")
    assert code == EXIT_OK and err == ""


@pytest.mark.parametrize("command,level,findings", [
    ("partition", "org", "elaborationFindings"),
    ("validate", "state", "warnings"),
])
def test_level_checks_judge_only_what_the_level_view_holds(capsys, corpus_arg, command, level, findings):
    # the worked example has only national nodes: no level view below holds
    # a requirement, so no requirement or component is judged there
    code, out, err = invoke(capsys, command, *corpus_arg, "--level", level, "--strict", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["body"][findings] == []


@pytest.mark.parametrize("level,warned", [(None, False), ("state", False), ("national", True)])
def test_component_scope_judged_only_for_a_frontier_jurisdiction(capsys, tmp_path, level, warned):
    # both states inherit the national requirement, so at --level state it is
    # general there and the national component has no bucket to be judged
    # against; at --level national 'de' is the one frontier node, the
    # requirement is general and the specific component is flagged by the
    # same rule as in a flat run
    doc = {
        "formatVersion": 1,
        "jurisdictions": [
            {"id": "de", "name": "Germany", "level": "national"},
            {"id": "de-be", "name": "Berlin", "level": "state", "parent": "de"},
            {"id": "de-by", "name": "Bavaria", "level": "state", "parent": "de"},
        ],
        "requirements": [{"id": "req-de-x", "kind": "functional", "jurisdiction": "de",
                          "conceptKey": "x", "text": "log every access"}],
        "components": [{"id": "comp-de", "implements": ["req-de-x"], "scope": "specific",
                        "jurisdiction": "de"}],
    }
    path = tmp_path / "de.reqcorpus.json"
    path.write_text(json.dumps(doc))
    level_flag = [] if level is None else ["--level", level]
    code, out, err = invoke(capsys, "validate", "--corpus", str(path), *level_flag, "--strict", "--format", "json")
    assert err == ""
    warnings = json.loads(out)["body"]["warnings"]
    assert (code, [w["id"] for w in warnings]) == ((EXIT_STRICT, ["comp-de"]) if warned else (EXIT_OK, []))


def test_change_unknown_adopting_jurisdiction_exit_1(capsys, corpus_arg, tmp_path):
    path = tmp_path / "cs.reqchange.json"
    path.write_text(json.dumps({"formatVersion": 1, "label": "l", "ops": [
        {"op": "modify", "target": "req-de-consent",
         "payload": {"text": "x"}, "adoptedBy": ["atlantis"]},
    ]}), encoding="utf-8")
    code, out, err = invoke(capsys, "change", *corpus_arg, "--changes", str(path))
    assert code == EXIT_INVALID and out == ""
    assert err == "reqlattice: UNKNOWN_JURISDICTION: adoptedBy names unknown jurisdiction 'atlantis'\n"

def test_report_out_file(capsys, corpus_arg, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "scenario", *corpus_arg, "--format", "json", "--out", str(dest))
    assert code == EXIT_OK and out == ""
    doc = json.loads(dest.read_text())
    assert doc["body"]["legal"]["option"] == "PartialOverlap"
    assert doc["body"]["cultural"]["option"] == "Disjoint"


def test_scenario_of_an_aspect_without_items(capsys, tmp_path, worked_example_path):
    # an aspect with no items is classified as none: null in JSON, "no items" in text
    doc = json.loads(worked_example_path.read_text())
    doc["sources"] = [s for s in doc["sources"] if s["kind"] == "legal"]
    kept = {s["id"] for s in doc["sources"]}
    doc["requirements"] = [dict(r, derivedFrom=[i for i in r.get("derivedFrom", []) if i in kept])
                           for r in doc["requirements"]]
    path = tmp_path / "legal-only.reqcorpus.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(capsys, "scenario", "--corpus", str(path), "--format", "json")
    body = json.loads(out)["body"]
    assert (code, err, body["cultural"], body["legal"]["option"]) == (EXIT_OK, "", None, "PartialOverlap")
    code, out, _ = invoke(capsys, "scenario", "--corpus", str(path))
    assert code == EXIT_OK and out.splitlines()[0] == "cultural: no items"


def test_emit_flag_filters_optimize_report(capsys, corpus_arg):
    _, out_min, _ = invoke(capsys, "optimize", *corpus_arg, "--format", "json", "--emit", "min")
    body = json.loads(out_min)["body"]
    assert "baseline" in body["global"] and "strongest" not in body["global"]
    _, out_star, _ = invoke(capsys, "optimize", *corpus_arg, "--format", "json", "--emit", "star")
    body = json.loads(out_star)["body"]
    assert "strongest" in body["global"] and "baseline" not in body["global"]


def test_shared_parser_leaks_nothing_between_runs(capsys, corpus_arg):
    _, out_min, _ = invoke(capsys, "optimize", *corpus_arg, "--format", "json", "--emit", "min")
    assert "strongest" not in json.loads(out_min)["body"]["global"]
    _, out, _ = invoke(capsys, "optimize", *corpus_arg, "--format", "json")
    assert "strongest" in json.loads(out)["body"]["global"]
    code, _, err = invoke(capsys, "optimize", *corpus_arg, "--emit", "max")
    assert code == EXIT_INVALID and "usage" in err
    code, _, err = invoke(capsys, "optimize", *corpus_arg, "--format", "json", "--emit", "min")
    assert (code, err) == (EXIT_OK, "")


def test_level_flag(capsys, tmp_path):
    doc = {
        "formatVersion": 1,
        "jurisdictions": [
            {"id": "nat", "name": "N", "level": "national"},
            {"id": "st1", "name": "S1", "level": "state", "parent": "nat"},
            {"id": "st2", "name": "S2", "level": "state", "parent": "nat"},
        ],
        "requirements": [
            {"id": "r-nat", "kind": "functional", "jurisdiction": "nat",
             "conceptKey": "shared", "text": "same everywhere"},
            {"id": "r-st1", "kind": "functional", "jurisdiction": "st1",
             "conceptKey": "local", "text": "one"},
        ],
    }
    path = tmp_path / "tree.reqcorpus.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "partition", "--corpus", str(path),
                          "--level", "state", "--format", "json")
    assert code == EXIT_OK
    body = json.loads(out)["body"]
    functional = body["perKind"]["functional"]
    # the national requirement is inherited by both states, hence general
    assert functional["general"] == {"shared": ["r-nat"]}
    assert functional["specific"]["st1"] == ["r-st1"]


def test_color_env_toggle(capsys, corpus_arg, monkeypatch):
    monkeypatch.setenv("REQLATTICE_COLOR", "1")
    _, out_color, _ = invoke(capsys, "scenario", *corpus_arg)
    monkeypatch.setenv("REQLATTICE_COLOR", "0")
    _, out_plain, _ = invoke(capsys, "scenario", *corpus_arg)
    assert "\x1b[" not in out_plain


def chain_corpus(tmp_path, depth, closed=False):
    ids = [f"r{i:04d}" for i in range(depth)]
    refines = [[a, b] for a, b in zip(ids, ids[1:])]
    if closed:
        refines.append([ids[-1], ids[0]])
    doc = {
        "formatVersion": 1,
        "jurisdictions": [{"id": "nat", "name": "N", "level": "national"}],
        "requirements": [{"id": i, "kind": "functional", "jurisdiction": "nat",
                          "conceptKey": i, "text": i} for i in ids],
        "relations": {"refines": refines},
    }
    path = tmp_path / "chain.reqcorpus.json"
    path.write_text(json.dumps(doc))
    return path


def test_deep_refines_chain_validates(capsys, tmp_path):
    code, out, err = invoke(capsys, "validate", "--corpus", str(chain_corpus(tmp_path, 3000)))
    assert (code, out, err) == (EXIT_OK, "corpus valid\n", "")


def test_deep_refines_cycle_exit_1(capsys, tmp_path):
    code, _, err = invoke(capsys, "validate", "--corpus", str(chain_corpus(tmp_path, 3000, closed=True)))
    assert code == EXIT_INVALID
    assert err.startswith("reqlattice: refinement cycle: r0000 -> r0001 -> ")


def test_deeply_nested_json_exit_1(capsys, tmp_path):
    path = tmp_path / "deep.reqcorpus.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = invoke(capsys, "validate", "--corpus", str(path))
    assert code == EXIT_INVALID
    assert "nests too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e999", "int-1e400"])
def test_non_finite_alternatives_exit_1(capsys, corpus_arg, alts_path, tmp_path, token):
    doc = json.loads(alts_path.read_text())
    doc["weights"] = {"req-de-retention": "@"}
    path = tmp_path / "alts.json"
    path.write_text(json.dumps(doc).replace('"@"', token))
    code, out, err = invoke(capsys, "rank", *corpus_arg, "--alts", str(path))
    assert code == EXIT_INVALID
    assert out == "" and f"non-finite number {token}" in err


def test_text_report_out_file_has_no_color(capsys, corpus_arg, monkeypatch, tmp_path):
    import sys

    monkeypatch.delenv("REQLATTICE_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    _, to_terminal, _ = invoke(capsys, "partition", *corpus_arg)
    assert "\x1b[1m" in to_terminal
    dest = tmp_path / "report.txt"
    code, out, _ = invoke(capsys, "partition", *corpus_arg, "--out", str(dest))
    assert code == EXIT_OK and out == ""
    assert dest.read_text() == to_terminal.replace("\x1b[1m", "").replace("\x1b[0m", "")


NEW_REQUIREMENT = {"role": "requirement", "kind": "functional", "jurisdiction": "de",
                   "conceptKey": "audit-log", "text": "The system shall keep an audit log."}


def _modify_with(field, value):
    return {"op": "modify", "target": "req-de-consent", "adoptedBy": ["de"],
            "payload": {"text": "x", field: value}}


@pytest.mark.parametrize("op,code", [
    pytest.param({"op": "add", "target": "req-new", "payload": dict(NEW_REQUIREMENT, kind="bogus")},
                 "BAD_ENUM", id="add-bad-kind"),
    pytest.param({"op": "add", "target": "req-new", "payload": NEW_REQUIREMENT, "adoptedBy": ["de"]},
                 "UNKNOWN_FIELD", id="add-adoptedBy"),
    pytest.param({"op": "add", "target": "req-new", "payload": dict(NEW_REQUIREMENT, id="req-other")},
                 "UNKNOWN_FIELD", id="add-payload-id"),
    pytest.param({"op": "add", "target": "req-new", "payload": dict(NEW_REQUIREMENT, role=["source"])},
                 "BAD_ENUM", id="add-role-not-a-string"),
    pytest.param(_modify_with("role", "requirement"), "UNKNOWN_FIELD", id="modify-role"),
    pytest.param(_modify_with("kind", "functional"), "UNKNOWN_FIELD", id="modify-kind"),
    pytest.param(_modify_with("jurisdiction", "fr"), "UNKNOWN_FIELD", id="modify-jurisdiction"),
    pytest.param(_modify_with("derivedFrom", []), "UNKNOWN_FIELD", id="modify-derivedFrom"),
    pytest.param({"op": "remove", "target": "req-de-consent", "payload": {"text": "x"}},
                 "UNKNOWN_FIELD", id="remove-payload"),
    pytest.param({"op": "remove", "target": "req-de-consent", "adoptedBy": ["de"]},
                 "UNKNOWN_FIELD", id="remove-adoptedBy"),
    pytest.param({"op": "modify", "target": "src-de-consent", "payload": {"text": "x"}, "adoptedBy": ["fr"]},
                 "UNKNOWN_FIELD", id="source-modify-adoptedBy"),
    pytest.param({"op": "modify", "target": "req-de-retention", "payload": {"text": "x"}, "adoptedBy": ["de"]},
                 "UNKNOWN_FIELD", id="specific-modify-adoptedBy"),
    pytest.param({"op": "modify", "target": "req-de-consent", "payload": {}, "adoptedBy": ["de"]},
                 "MISSING_FIELD", id="modify-empty-payload"),
    # a partial adoption of the same concept key and normalized text would split nothing
    pytest.param({"op": "modify", "target": "req-de-consent", "adoptedBy": ["de"], "payload": {
        "text": " THE SYSTEM SHALL RECORD EXPLICIT CONSENT BEFORE STORING PERSONAL DATA."}},
                 "NO_CHANGE", id="split-modify-same-content"),
    pytest.param({"op": "modify", "target": "req-de-consent", "adoptedBy": ["de"], "payload": {
        "text": "The system shall record explicit consent before storing personal data.",
        "conceptKey": "consent-capture"}},
                 "NO_CHANGE", id="split-modify-same-text-and-concept"),
])
def test_change_op_outside_its_schema_exit_1(capsys, corpus_arg, tmp_path, op, code):
    path = tmp_path / "cs.reqchange.json"
    path.write_text(json.dumps({"formatVersion": 1, "label": "l", "ops": [op]}), encoding="utf-8")
    exit_code, out, err = invoke(capsys, "change", *corpus_arg, "--changes", str(path))
    assert exit_code == EXIT_INVALID and out == ""
    assert err.startswith(f"reqlattice: {code}: ") and err.count("\n") == 1


def _with(key, *values):
    return lambda doc: {**doc, key: list(values)}


@pytest.mark.parametrize("command,flags,edit,line", [
    pytest.param("validate", ["--corpus"], _with("components", {"id": "c", "implements": [], "scope": "specific"}),
                 "MISSING_FIELD: specific component 'c' needs a jurisdiction", id="specific-component-unplaced"),
    pytest.param("validate", ["--corpus"],
                 _with("components", {"id": "c", "implements": [], "scope": "general", "jurisdiction": "de"}),
                 "UNKNOWN_FIELD: general component 'c' must not name a jurisdiction", id="general-component-placed"),
    pytest.param("change", ["--corpus", "--changes"], _with("ops", {"op": "rename", "target": "req-de-consent"}),
                 "BAD_ENUM: op must be add/remove/modify, got 'rename'", id="unknown-op"),
    pytest.param("change", ["--corpus", "--changes"],
                 _with("ops", {"op": "modify", "target": "req-de-consent", "payload": {"text": "x"}, "adoptedBy": []}),
                 "BAD_TYPE: adoptedBy must be a non-empty array of jurisdiction ids", id="empty-adoptedBy"),
    pytest.param("rank", ["--corpus", "--alts"],
                 _with("alternatives", {"id": "a", "satisfies": {}}, {"id": "a", "satisfies": {}}),
                 "DUPLICATE_ID: alternative 'a' declared twice", id="duplicate-alternative"),
])
def test_input_error_is_one_stderr_line_exit_1(capsys, tmp_path, worked_example_path, change_set_path, alts_path,
                                               command, flags, edit, line):
    # the last flag's file gets the edit; the others are the worked example's
    paths = {"--corpus": worked_example_path, "--changes": change_set_path, "--alts": alts_path}
    bad = tmp_path / paths[flags[-1]].name
    bad.write_text(json.dumps(edit(json.loads(paths[flags[-1]].read_text()))), encoding="utf-8")
    paths[flags[-1]] = bad
    code, out, err = invoke(capsys, command, *(arg for flag in flags for arg in (flag, str(paths[flag]))))
    assert (code, out, err) == (EXIT_INVALID, "", f"reqlattice: {line}\n")


def _write_change_set(tmp_path, *ops):
    path = tmp_path / "cs.reqchange.json"
    path.write_text(json.dumps({"formatVersion": 1, "label": "l", "ops": list(ops)}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("op", [
    pytest.param({"target": "req-de-retention", "payload": {
        "text": "The system shall keep financial records for ten years."}}, id="1a-same-text"),
    pytest.param({"target": "req-de-consent", "adoptedBy": ["de", "fr"], "payload": {
        "conceptKey": "consent-capture"}}, id="2a-same-concept"),
    pytest.param({"target": "req-de-consent", "adoptedBy": ["de"], "payload": {
        "text": "the system shall record explicit consent before storing  personal data."}}, id="2b-same-content"),
    pytest.param({"target": "src-de-retention", "payload": {
        "text": "FINANCIAL RECORDS MUST BE RETAINED FOR TEN YEARS."}}, id="source-same-content"),
])
def test_modify_that_keeps_concept_and_content_exit_1(capsys, corpus_arg, tmp_path, op):
    # one rule for every modify: a new version equal to the old one in
    # concept key and content hash changes nothing, whatever its case
    out_path = tmp_path / "after.reqcorpus.json"
    exit_code, out, err = invoke(capsys, "change", *corpus_arg, "--changes",
                                 _write_change_set(tmp_path, {"op": "modify", **op}), "--out", str(out_path))
    assert exit_code == EXIT_INVALID and out == "" and not out_path.exists()
    assert err.startswith("reqlattice: NO_CHANGE: ") and err.count("\n") == 1


@pytest.mark.parametrize("adopted_by,status,case", [
    pytest.param(["de", "fr"], "mustChange", "2a", id="2a"),
    pytest.param(["fr"], "mustChange", "2b", id="2b-one-adopter-one-keeper"),
])
def test_impact_lists_each_component_once(capsys, corpus_arg, tmp_path, adopted_by, status, case):
    # comp-consent implements both consent requirements
    op = {"op": "modify", "target": "req-de-consent", "adoptedBy": adopted_by,
          "payload": {"text": "The system shall record dated explicit consent before storing personal data."}}
    exit_code, out, _ = invoke(capsys, "change", *corpus_arg, "--changes", _write_change_set(tmp_path, op),
                               "--format", "json")
    assert exit_code == EXIT_OK
    [record] = json.loads(out)["body"]["ops"]
    assert record["case"] == case
    assert record["components"] == [{"id": "comp-consent", "status": status}]


def test_change_add_bad_kind_exit_1_from_the_entry_point(tmp_path, worked_example_path):
    path = tmp_path / "cs.reqchange.json"
    path.write_text(json.dumps({"formatVersion": 1, "label": "l", "ops": [
        {"op": "add", "target": "req-new", "payload": dict(NEW_REQUIREMENT, kind="bogus")}]}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "reqlattice.cli", "change", "--corpus", str(worked_example_path),
         "--changes", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == EXIT_INVALID and proc.stdout == ""
    assert proc.stderr == ("reqlattice: BAD_ENUM: requirement 'req-new' kind: 'bogus' is not one of "
                           "legalBased, culturalBased, functional\n")


@pytest.mark.parametrize("scores,weights", [
    pytest.param(None, {"req-de-retention": 0, "req-fr-retention": 0}, id="all-weights-zero"),
    pytest.param({"a": {"req-de-retention": 0.5, "req-fr-retention": 0.2},
                  "b": {"req-de-retention": 0.5, "req-fr-retention": 0.9}},
                 {"req-de-retention": 1, "req-fr-retention": 0}, id="varying-criteria-weigh-zero"),
])
def test_rank_without_weighted_discriminating_criterion_exit_1(capsys, corpus_arg, alts_path, tmp_path,
                                                               scores, weights):
    doc = json.loads(alts_path.read_text())
    if scores is not None:
        doc["alternatives"] = [{"id": a, "satisfies": s} for a, s in scores.items()]
    doc["weights"] = weights
    path = tmp_path / "alts.reqalts.json"
    path.write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        code, out, err = invoke(capsys, "rank", *corpus_arg, "--alts", str(path), "--format", fmt)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("reqlattice: ") and err.count("\n") == 1 and "weight" in err


def test_rank_without_contradictions_exit_1(capsys, worked_example_path, tmp_path):
    # no contradiction leaves no criterion; the matrix is rejected when it is ranked
    doc = json.loads(worked_example_path.read_text())
    doc["relations"]["contradicts"] = []
    corpus = tmp_path / "peaceful.reqcorpus.json"
    corpus.write_text(json.dumps(doc))
    alts = tmp_path / "alts.reqalts.json"
    alts.write_text(json.dumps({"formatVersion": 1, "alternatives": [{"id": "a1", "satisfies": {}},
                                                                      {"id": "a2", "satisfies": {}}]}))
    for fmt in ("text", "json"):
        code, out, err = invoke(capsys, "rank", "--corpus", str(corpus), "--alts", str(alts), "--format", fmt)
        assert (code, out, err) == (EXIT_INVALID, "", "reqlattice: matrix has no alternatives or no criteria\n")


def test_rank_extreme_scores_print_no_nan(capsys, corpus_arg, alts_path, tmp_path):
    doc = json.loads(alts_path.read_text())
    for alt in doc["alternatives"]:
        alt["satisfies"] = {rid: score * 1e300 for rid, score in alt["satisfies"].items()}
    path = tmp_path / "alts.reqalts.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "rank", *corpus_arg, "--alts", str(path), "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    _, plain, _ = invoke(capsys, "rank", *corpus_arg, "--alts", str(alts_path), "--format", "json")
    ranking = [entry["alternative"] for entry in json.loads(out)["body"]["ranking"]]
    assert ranking == [entry["alternative"] for entry in json.loads(plain)["body"]["ranking"]]


def test_rank_huge_weights_rank_like_equal_weights(capsys, corpus_arg, alts_path, tmp_path):
    doc = json.loads(alts_path.read_text())
    doc["weights"] = {"req-de-retention": 1e308, "req-fr-retention": 1e308}
    path = tmp_path / "alts.reqalts.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "rank", *corpus_arg, "--alts", str(path), "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    _, plain, _ = invoke(capsys, "rank", *corpus_arg, "--alts", str(alts_path), "--format", "json")
    assert json.loads(out)["body"] == json.loads(plain)["body"]


@pytest.mark.parametrize("command,level,unused", [
    ("scenario", None, "partition_requirements"),
    ("scenario", "state", "level_requirement_view"),
    ("validate", None, "partition_sources"),
    ("validate", "state", "level_source_view"),
])
def test_commands_partition_only_what_they_report(capsys, corpus_arg, monkeypatch, command, level, unused):
    from reqlattice import hierarchy, partition

    def unexpected(*args, **kwargs):
        raise AssertionError(f"{command} computed {unused}")

    owner = hierarchy if unused.startswith("level_") else partition
    monkeypatch.setattr(owner, unused, unexpected)
    code, _, err = invoke(capsys, command, *corpus_arg, *(["--level", level] if level else []))
    assert code == EXIT_OK and err == ""


def test_change_partitions_only_the_changed_concepts(capsys, corpus_arg, change_set_path, monkeypatch):
    from reqlattice import partition

    def unexpected(*args, **kwargs):
        raise AssertionError("change built a whole-kind flat view")

    monkeypatch.setattr(partition, "flat_view", unexpected)
    code, out, err = invoke(capsys, "change", *corpus_arg, "--changes", str(change_set_path), "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert [op["case"] for op in json.loads(out)["body"]["ops"]] == ["1b", "2b"]


def test_change_validates_the_whole_corpus_only_on_load(capsys, corpus_arg, change_set_path, tmp_path, monkeypatch):
    from reqlattice import model

    calls = []
    validate_corpus = model.validate_corpus
    monkeypatch.setattr(model, "validate_corpus", lambda corpus: calls.append(1) or validate_corpus(corpus))
    out_path = tmp_path / "after.json"
    code, _, err = invoke(capsys, "change", *corpus_arg, "--changes", str(change_set_path), "--out", str(out_path))
    assert (code, err, len(calls)) == (EXIT_OK, "", 1)
    assert out_path.exists()


def test_1b_lists_each_component_once(capsys, tmp_path):
    # c-all implements the target and both counterparts, c2-pay one counterpart
    texts = {"s1": "pay net thirty", "s2": "pay net fourteen", "s3": "pay net fourteen"}
    doc = {
        "formatVersion": 1,
        "jurisdictions": [{"id": j, "name": j, "level": "national"} for j in texts],
        "sources": [],
        "requirements": [{"id": f"r-{j}-pay", "kind": "functional", "jurisdiction": j, "conceptKey": "pay",
                          "text": text} for j, text in texts.items()],
        "relations": {"refines": [], "contradicts": []},
        "components": [{"id": "c-all", "implements": ["r-s1-pay", "r-s2-pay", "r-s3-pay"], "scope": "general"},
                       {"id": "c2-pay", "implements": ["r-s2-pay"], "scope": "specific", "jurisdiction": "s2"}],
    }
    corpus = tmp_path / "pay.reqcorpus.json"
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    op = {"op": "modify", "target": "r-s1-pay", "payload": {"text": "pay net fourteen"}}
    exit_code, out, err = invoke(capsys, "change", "--corpus", str(corpus),
                                 "--changes", _write_change_set(tmp_path, op), "--format", "json")
    assert (exit_code, err) == (EXIT_OK, "")
    body = json.loads(out)["body"]
    [record] = body["ops"]
    assert record["case"] == "1b"
    assert record["components"] == [{"id": "c-all", "status": "mustChange"}, {"id": "c2-pay", "status": "reusable"}]
    # a reuse hint stays one per (component, counterpart)
    assert [(h["component"], h["owner"], h["for"], h["via"]) for h in body["reuseHints"]] == [
        ("c-all", "s2", "s1", "r-s2-pay"), ("c-all", "s3", "s1", "r-s3-pay"), ("c2-pay", "s2", "s1", "r-s2-pay")]


_DE_TEXT = "Das System muss Daten auf Anfrage löschen."


def _translated_erasure_corpus(tmp_path, fr_concept):
    # r-de and r-fr are translations: different texts that share one explicit content hash
    doc = {
        "formatVersion": 1,
        "jurisdictions": [{"id": j, "name": j, "level": "national"} for j in ("de", "fr")],
        "requirements": [
            {"id": "r-de", "kind": "functional", "jurisdiction": "de", "conceptKey": "erase",
             "text": _DE_TEXT, "contentHash": "h1"},
            {"id": "r-fr", "kind": "functional", "jurisdiction": "fr", "conceptKey": fr_concept,
             "text": "Le système doit effacer les données sur demande.", "contentHash": "h1"},
        ],
    }
    corpus = tmp_path / "erasure.reqcorpus.json"
    corpus.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return corpus


def test_rename_of_a_general_concept_keeps_the_shared_hash(capsys, tmp_path):
    # renaming the concept of every counterpart changes no content, so both stay general
    corpus, out_path = _translated_erasure_corpus(tmp_path, "erase"), tmp_path / "after.reqcorpus.json"
    op = {"op": "modify", "target": "r-de", "adoptedBy": ["de", "fr"], "payload": {"conceptKey": "erasure"}}
    exit_code, out, err = invoke(capsys, "change", "--corpus", str(corpus), "--changes",
                                 _write_change_set(tmp_path, op), "--format", "json", "--out", str(out_path))
    assert (exit_code, err) == (EXIT_OK, "")
    assert [record["case"] for record in json.loads(out)["body"]["ops"]] == ["2a"]
    after = json.loads(out_path.read_text(encoding="utf-8"))["requirements"]
    assert [(r["conceptKey"], r["contentHash"]) for r in after] == [("erasure", "h1")] * 2
    exit_code, out, _ = invoke(capsys, "partition", "--corpus", str(out_path), "--format", "json")
    assert exit_code == EXIT_OK
    functional = json.loads(out)["body"]["perKind"]["functional"]
    assert functional["general"] == {"erasure": ["r-de", "r-fr"]}
    assert functional["specific"] == {"de": [], "fr": []}


@pytest.mark.parametrize("target, payload, shared", [
    # the target's own text keeps the group's hash for every counterpart, renamed or not
    ("r-de", {"text": _DE_TEXT, "conceptKey": "erasure"}, ("erasure", "h1")),
    # a counterpart's text is a new text for the target: every counterpart gets its hash
    ("r-fr", {"text": _DE_TEXT}, ("erase", content_hash(_DE_TEXT))),
])
def test_a_general_modify_gives_every_counterpart_one_hash(capsys, tmp_path, target, payload, shared):
    concept, digest = shared
    corpus, out_path = _translated_erasure_corpus(tmp_path, "erase"), tmp_path / "after.reqcorpus.json"
    op = {"op": "modify", "target": target, "adoptedBy": ["de", "fr"], "payload": payload}
    exit_code, out, err = invoke(capsys, "change", "--corpus", str(corpus), "--changes",
                                 _write_change_set(tmp_path, op), "--format", "json", "--out", str(out_path))
    assert (exit_code, err) == (EXIT_OK, "")
    assert [record["case"] for record in json.loads(out)["body"]["ops"]] == ["2a"]
    after = json.loads(out_path.read_text(encoding="utf-8"))["requirements"]
    assert [(r["conceptKey"], r["contentHash"], r["text"]) for r in after] == [(concept, digest, _DE_TEXT)] * 2
    exit_code, out, _ = invoke(capsys, "partition", "--corpus", str(out_path), "--format", "json")
    assert exit_code == EXIT_OK
    functional = json.loads(out)["body"]["perKind"]["functional"]
    assert functional["general"] == {concept: ["r-de", "r-fr"]}
    assert functional["specific"] == {"de": [], "fr": []}


def test_resending_its_own_text_keeps_an_explicit_hash(capsys, tmp_path):
    # r-de's text is unchanged, so its explicit hash stays and the modify changes nothing
    corpus = _translated_erasure_corpus(tmp_path, "erase")
    op = {"op": "modify", "target": "r-de", "adoptedBy": ["de"], "payload": {"text": _DE_TEXT}}
    exit_code, out, err = invoke(capsys, "change", "--corpus", str(corpus), "--changes",
                                 _write_change_set(tmp_path, op), "--format", "json")
    assert (exit_code, out) == (EXIT_INVALID, "")
    assert err.startswith("reqlattice: NO_CHANGE: ") and err.count("\n") == 1


def test_rename_onto_a_translated_counterpart_promotes_it(capsys, tmp_path):
    # after the rename r-de and r-fr share concept and content hash: 1b, not 1a
    corpus = _translated_erasure_corpus(tmp_path, "erasure")
    op = {"op": "modify", "target": "r-de", "payload": {"conceptKey": "erasure"}}
    exit_code, out, err = invoke(capsys, "change", "--corpus", str(corpus), "--changes",
                                 _write_change_set(tmp_path, op), "--format", "json")
    assert (exit_code, err) == (EXIT_OK, "")
    [record] = json.loads(out)["body"]["ops"]
    assert record["case"] == "1b"
    assert record["migrations"] == [{"id": "r-de", "from": "specific:de", "to": "general"},
                                    {"id": "r-fr", "from": "specific:fr", "to": "general"}]


# ---------------------------------------------------------------------------
# byte-determinism across hash seeds: set and dict orders of str keys change
# with PYTHONHASHSEED, and no output may follow them

_RUN_CASES = """
import contextlib, io, json, os, sys
from reqlattice.cli import run
records = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    written = None
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, "rb") as fh:
                written = fh.read().decode("utf-8")
            os.remove(path)
    records.append([argv, code, out.getvalue(), err.getvalue(), written])
sys.stdout.write(json.dumps(records))
"""


def _cyclic_tree_corpus(tmp_path):
    """A random forest, and a copy whose ``refines`` get two back edges, so
    two cycles compete for the witness."""
    seed = 0
    while len((tree := random_tree_corpus(random.Random(seed))).relations.refines) < 12:
        seed += 1
    order = tree.relations.refinement_order
    paths = [(a, c) for a in sorted(order) for b in sorted(order[a]) for c in sorted(order[b])]
    back = {(c, a) for a, c in (paths[0], paths[-1])}  # each closes a -> b -> c
    assert len(back) == 2
    acyclic, cyclic = tmp_path / "tree.reqcorpus.json", tmp_path / "cyclic.reqcorpus.json"
    acyclic.write_bytes(corpus_io.canonical_bytes(tree))
    relations = replace(tree.relations, refines=tree.relations.refines | back)
    cyclic.write_bytes(corpus_io.canonical_bytes(replace(tree, relations=relations)))
    return acyclic, cyclic


def _faulty_corpus(tmp_path, worked_example_path):
    """The worked example with several structural faults; only the first is reported."""
    doc = json.loads(worked_example_path.read_text())
    doc["requirements"].append(dict(doc["requirements"][3], id="req-zz-twin"))  # a repeated concept
    doc["requirements"][0]["derivedFrom"] = ["src-nowhere"]
    doc["relations"]["refines"] += [["req-de-audit", "req-nowhere"], ["req-fr-audit", "req-fr-audit"]]
    doc["components"][0]["implements"].append("src-de-consent")
    path = tmp_path / "faulty.reqcorpus.json"
    path.write_text(json.dumps(doc))
    return path


def test_every_output_is_the_same_under_every_hash_seed(tmp_path, worked_example_path, change_set_path, alts_path):
    acyclic, cyclic = _cyclic_tree_corpus(tmp_path)
    faulty = _faulty_corpus(tmp_path, worked_example_path)
    example = ["--corpus", str(worked_example_path)]
    out = str(tmp_path / "after.reqcorpus.json")
    cases = [[command, *example, *extra, "--format", fmt]
             for command, extra in [("validate", []), ("partition", []), ("scenario", []), ("optimize", []),
                                    ("conflicts", []), ("hierarchy", []), ("rank", ["--alts", str(alts_path)]),
                                    ("change", ["--changes", str(change_set_path)]),
                                    ("change", ["--changes", str(change_set_path), "--out", out])]
             for fmt in ("text", "json")]
    cases += [["hierarchy", "--corpus", str(acyclic), "--format", "json"],
              ["optimize", "--corpus", str(acyclic), "--format", "json"],
              ["partition", "--corpus", str(acyclic), "--level", "org", "--format", "json"],
              ["validate", "--corpus", str(cyclic)],
              ["hierarchy", "--corpus", str(cyclic), "--format", "json"],
              ["validate", "--corpus", str(faulty)]]
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    for seed in ("0", "1", "2"):  # one after another: the --out path is shared
        proc = subprocess.run([sys.executable, "-c", _RUN_CASES, json.dumps(cases)], capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1] == runs[2]
    records = json.loads(runs[0])
    assert [code for _, code, *_ in records[-3:]] == [EXIT_INVALID] * 3
    assert records[-3][3].startswith("reqlattice: refinement cycle: ")
    assert records[-1][3] == ("reqlattice: FUNCTIONAL_WITH_SOURCES: functional requirement 'req-de-audit' "
                              "must not derive from sources\n")
    assert all(code == EXIT_OK for _, code, *_ in records[:-3])
    assert all(written for argv, _, _, _, written in records if "--out" in argv)  # the --out corpus is compared too

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reqlattice.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_STRICT, run


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
    from reqlattice import corpus_io
    corpus_io.load_corpus(out_path)
    body = json.loads(out1)["body"]
    assert [op["case"] for op in body["ops"]] == ["1b", "2b"]



def test_change_out_serialises_the_new_corpus_once(capsys, corpus_arg, change_set_path, tmp_path, monkeypatch):
    import hashlib

    from reqlattice import corpus_io

    calls = []
    serialise = corpus_io.canonical_bytes
    monkeypatch.setattr(corpus_io, "canonical_bytes", lambda corpus: calls.append(1) or serialise(corpus))
    out_path = tmp_path / "after.reqcorpus.json"
    code, out, _ = invoke(capsys, "change", *corpus_arg, "--changes", str(change_set_path),
                          "--out", str(out_path), "--format", "json")
    assert code == EXIT_OK
    assert len(calls) == 2  # the input's fingerprint, then the bytes written to --out
    body = json.loads(out)["body"]
    assert body["after"] == hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert body["after"] == corpus_io.load_corpus(out_path).fingerprint


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


def test_emit_flag_filters_optimize_report(capsys, corpus_arg):
    _, out_min, _ = invoke(capsys, "optimize", *corpus_arg, "--format", "json", "--emit", "min")
    body = json.loads(out_min)["body"]
    assert "baseline" in body["global"] and "strongest" not in body["global"]
    _, out_star, _ = invoke(capsys, "optimize", *corpus_arg, "--format", "json", "--emit", "star")
    body = json.loads(out_star)["body"]
    assert "strongest" in body["global"] and "baseline" not in body["global"]


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
])
def test_change_op_outside_its_schema_exit_1(capsys, corpus_arg, tmp_path, op, code):
    path = tmp_path / "cs.reqchange.json"
    path.write_text(json.dumps({"formatVersion": 1, "label": "l", "ops": [op]}), encoding="utf-8")
    exit_code, out, err = invoke(capsys, "change", *corpus_arg, "--changes", str(path))
    assert exit_code == EXIT_INVALID and out == ""
    assert err.startswith(f"reqlattice: {code}: ") and err.count("\n") == 1


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

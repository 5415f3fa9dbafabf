"""Input text that is not UTF-8, or that JSON-escapes a lone UTF-16 surrogate,
is rejected at load with exit 1 and one stderr line, for every file kind."""

import json

import pytest

from reqlattice import corpus_io
from reqlattice.cli import EXIT_INVALID, EXIT_OK, run

_CORPUS = {
    "formatVersion": 1,
    "jurisdictions": [{"id": "de", "name": "Germany", "level": "national"}],
    "requirements": [{"id": "req-de-a", "kind": "functional", "jurisdiction": "de",
                      "conceptKey": "a", "text": "The system shall log."}],
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


def _rejected(result, path, message):
    code, out, err = result
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith(f"reqlattice: {path}:") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def _corpus_text(text="The system shall log.", **record):
    doc = json.loads(json.dumps(_CORPUS))
    doc["requirements"][0].update(record, text="@")
    # json.dumps would escape a surrogate itself; splice the raw escape in
    return json.dumps(doc).replace('"@"', text)


@pytest.mark.parametrize("command", ["validate", "partition"])
def test_invalid_utf8_corpus_exit_1(capsys, tmp_path, command):
    path = tmp_path / "bad.reqcorpus.json"
    path.write_bytes(b'{"formatVersion": 1, "jurisdictions": [], "x": "\xff"}')
    _rejected(invoke(capsys, command, "--corpus", str(path)), path, "not valid UTF-8")


def test_invalid_utf8_reports_its_line(capsys, tmp_path):
    path = tmp_path / "bad.reqcorpus.json"
    path.write_bytes(b'{\n  "formatVersion": 1,\n  "jurisdictions": ["\xc3\x28"]\n}')
    code, _, err = invoke(capsys, "validate", "--corpus", str(path))
    assert code == EXIT_INVALID and err.startswith(f"reqlattice: {path}:3: ")


def test_invalid_utf8_change_set_exit_1(capsys, tmp_path, worked_example_path):
    path = tmp_path / "bad.reqchange.json"
    path.write_bytes(b'{"formatVersion": 1, "label": "\xe2\x82", "ops": []}')
    result = invoke(capsys, "change", "--corpus", str(worked_example_path), "--changes", str(path))
    _rejected(result, path, "not valid UTF-8")


def test_invalid_utf8_alternatives_exit_1(capsys, tmp_path, worked_example_path):
    path = tmp_path / "bad.reqalts.json"
    path.write_bytes(b'{"formatVersion": 1, "alternatives": [{"id": "\xed\xa0\x80", "satisfies": {}}]}')
    result = invoke(capsys, "rank", "--corpus", str(worked_example_path), "--alts", str(path))
    _rejected(result, path, "not valid UTF-8")


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF", "x\\udc00y", "\\ude00\\ud83d", "\\ud83d\\u0041"],
                         ids=["high", "low-upper-case", "low-inside", "reversed-pair", "high-then-letter"])
@pytest.mark.parametrize("record", [{}, {"contentHash": "h"}], ids=["hash-computed", "hash-given"])
@pytest.mark.parametrize("command", ["validate", "partition", "conflicts"])
def test_lone_surrogate_in_corpus_exit_1(capsys, tmp_path, escape, record, command):
    path = _write(tmp_path, "s.reqcorpus.json", _corpus_text(f'"{escape}"', **record))
    _rejected(invoke(capsys, command, "--corpus", str(path), "--format", "json"), path,
              "unpaired surrogate")


def test_lone_surrogate_in_a_key_exit_1(capsys, tmp_path):
    path = _write(tmp_path, "s.reqcorpus.json", json.dumps(_CORPUS)[:-1] + ', "\\ud800": 1}')
    _rejected(invoke(capsys, "validate", "--corpus", str(path)), path, "unpaired surrogate")


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_lone_surrogate_in_change_payload_exit_1(capsys, tmp_path, worked_example_path, out):
    path = _write(tmp_path, "s.reqchange.json", json.dumps({
        "formatVersion": 1, "label": "l",
        "ops": [{"op": "modify", "target": "req-de-retention", "payload": {"text": "@"}}],
    }).replace('"@"', '"keep \\udbff"'))
    argv = ["change", "--corpus", str(worked_example_path), "--changes", str(path), "--format", "json"]
    if out:
        argv += ["--out", str(tmp_path / "new.reqcorpus.json")]
    _rejected(invoke(capsys, *argv), path, "unpaired surrogate")
    assert not (tmp_path / "new.reqcorpus.json").exists()


def test_lone_surrogate_in_alternative_id_exit_1(capsys, tmp_path, worked_example_path, alts_path):
    doc = json.loads(alts_path.read_text(encoding="utf-8"))
    doc["alternatives"][0]["id"] = "@"
    path = _write(tmp_path, "s.reqalts.json", json.dumps(doc).replace('"@"', '"alt-\\ud800"'))
    result = invoke(capsys, "rank", "--corpus", str(worked_example_path), "--alts", str(path))
    _rejected(result, path, "unpaired surrogate")


@pytest.mark.parametrize("record", [{}, {"contentHash": "h"}], ids=["hash-computed", "hash-given"])
def test_escaped_surrogate_pair_loads(capsys, tmp_path, record):
    # the escaped backslash makes the raw text hold "\\ud8" without a surrogate
    path = _write(tmp_path, "pair.reqcorpus.json", _corpus_text('"smile \\ud83d\\ude00 \\\\ud800"', **record))
    assert invoke(capsys, "validate", "--corpus", str(path)) == (EXIT_OK, "corpus valid\n", "")
    assert corpus_io.load_corpus(path).requirements[0].text == "smile \U0001F600 \\ud800"

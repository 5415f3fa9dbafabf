import json
import random

import pytest

from oracles import random_corpus
from reqlattice import corpus_io
from reqlattice.errors import IOFailure, ParseError, ValidationError
from reqlattice.model import Corpus, Jurisdiction, Level


MINIMAL = {
    "formatVersion": 1,
    "jurisdictions": [{"id": "de", "name": "Germany", "level": "national"}],
}


def write(tmp_path, doc, name="c.reqcorpus.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_minimal(self, tmp_path):
        corpus = corpus_io.load_corpus(write(tmp_path, MINIMAL))
        assert (len(corpus.jurisdictions), len(corpus.sources), len(corpus.requirements)) == (1, 0, 0)

    def test_dangling_source_ref(self, tmp_path):
        doc = dict(MINIMAL, requirements=[{
            "id": "r1", "kind": "legalBased", "jurisdiction": "de",
            "conceptKey": "k", "text": "t", "derivedFrom": ["ghost"],
        }])
        with pytest.raises(ValidationError) as e:
            corpus_io.load_corpus(write(tmp_path, doc))
        assert e.value.code == "DANGLING_REF"

    def test_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.reqcorpus.json"
        path.write_text('{\n  "formatVersion": 1,\n  oops\n}', encoding="utf-8")
        with pytest.raises(ParseError) as e:
            corpus_io.load_corpus(path)
        assert e.value.line == 3

    def test_unknown_field_rejected(self, tmp_path):
        doc = dict(MINIMAL, surprise=True)
        with pytest.raises(ValidationError) as e:
            corpus_io.load_corpus(write(tmp_path, doc))
        assert e.value.code == "UNKNOWN_FIELD"

    def test_format_version_required(self, tmp_path):
        doc = dict(MINIMAL, formatVersion=2)
        with pytest.raises(ValidationError) as e:
            corpus_io.load_corpus(write(tmp_path, doc))
        assert e.value.code == "FORMAT_VERSION"

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOFailure):
            corpus_io.load_corpus(tmp_path / "absent.json")

    def test_hash_computed_when_absent(self, tmp_path):
        doc = dict(MINIMAL, sources=[{
            "id": "s1", "kind": "legal", "jurisdiction": "de",
            "conceptKey": "k", "text": "Some  Law",
        }])
        corpus = corpus_io.load_corpus(write(tmp_path, doc))
        from reqlattice.model import content_hash
        assert corpus.sources[0].content_hash == content_hash("Some  Law")

    def test_explicit_hash_preserved(self, tmp_path):
        doc = dict(MINIMAL, sources=[{
            "id": "s1", "kind": "legal", "jurisdiction": "de",
            "conceptKey": "k", "text": "Some Law", "contentHash": "deadbeef",
        }])
        corpus = corpus_io.load_corpus(write(tmp_path, doc))
        assert corpus.sources[0].content_hash == "deadbeef"

    def test_refinement_cycle_rejected_at_load(self, tmp_path):
        doc = dict(MINIMAL,
                   requirements=[
                       {"id": "r1", "kind": "functional", "jurisdiction": "de", "conceptKey": "a", "text": "a"},
                       {"id": "r2", "kind": "functional", "jurisdiction": "de", "conceptKey": "b", "text": "b"},
                   ],
                   relations={"refines": [["r1", "r2"], ["r2", "r1"]]})
        from reqlattice.errors import CycleError
        with pytest.raises(CycleError):
            corpus_io.load_corpus(write(tmp_path, doc))


class TestSaveCorpus:
    def test_canonical_idempotence(self, worked_example, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        corpus_io.save_corpus(worked_example, p1)
        corpus_io.save_corpus(corpus_io.load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_collections_loadable(self, tmp_path):
        corpus = Corpus(jurisdictions=(Jurisdiction("x", "X", Level.NATIONAL),),
                        sources=(), requirements=())
        path = tmp_path / "empty.json"
        corpus_io.save_corpus(corpus, path)
        assert corpus_io.load_corpus(path) == corpus

    def test_shipped_worked_example_is_canonical(self, worked_example_path, worked_example):
        assert worked_example_path.read_bytes() == corpus_io.canonical_bytes(worked_example)

    def test_random_round_trip(self, tmp_path):
        rng = random.Random(20240819)
        for i in range(25):
            corpus = random_corpus(rng, with_relations=True)
            path = tmp_path / f"r{i}.json"
            corpus_io.save_corpus(corpus, path)
            assert corpus_io.load_corpus(path) == corpus


class TestChangeSetIO:
    def test_single_modify(self, tmp_path):
        doc = {"formatVersion": 1, "label": "l",
               "ops": [{"op": "modify", "target": "r1", "payload": {"text": "new"}}]}
        cs = corpus_io.parse_change_set(doc)
        assert len(cs.ops) == 1 and cs.ops[0].payload.text == "new"

    def test_duplicate_target(self):
        doc = {"formatVersion": 1, "label": "l", "ops": [
            {"op": "modify", "target": "r1", "payload": {"text": "a"}},
            {"op": "remove", "target": "r1"},
        ]}
        with pytest.raises(ValidationError) as e:
            corpus_io.parse_change_set(doc)
        assert e.value.code == "DUPLICATE_TARGET"

    def test_unknown_adopting_jurisdiction(self, worked_example, tmp_path):
        doc = {"formatVersion": 1, "label": "l", "ops": [
            {"op": "modify", "target": "req-de-consent",
             "payload": {"text": "x"}, "adoptedBy": ["atlantis"]},
        ]}
        path = tmp_path / "cs.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError) as e:
            corpus_io.load_change_set(path, worked_example)
        assert e.value.code == "UNKNOWN_JURISDICTION"

    def test_add_payload_derived_from_must_hold_ids(self):
        doc = {"formatVersion": 1, "label": "l", "ops": [
            {"op": "add", "target": "r9", "payload": {
                "role": "requirement", "kind": "legalBased", "jurisdiction": "de",
                "conceptKey": "k", "text": "t", "derivedFrom": [[1]]}},
        ]}
        with pytest.raises(ValidationError) as e:
            corpus_io.parse_change_set(doc)
        assert e.value.code == "BAD_TYPE"

    @pytest.mark.parametrize("record", [
        {"kind": "cultural", "jurisdiction": "de", "conceptKey": "k", "text": "Greet formally."},
        {"kind": "legal", "jurisdiction": "de", "conceptKey": "k", "text": "t", "contentHash": "h"},
        {"kind": "legal", "jurisdiction": "de", "conceptKey": "k", "text": "t", "isStatic": True},
        {"kind": "legalBased", "jurisdiction": "de", "conceptKey": "k", "text": "t", "derivedFrom": ["s"]},
        {"kind": "functional", "jurisdiction": "de", "conceptKey": "k", "text": "T  t", "contentHash": "h"},
    ], ids=["source-default-static", "source-hash", "source-static", "requirement-derived",
            "requirement-hash"])
    def test_add_item_is_the_item_a_corpus_record_loads_as(self, record):
        role = "source" if record["kind"] in ("legal", "cultural") else "requirement"
        cs = corpus_io.parse_change_set({"formatVersion": 1, "label": "l", "ops": [
            {"op": "add", "target": "x1", "payload": dict(record, role=role)}]})
        doc = dict(MINIMAL, requirements=[], sources=[
            {"id": "s", "kind": "legal", "jurisdiction": "de", "conceptKey": "s", "text": "s"}])
        doc[f"{role}s"].append(dict(record, id="x1"))
        assert cs.ops[0].payload == corpus_io.parse_corpus(doc).item("x1")

    @pytest.mark.parametrize("payload,code", [
        ({"kind": "legal", "jurisdiction": "de", "conceptKey": "k", "text": "t"}, "MISSING_FIELD"),
        ({"role": "component", "kind": "legal", "jurisdiction": "de", "conceptKey": "k", "text": "t"},
         "BAD_ENUM"),
        ({"role": "source", "kind": "bogus", "jurisdiction": "de", "conceptKey": "k", "text": "t"}, "BAD_ENUM"),
        ({"role": "source", "kind": "legal", "jurisdiction": "de", "conceptKey": "k"}, "MISSING_FIELD"),
        ({"role": "source", "kind": "legal", "jurisdiction": "de", "conceptKey": "k", "text": "t",
          "derivedFrom": []}, "UNKNOWN_FIELD"),
        ({"role": "requirement", "kind": "functional", "jurisdiction": "de", "conceptKey": "k", "text": "t",
          "isStatic": True}, "UNKNOWN_FIELD"),
        ({"role": "source", "kind": "legal", "jurisdiction": "de", "conceptKey": "k", "text": "t",
          "id": "x1"}, "UNKNOWN_FIELD"),
    ], ids=["no-role", "bad-role", "bad-kind", "no-text", "source-derivedFrom", "requirement-isStatic",
            "own-id"])
    def test_bad_add_payload(self, payload, code):
        doc = {"formatVersion": 1, "label": "l", "ops": [{"op": "add", "target": "x1", "payload": payload}]}
        with pytest.raises(ValidationError) as e:
            corpus_io.parse_change_set(doc)
        assert e.value.code == code

    def test_modify_without_payload(self):
        doc = {"formatVersion": 1, "label": "l",
               "ops": [{"op": "modify", "target": "r1"}]}
        with pytest.raises(ValidationError) as e:
            corpus_io.parse_change_set(doc)
        assert e.value.code == "MISSING_FIELD"

    def test_unknown_modify_target(self, worked_example):
        cs = corpus_io.parse_change_set({
            "formatVersion": 1, "label": "l",
            "ops": [{"op": "modify", "target": "ghost", "payload": {"text": "x"}}],
        })
        with pytest.raises(ValidationError) as e:
            corpus_io.validate_change_set(cs, worked_example)
        assert e.value.code == "UNKNOWN_TARGET"


class TestAlternativesIO:
    def test_parse(self, alts_path):
        alts = corpus_io.load_alternatives(alts_path)
        assert [a.id for a in alts.alternatives] == [
            "alt-shortest-period", "alt-per-jurisdiction-policy", "alt-longest-period"]

    def test_negative_weight_rejected(self):
        doc = {"formatVersion": 1, "alternatives": [], "weights": {"r1": -1}}
        with pytest.raises(ValidationError):
            corpus_io.parse_alternatives(doc)

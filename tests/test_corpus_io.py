import contextlib
import dataclasses
import gc
import io
import json
import random

import pytest

from oracles import random_corpus
from reqlattice import cli, corpus_io, model
from reqlattice.errors import IOFailure, ParseError, ValidationError
from reqlattice.model import Component, Corpus, Jurisdiction, Level, Requirement


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

    def test_hash_computed_when_absent_is_the_stored_one(self, worked_example_path, worked_example, tmp_path):
        # the worked example stores each record's contentHash; dropping them all loads the same corpus
        doc = json.loads(worked_example_path.read_text(encoding="utf-8"))
        for record in (*doc["sources"], *doc["requirements"]):
            del record["contentHash"]
        unhashed = corpus_io.load_corpus(write(tmp_path, doc))
        assert unhashed == worked_example
        assert unhashed.sources[0].content_hash == "429468c73dbdd59fb98bdbc8292dabc72cb23b9f4d2eca6bd02179b710806389"

    @pytest.mark.parametrize("fast", [True, False], ids=["fast-path", "slow-path"])
    def test_no_derivations_share_one_empty_set(self, worked_example_path, tmp_path, fast):
        doc = json.loads(worked_example_path.read_text(encoding="utf-8"))
        if not fast:  # a record without its contentHash or derivedFrom takes the checked path
            for record in doc["requirements"]:
                del record["contentHash"]
            del doc["requirements"][0]["derivedFrom"]
        corpus = corpus_io.load_corpus(write(tmp_path, doc))
        underived = [r for r in corpus.requirements if not r.derived_from]
        assert [r.id for r in underived] == ["req-de-audit", "req-fr-audit"]
        for r in underived:
            assert r.derived_from is model.NO_DERIVATIONS is Requirement("r", "k", "j", "c", "t", "h").derived_from
            own = r._replace(derived_from=frozenset())  # an empty set of its own, as the loader once gave
            assert own.derived_from is not r.derived_from
            assert (own, hash(own), repr(own)) == (r, hash(r), repr(r))

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


class TestLoadPausesTheCollector:
    """A command's load runs with the cyclic GC off: ``cli.run`` pauses it
    around the load and the command and leaves it as it found it on every
    exit, while ``load_corpus`` itself never touches it."""

    FAILING = [
        pytest.param("{\n  oops\n}", cli.EXIT_INVALID, id="parse-error"),
        pytest.param(json.dumps(dict(MINIMAL, formatVersion=2)), cli.EXIT_INVALID, id="validation-error"),
        pytest.param(None, cli.EXIT_IO, id="io-failure"),
    ]

    @staticmethod
    def spy_on_parse(monkeypatch) -> list[bool]:
        seen, parse = [], corpus_io.parse_corpus

        def spy(doc):
            seen.append(gc.isenabled())
            return parse(doc)

        monkeypatch.setattr(corpus_io, "parse_corpus", spy)
        return seen

    @staticmethod
    def run_quietly(*argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.run(list(argv))

    def test_paused_only_while_loading(self, tmp_path, monkeypatch):
        seen = self.spy_on_parse(monkeypatch)
        assert gc.isenabled()
        assert self.run_quietly("validate", "--corpus", str(write(tmp_path, MINIMAL))) == cli.EXIT_OK
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("text,code", FAILING)
    def test_restored_after_a_failed_load(self, tmp_path, text, code):
        path = tmp_path / "c.reqcorpus.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert self.run_quietly("validate", "--corpus", str(path)) == code
        assert gc.isenabled()

    @pytest.mark.parametrize("text,code", [pytest.param(json.dumps(MINIMAL), cli.EXIT_OK, id="ok"), *FAILING])
    def test_left_off_when_the_caller_turned_it_off(self, tmp_path, text, code):
        path = tmp_path / "c.reqcorpus.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        gc.disable()
        try:
            assert self.run_quietly("validate", "--corpus", str(path)) == code
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_paused_while_the_command_runs(self, worked_example_path, monkeypatch):
        seen, command = [], cli._COMMANDS["partition"]

        def spy(args, corpus):
            seen.append(gc.isenabled())
            return command(args, corpus)

        monkeypatch.setitem(cli._COMMANDS, "partition", spy)
        assert self.run_quietly("partition", "--corpus", str(worked_example_path)) == cli.EXIT_OK
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("argv,code", [  # exits 0 and 1 are the cases above
        pytest.param(["conflicts", "--strict"], cli.EXIT_STRICT, id="exit-2"),
        pytest.param(["change", "--changes", "absent.reqchange.json"], cli.EXIT_IO, id="exit-3"),
    ])
    def test_restored_after_a_command_exit(self, worked_example_path, argv, code):
        assert self.run_quietly(*argv, "--corpus", str(worked_example_path)) == code
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_restored_after_a_command_raises(self, worked_example_path, monkeypatch, enabled):
        def boom(args, corpus):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "validate", boom)
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                cli.run(["validate", "--corpus", str(worked_example_path)])
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_load_corpus_leaves_the_collector_alone(self, tmp_path, monkeypatch, enabled):
        seen = self.spy_on_parse(monkeypatch)
        if not enabled:
            gc.disable()
        try:
            corpus_io.load_corpus(write(tmp_path, MINIMAL))
            assert seen == [enabled] and gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_no_collection_during_a_command(self, tmp_path):
        # 4 jurisdictions x 60 concepts, a source and a requirement each: the
        # load leaves well over a gen-0 threshold of live containers behind
        jurisdictions = [{"id": f"j{i}", "name": f"J{i}", "level": "national"} for i in range(4)]
        sources, requirements = [], []
        for i in range(4):
            for k in range(60):
                text = f"rule {k}" if k % 2 else f"rule {k} in j{i}"
                sources.append({"id": f"s{i}-{k}", "kind": "legal", "jurisdiction": f"j{i}", "conceptKey": f"c{k}",
                                "text": text, "isStatic": False})
                requirements.append({"id": f"r{i}-{k}", "kind": "legalBased", "jurisdiction": f"j{i}",
                                     "conceptKey": f"c{k}", "text": text, "derivedFrom": [f"s{i}-{k}"]})
        path = write(tmp_path, dict(MINIMAL, jurisdictions=jurisdictions, sources=sources,
                                    requirements=requirements))
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            assert self.run_quietly("partition", "--corpus", str(path), "--format", "json") == cli.EXIT_OK
        finally:
            gc.callbacks.remove(count)
        assert starts == []


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

    def test_random_round_trip_with_reversed_pairs(self, tmp_path):
        # random_corpus lists every contradicts pair ascending; reverse a seeded subset of them
        rng = random.Random(20261020)
        reversed_any = False
        for i in range(25):
            corpus = random_corpus(rng, with_relations=True)
            given = frozenset(p[::-1] if rng.random() < 0.5 else p for p in corpus.relations.contradicts)
            reversed_any |= given != corpus.relations.contradicts
            corpus = dataclasses.replace(corpus, relations=dataclasses.replace(corpus.relations, contradicts=given))
            path = tmp_path / f"r{i}.json"
            corpus_io.save_corpus(corpus, path)
            assert corpus_io.load_corpus(path) == corpus
        assert reversed_any

    def test_a_single_descending_pair_round_trips(self, worked_example_path, tmp_path):
        doc = json.loads(worked_example_path.read_text(encoding="utf-8"))
        doc["relations"]["contradicts"] = [pair[::-1] for pair in doc["relations"]["contradicts"]]
        corpus = corpus_io.load_corpus(write(tmp_path, doc))
        path = tmp_path / "saved.json"
        corpus_io.save_corpus(corpus, path)
        assert corpus_io.load_corpus(path) == corpus
        assert path.read_bytes() == worked_example_path.read_bytes()

    def test_contradiction_given_in_both_orders_round_trips(self, worked_example_path, tmp_path):
        # the worked example's one contradicts pair, given again reversed
        doc = json.loads(worked_example_path.read_text(encoding="utf-8"))
        doc["relations"]["contradicts"].append(doc["relations"]["contradicts"][0][::-1])
        corpus = corpus_io.load_corpus(write(tmp_path, doc))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        corpus_io.save_corpus(corpus, p1)
        assert corpus_io.load_corpus(p1) == corpus
        corpus_io.save_corpus(corpus_io.load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes() == worked_example_path.read_bytes()

    def test_corpus_built_with_both_orders_round_trips(self, worked_example, tmp_path):
        # built in code, not loaded: the relation set itself folds the reversed pair
        (pair,) = worked_example.relations.contradicts
        relations = dataclasses.replace(worked_example.relations,
                                        contradicts=worked_example.relations.contradicts | {pair[::-1]})
        corpus = dataclasses.replace(worked_example, relations=relations)
        assert corpus.relations.contradicts == {min(pair, pair[::-1])}
        assert corpus_io.parse_corpus(json.loads(corpus_io.canonical_bytes(corpus))) == corpus
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        corpus_io.save_corpus(corpus, p1)
        corpus_io.save_corpus(corpus_io.load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_single_contradicts_pair_is_stored_sorted(self):
        for pair in (("a", "b"), ("b", "a")):
            assert model.RelationSet(contradicts=frozenset({pair})).contradicts == {("a", "b")}

    @pytest.mark.parametrize("command", ["validate", "partition", "scenario", "optimize", "conflicts", "hierarchy",
                                         "rank", "change"])
    def test_contradiction_given_in_both_orders_reports_as_one_pair(self, worked_example_path, change_set_path,
                                                                    alts_path, tmp_path, command):
        # the worked example's one contradicts pair as shipped, also given reversed, and given only reversed
        doc = json.loads(worked_example_path.read_text(encoding="utf-8"))
        (pair,) = doc["relations"]["contradicts"]
        listings = [worked_example_path]
        for name, given in (("both", [pair, pair[::-1]]), ("reversed", [pair[::-1]])):
            doc["relations"]["contradicts"] = given
            listings.append(write(tmp_path, doc, f"{name}.reqcorpus.json"))
        extra = {"rank": ["--alts", str(alts_path)], "change": ["--changes", str(change_set_path)]}.get(command, [])
        outputs = []
        for i, path in enumerate(listings):
            for fmt in ("json", "text"):
                after = tmp_path / f"after-{i}-{fmt}.json"
                argv = [command, "--corpus", str(path), "--format", fmt, *extra]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv + (["--out", str(after)] if command == "change" else []))
                written = after.read_bytes() if command == "change" else None
                outputs.append((fmt, code, out.getvalue(), err.getvalue(), written))
        assert outputs[:2] == outputs[2:4] == outputs[4:]
        assert all(code == 0 for _, code, *_ in outputs)

    @pytest.mark.parametrize("pairs,code", [
        ([["ghost", "req-fr-retention"], ["req-fr-retention", "ghost"]], "DANGLING_REF"),
        ([["req-de-retention", "src-fr-retention"], ["src-fr-retention", "req-de-retention"]], "RELATION_ROLE_MISMATCH"),
        ([["req-de-retention", "req-de-retention"]], "RELATION_IRREFLEXIVE"),
        ([["req-de-audit", "req-fr-retention"], ["req-fr-retention", "req-de-audit"]], "RELATION_KIND_MISMATCH"),
    ])
    def test_both_orders_meet_the_first_error_of_the_sorted_one(self, worked_example_path, tmp_path, pairs, code):
        doc = json.loads(worked_example_path.read_text(encoding="utf-8"))
        errors = []
        for given in (pairs, [min(pairs)], [min(pairs)[::-1]]):
            doc["relations"]["contradicts"] = given
            with pytest.raises(ValidationError) as exc:
                corpus_io.load_corpus(write(tmp_path, doc))
            errors.append((exc.value.code, str(exc.value)))
        assert errors == [errors[0]] * 3 and errors[0][0] == code

    @pytest.mark.parametrize("jurisdiction", [None, "x", "ghost"])
    def test_component_round_trips_or_is_rejected(self, tmp_path, jurisdiction):
        # a component the validator accepts reloads as the same value
        corpus = Corpus(jurisdictions=(Jurisdiction("x", "X", Level.NATIONAL),), sources=(), requirements=(),
                        components=(Component("c", frozenset(), jurisdiction=jurisdiction),))
        try:
            model.validate_corpus(corpus)
        except ValidationError as e:
            assert (jurisdiction, e.code) == ("ghost", "DANGLING_REF")
            return
        path = tmp_path / "c.json"
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
        {"kind": "cultural", "jurisdiction": "de", "conceptKey": "k", "text": "t", "contentHash": "h",
         "isStatic": False},
        {"kind": "legalBased", "jurisdiction": "de", "conceptKey": "k", "text": "t", "contentHash": "h",
         "derivedFrom": ["s"]},
    ], ids=["source-default-static", "source-hash", "source-static", "requirement-derived",
            "requirement-hash", "source-all-fields", "requirement-all-fields"])
    def test_add_item_is_the_item_a_corpus_record_loads_as(self, record):
        role = "source" if record["kind"] in ("legal", "cultural") else "requirement"
        cs = corpus_io.parse_change_set({"formatVersion": 1, "label": "l", "ops": [
            {"op": "add", "target": "x1", "payload": dict(record, role=role)}]})
        doc = dict(MINIMAL, requirements=[], sources=[
            {"id": "s", "kind": "legal", "jurisdiction": "de", "conceptKey": "s", "text": "s"}])
        doc[f"{role}s"].append(dict(record, id="x1"))
        assert cs.ops[0].payload == corpus_io.parse_corpus(doc).by_id["x1"]

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


#: a source and a requirement with all seven fields, laid out as canonical_bytes writes them
_SRC7 = {"conceptKey": "k", "contentHash": "h", "id": "s", "isStatic": False, "jurisdiction": "de", "kind": "legal",
         "text": "Some  Law"}
_REQ7 = {"conceptKey": "k", "contentHash": "h", "derivedFrom": ["s"], "id": "r", "jurisdiction": "de",
         "kind": "legalBased", "text": "The  system"}


def _seven_key_doc(source=_SRC7, requirement=_REQ7):
    return dict(MINIMAL, sources=[source], requirements=[requirement])


class TestSevenKeyRecords:
    """Records holding every field, at the boundary of what a canonical record may be."""

    def test_canonical_records_load_as_written(self):
        corpus = corpus_io.parse_corpus(_seven_key_doc())
        assert corpus.sources == (model.SourceItem("s", model.SourceKind.LEGAL, "de", "k", "Some  Law", "h", False),)
        assert corpus.requirements == (model.Requirement("r", model.RequirementKind.LEGAL_BASED, "de", "k",
                                                         "The  system", "h", frozenset({"s"})),)

    def test_empty_content_hash_is_recomputed_from_the_text(self):
        corpus = corpus_io.parse_corpus(_seven_key_doc(dict(_SRC7, contentHash=""), dict(_REQ7, contentHash="")))
        assert corpus.sources[0].content_hash == model.content_hash("Some  Law")
        assert corpus.requirements[0].content_hash == model.content_hash("The  system")

    @pytest.mark.parametrize("role,edit,message", [
        ("requirement", {"derivedFrom": [1]}, "BAD_TYPE: requirement 'r' derivedFrom must hold ids"),
        ("requirement", {"derivedFrom": ["s", None]}, "BAD_TYPE: requirement 'r' derivedFrom must hold ids"),
        ("requirement", {"derivedFrom": "s"}, "BAD_TYPE: requirement field 'derivedFrom' has the wrong type"),
        ("source", {"isStatic": 1}, "BAD_TYPE: source field 'isStatic' has the wrong type"),
        ("source", {"isStatic": None}, "BAD_TYPE: source field 'isStatic' has the wrong type"),
        ("source", {"kind": []}, "BAD_TYPE: source field 'kind' has the wrong type"),
        ("requirement", {"kind": []}, "BAD_TYPE: requirement field 'kind' has the wrong type"),
        ("source", {"kind": "legalBased"}, "BAD_ENUM: source 's' kind: 'legalBased' is not one of legal, cultural"),
        ("requirement", {"kind": "legal"},
         "BAD_ENUM: requirement 'r' kind: 'legal' is not one of legalBased, culturalBased, functional"),
        ("source", {"contentHash": None}, "BAD_TYPE: source field 'contentHash' has the wrong type"),
        ("requirement", {"text": 1}, "BAD_TYPE: requirement field 'text' has the wrong type"),
    ], ids=["derived-int", "derived-null", "derived-str", "static-1", "static-null", "source-kind-list",
            "requirement-kind-list", "source-kind-unknown", "requirement-kind-unknown", "hash-null", "text-int"])
    def test_first_fault_of_a_seven_key_record(self, role, edit, message):
        doc = _seven_key_doc(**{role: dict(_SRC7 if role == "source" else _REQ7, **edit)})
        with pytest.raises(ValidationError) as e:
            corpus_io.parse_corpus(doc)
        assert str(e.value) == message

    @pytest.mark.parametrize("role,record", [("source", _SRC7), ("requirement", _REQ7)])
    @pytest.mark.parametrize("known", ["id", "conceptKey", "contentHash", "text"])
    def test_a_known_key_swapped_for_an_unknown_one(self, role, record, known):
        swapped = {("zz" if k == known else k): v for k, v in record.items()}
        with pytest.raises(ValidationError) as e:
            corpus_io.parse_corpus(_seven_key_doc(**{role: swapped}))
        assert str(e.value) == f"UNKNOWN_FIELD: {role} has unknown field 'zz'"


_JUR = {"id": "j", "name": "J", "level": "national"}
_SRC = {"id": "s", "kind": "legal", "jurisdiction": "j", "conceptKey": "k", "text": "t"}
_REQ = {"id": "r", "kind": "legalBased", "jurisdiction": "j", "conceptKey": "k", "text": "t",
        "derivedFrom": ["s"]}
_COMP = {"id": "c", "implements": ["r"], "scope": "general"}
_CORPUS = {"formatVersion": 1, "jurisdictions": [_JUR], "sources": [_SRC], "requirements": [_REQ],
           "relations": {}, "components": [_COMP]}
_OP = {"op": "modify", "target": "r", "payload": {"text": "x"}}
_CHANGES = {"formatVersion": 1, "label": "l", "ops": [_OP]}
_ALT = {"id": "a", "satisfies": {}}
_ALTS = {"formatVersion": 1, "alternatives": [_ALT], "weights": {}}

#: record kind -> (parser, the document holding one record, a valid record,
#: its required and its optional fields in schema order, each mapped to a
#: wrongly typed value)
RECORD_SCHEMAS = {
    "corpus document": (corpus_io.parse_corpus, lambda rec: rec, _CORPUS,
                        {"formatVersion": "1", "jurisdictions": {}},
                        {"sources": {}, "requirements": {}, "relations": [], "components": {}}),
    "jurisdiction": (corpus_io.parse_corpus, lambda rec: dict(_CORPUS, jurisdictions=[rec]), _JUR,
                     {"id": 1, "name": 1, "level": 1}, {"parent": 1}),
    "source": (corpus_io.parse_corpus, lambda rec: dict(_CORPUS, sources=[rec]), _SRC,
               {"id": 1, "kind": 1, "jurisdiction": 1, "conceptKey": 1, "text": 1},
               {"contentHash": 1, "isStatic": "yes"}),
    "requirement": (corpus_io.parse_corpus, lambda rec: dict(_CORPUS, requirements=[rec]), _REQ,
                    {"id": 1, "kind": 1, "jurisdiction": 1, "conceptKey": 1, "text": 1},
                    {"contentHash": 1, "derivedFrom": "s"}),
    "relations": (corpus_io.parse_corpus, lambda rec: dict(_CORPUS, relations=rec), {},
                  {}, {"refines": {}, "contradicts": {}}),
    "component": (corpus_io.parse_corpus, lambda rec: dict(_CORPUS, components=[rec]), _COMP,
                  {"id": 1, "implements": "r", "scope": 1}, {"jurisdiction": 1}),
    "change set": (corpus_io.parse_change_set, lambda rec: rec, _CHANGES,
                   {"formatVersion": "1", "label": 1, "ops": {}}, {}),
    "change op": (corpus_io.parse_change_set, lambda rec: dict(_CHANGES, ops=[rec]), _OP,
                  {"op": 1, "target": 1}, {"payload": [], "adoptedBy": "j"}),
    "modify payload": (corpus_io.parse_change_set,
                       lambda rec: dict(_CHANGES, ops=[dict(_OP, payload=rec)]), {"text": "x"},
                       {}, {"text": 1, "conceptKey": 1}),
    "alternatives file": (corpus_io.parse_alternatives, lambda rec: rec, _ALTS,
                          {"formatVersion": "1", "alternatives": {}}, {"weights": []}),
    "alternative": (corpus_io.parse_alternatives, lambda rec: dict(_ALTS, alternatives=[rec]), _ALT,
                    {"id": 1, "satisfies": []}, {}),
}


def _precedence_cases():
    """(kind, record, code, field) cases with several schema faults at once.

    Apart from the unknown-key case the record's keys are reversed, so the
    expected field follows the schema order, not the record order.
    """
    for kind, (_, _, valid, required, optional) in RECORD_SCHEMAS.items():
        tag = kind.replace(" ", "-")
        req, fields = list(required), [*required, *optional]
        wrong = {**required, **optional}

        def record(drop=(), retype=()):
            out = {k: v for k, v in valid.items() if k not in drop}
            out.update({k: wrong[k] for k in retype})
            return dict(reversed(out.items()))

        unknown = {k: v for k, v in valid.items() if k not in req[:1]}
        unknown.update({fields[-1]: wrong[fields[-1]], "zz": 0, "aa": 0})
        yield pytest.param(kind, unknown, "UNKNOWN_FIELD", "zz", id=f"{tag}-unknown-missing-wrong")
        if len(req) >= 2:
            yield pytest.param(kind, record(drop=req[:1], retype=req[-1:]), "MISSING_FIELD", req[0],
                               id=f"{tag}-missing-then-wrong")
            yield pytest.param(kind, record(drop=req[-1:], retype=req[:1]), "BAD_TYPE", req[0],
                               id=f"{tag}-wrong-then-missing")
        if req and optional:
            yield pytest.param(kind, record(drop=req[-1:], retype=list(optional)[:1]), "MISSING_FIELD",
                               req[-1], id=f"{tag}-missing-required-wrong-optional")
        if len(fields) >= 2:
            yield pytest.param(kind, record(retype=(fields[-1], fields[0])), "BAD_TYPE", fields[0],
                               id=f"{tag}-two-wrong")
        flag = next((k for k in fields if type(valid.get(k)) is int), fields[0])
        yield pytest.param(kind, {**valid, flag: True}, "BAD_TYPE", flag, id=f"{tag}-true-in-{flag}")


@pytest.mark.parametrize("kind,record,code,field", _precedence_cases())
def test_first_schema_error_of_each_record_kind(kind, record, code, field):
    parse, place, valid, _, _ = RECORD_SCHEMAS[kind]
    parse(place(valid))
    with pytest.raises(ValidationError) as e:
        parse(place(record))
    assert e.value.code == code and f"field {field!r}" in str(e.value)

from dataclasses import replace

import pytest

from oracles import scratch_apply_change_set
from reqlattice import model
from reqlattice.changes import (
    CASE_GEN_SPLITS,
    CASE_GEN_STAYS_GEN,
    CASE_SOURCE_CHANGE,
    CASE_SPEC_STAYS_SPEC,
    CASE_SPEC_TO_GENERAL,
    apply_change_set,
    reuse_hints,
)
from reqlattice.corpus_io import ChangeOp, ChangePayload, ChangeSet
from reqlattice.errors import CycleError, MissingAdoptedByError, ValidationError
from reqlattice.model import (
    Component,
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
    SourceItem,
    SourceKind,
)
from reqlattice.partition import partition_requirements


def jur(i):
    return Jurisdiction(id=i, name=i, level=Level.NATIONAL)


def req(i, jurisdiction, key, text, kind=RequirementKind.LEGAL_BASED):
    return Requirement(id=i, kind=kind, jurisdiction=jurisdiction, concept_key=key,
                       text=text, content_hash=model.content_hash(text))


def three_country_corpus():
    """concept 'pay' identical in s2/s3, different in s1; concept 'ui' general."""
    reqs = [
        req("r1-pay", "s1", "pay", "pay net thirty"),
        req("r2-pay", "s2", "pay", "pay net fourteen"),
        req("r3-pay", "s3", "pay", "pay net fourteen"),
        req("r1-ui", "s1", "ui", "blue theme"),
        req("r2-ui", "s2", "ui", "blue theme"),
        req("r3-ui", "s3", "ui", "blue theme"),
    ]
    comps = [
        Component("c2-pay", frozenset({"r2-pay"}), jurisdiction="s2"),
        Component("c3-pay", frozenset({"r3-pay"}), jurisdiction="s3"),
        Component("c-ui", frozenset({"r1-ui", "r2-ui", "r3-ui"}), jurisdiction=None),
    ]
    corpus = Corpus(
        jurisdictions=(jur("s1"), jur("s2"), jur("s3")),
        sources=(), requirements=tuple(reqs), components=tuple(comps),
    )
    model.validate_corpus(corpus)
    return corpus


def change_set(*ops, label="t"):
    return ChangeSet(label=label, ops=tuple(ops))


def modify(target, text, adopted_by=None):
    return ChangeOp(op="modify", target=target, payload=ChangePayload(text=text),
                    adopted_by=frozenset(adopted_by) if adopted_by else None)


class TestClassifyChange:
    def test_1b_promotion_with_reuse(self):
        corpus = three_country_corpus()
        new, report = apply_change_set(corpus, change_set(modify("r1-pay", "pay net fourteen")))
        rec = report.per_op[0]
        assert rec.case_code == CASE_SPEC_TO_GENERAL
        assert {h.via_requirement for h in rec.reuse} == {"r2-pay", "r3-pay"}
        moved = {m.item_id: (m.from_set, m.to_set) for m in rec.migrations}
        assert moved["r1-pay"] == ("specific:s1", "general")
        assert ("c2-pay", "reusable") in rec.component_impact
        assert ("c3-pay", "reusable") in rec.component_impact
        # the promoted concept really lands in the general set
        part = partition_requirements(new, RequirementKind.LEGAL_BASED)
        assert "pay" in part.general_concepts

    def test_1a_no_counterpart_identity(self):
        corpus = three_country_corpus()
        new, report = apply_change_set(corpus, change_set(modify("r1-pay", "pay net ninety")))
        rec = report.per_op[0]
        assert rec.case_code == CASE_SPEC_STAYS_SPEC
        assert rec.affected == {"s1"}
        part = partition_requirements(new, RequirementKind.LEGAL_BASED)
        assert part.owner_of("r1-pay") == "s1"

    def test_2a_all_adopt(self):
        corpus = three_country_corpus()
        new, report = apply_change_set(
            corpus, change_set(modify("r2-ui", "green theme", adopted_by=["s1", "s2", "s3"])))
        rec = report.per_op[0]
        assert rec.case_code == CASE_GEN_STAYS_GEN
        assert rec.affected == {"s1", "s2", "s3"}
        part = partition_requirements(new, RequirementKind.LEGAL_BASED)
        assert "ui" in part.general_concepts
        assert all(r.text == "green theme" for r in new.requirements if r.concept_key == "ui")

    def test_2b_split(self):
        corpus = three_country_corpus()
        new, report = apply_change_set(
            corpus, change_set(modify("r2-ui", "green theme", adopted_by=["s2"])))
        rec = report.per_op[0]
        assert rec.case_code == CASE_GEN_SPLITS
        assert rec.affected == {"s2"}
        # c-ui implements the adopter's requirement and both keepers': listed
        # once, and it must change because one of its requirements does
        assert rec.component_impact == (("c-ui", "mustChange"),)
        # adopt/keep branches partition the jurisdiction set
        migrated = {m.item_id for m in rec.migrations}
        assert migrated == {"r1-ui", "r2-ui", "r3-ui"}
        part = partition_requirements(new, RequirementKind.LEGAL_BASED)
        assert "ui" not in part.general_concepts
        texts = {r.jurisdiction: r.text for r in new.requirements if r.concept_key == "ui"}
        assert texts == {"s1": "blue theme", "s2": "green theme", "s3": "blue theme"}

    def test_2b_cannot_rewrite_a_same_concept_sibling(self):
        # two s1 requirements on one concept: by_jur would keep only one of
        # them, so a 2b split of r1-ui could rewrite r1-ui-bis instead
        corpus = three_country_corpus()
        twin = replace(corpus, requirements=(*corpus.requirements, req("r1-ui-bis", "s1", "ui", "blue theme")))
        with pytest.raises(ValidationError) as exc:
            apply_change_set(twin, change_set(modify("r1-ui", "green theme", adopted_by=["s1"])))
        assert exc.value.code == "DUPLICATE_CONCEPT"

    def test_modify_general_without_adopted_by(self):
        corpus = three_country_corpus()
        with pytest.raises(MissingAdoptedByError):
            apply_change_set(corpus, change_set(modify("r2-ui", "green theme")))

    def test_unknown_target(self):
        corpus = three_country_corpus()
        with pytest.raises(ValidationError) as exc:
            apply_change_set(corpus, change_set(modify("ghost", "x")))
        assert exc.value.code == "UNKNOWN_TARGET"


class TestApplyChangeSet:
    def test_empty_change_set(self):
        corpus = three_country_corpus()
        new, report = apply_change_set(corpus, change_set())
        assert new == corpus and report.per_op == ()
        assert model.corpus_fingerprint(new) == model.corpus_fingerprint(corpus)

    def test_modify_conserves_requirement_count(self):
        corpus = three_country_corpus()
        new, _ = apply_change_set(corpus, change_set(modify("r1-pay", "whatever")))
        assert len(new.requirements) == len(corpus.requirements)

    def test_sequential_recompute(self):
        # op1 promotes 'pay' to general; op2 then needs adoptedBy for it
        corpus = three_country_corpus()
        with pytest.raises(MissingAdoptedByError):
            apply_change_set(corpus, change_set(
                modify("r1-pay", "pay net fourteen"),
                modify("r2-pay", "pay net ninety"),
            ))
        new, report = apply_change_set(corpus, change_set(
            modify("r1-pay", "pay net fourteen"),
            modify("r2-pay", "pay net ninety", adopted_by=["s2"]),
        ))
        assert [r.case_code for r in report.per_op] == [CASE_SPEC_TO_GENERAL, CASE_GEN_SPLITS]

    def test_add_and_remove(self):
        corpus = three_country_corpus()
        add = ChangeOp(op="add", target="r1-new",
                       payload=req("r1-new", "s1", "newkey", "brand new", kind=RequirementKind.FUNCTIONAL))
        remove = ChangeOp(op="remove", target="r1-pay")
        new, report = apply_change_set(corpus, change_set(add, remove))
        assert [r.case_code for r in report.per_op] == ["ADD", "REMOVE"]
        ids = {r.id for r in new.requirements}
        assert "r1-new" in ids and "r1-pay" not in ids

    def test_a_change_set_builds_one_corpus(self, monkeypatch):
        corpus = three_country_corpus()
        built = []
        post_init = Corpus.__post_init__
        monkeypatch.setattr(Corpus, "__post_init__", lambda self: built.append(self) or post_init(self))
        add = ChangeOp(op="add", target="r1-new",
                       payload=req("r1-new", "s1", "newkey", "brand new", kind=RequirementKind.FUNCTIONAL))
        new, _ = apply_change_set(corpus, change_set(
            modify("r1-pay", "pay net fourteen"), add, ChangeOp(op="remove", target="r3-ui")))
        assert len(built) == 1 and built[0] is new

    def test_remove_prunes_relations_and_components(self):
        corpus = three_country_corpus()
        corpus = Corpus(
            jurisdictions=corpus.jurisdictions, sources=corpus.sources,
            requirements=corpus.requirements,
            relations=RelationSet(contradicts=frozenset({("r1-pay", "r2-pay")})),
            components=corpus.components,
        )
        new, _ = apply_change_set(corpus, change_set(ChangeOp(op="remove", target="r2-pay")))
        assert new.relations.contradicts == frozenset()
        comp = next(c for c in new.components if c.id == "c2-pay")
        assert comp.implements == frozenset()

    def test_remove_keeps_untouched_components(self):
        corpus = three_country_corpus()
        new, _ = apply_change_set(corpus, change_set(ChangeOp(op="remove", target="r2-pay")))
        kept = {c.id: c for c in corpus.components}
        for comp in new.components:
            if comp.id == "c2-pay":
                assert comp.implements == frozenset() and comp is not kept[comp.id]
            else:
                assert comp is kept[comp.id]

    def test_atomic_failure_leaves_input_untouched(self):
        corpus = three_country_corpus()
        before = model.corpus_fingerprint(corpus)
        with pytest.raises(ValidationError):
            apply_change_set(corpus, change_set(
                modify("r1-pay", "fine"),
                # a second 'pay' requirement in s1 fails DUPLICATE_CONCEPT
                ChangeOp(op="add", target="r1-pay2", payload=req("r1-pay2", "s1", "pay", "pay at once")),
            ))
        assert model.corpus_fingerprint(corpus) == before

    def test_refines_cycle_in_input_rejected(self):
        corpus = three_country_corpus()
        cyclic = replace(corpus, relations=RelationSet(
            refines=frozenset({("r1-ui", "r1-pay"), ("r1-pay", "r1-ui")})))
        with pytest.raises(CycleError):
            apply_change_set(cyclic, change_set(modify("r2-pay", "pay net ninety")))

    def test_source_modify_reported_without_case(self, worked_example):
        cs = change_set(modify("src-de-retention", "records kept for nine years"))
        new, report = apply_change_set(worked_example, cs)
        rec = report.per_op[0]
        assert rec.case_code == CASE_SOURCE_CHANGE
        assert rec.affected == {"de"}
        # the dependent requirement's component is flagged
        assert ("comp-de-retention", "mustChange") in rec.component_impact

    def test_worked_example_change_file(self, worked_example, change_set_path):
        from reqlattice import corpus_io
        cs = corpus_io.load_change_set(change_set_path, worked_example)
        new, report = apply_change_set(worked_example, cs)
        assert [r.case_code for r in report.per_op] == [CASE_SPEC_TO_GENERAL, CASE_GEN_SPLITS]
        # final partition equals a from-scratch recompute on the output corpus
        part = partition_requirements(new, RequirementKind.LEGAL_BASED)
        assert "retention-period" in part.general_concepts
        assert "consent-capture" not in part.general_concepts
        assert part.owner_of("req-de-consent") == "de"
        assert part.owner_of("req-fr-consent") == "fr"


def source_tree_corpus():
    """Nation n > state st > org o, and nation m. A legal source of n is
    elaborated at n, st and o; a cultural source of n only at o."""
    def source(i, kind):
        return SourceItem(id=i, kind=kind, jurisdiction="n", concept_key=i, text=i,
                          content_hash=model.content_hash(i), is_static=False)

    def derived(i, jurisdiction, sid, kind=RequirementKind.LEGAL_BASED):
        return replace(req(i, jurisdiction, "k", i, kind), derived_from=frozenset({sid}))

    corpus = Corpus(
        jurisdictions=(jur("n"), jur("m"), Jurisdiction("st", "st", Level.STATE, parent="n"),
                       Jurisdiction("o", "o", Level.ORGANISATIONAL, parent="st")),
        sources=(source("s-law", SourceKind.LEGAL), source("s-custom", SourceKind.CULTURAL)),
        requirements=(derived("r-st", "st", "s-law"), derived("r-o", "o", "s-law"), derived("r-n", "n", "s-law"),
                      derived("r-o-custom", "o", "s-custom", RequirementKind.CULTURAL_BASED),
                      req("r-m", "m", "k", "r-m")),
        components=tuple(Component(f"c-{r}", frozenset({f"r-{r}"}), jurisdiction=r) for r in ("n", "m", "o", "st")),
    )
    model.validate_corpus(corpus)
    return corpus


class TestSourceOpsReachDerivationsBelow:
    """Source modifies and removals find the requirements deriving from the
    source at its jurisdiction and every jurisdiction below it."""

    def test_source_modify_flags_every_level_in_requirement_order(self):
        corpus = source_tree_corpus()
        cs = change_set(modify("s-law", "a new law"))
        new, report = apply_change_set(corpus, cs)
        assert report.per_op[0].component_impact == (("c-n", "mustChange"), ("c-o", "mustChange"),
                                                     ("c-st", "mustChange"))
        want, want_report = scratch_apply_change_set(corpus, cs)
        assert new == want and report.per_op == want_report.per_op

    def test_source_removal_rejects_a_derivation_two_levels_below(self):
        corpus = source_tree_corpus()
        cs = change_set(ChangeOp(op="remove", target="s-custom"))
        for apply in (apply_change_set, scratch_apply_change_set):
            with pytest.raises(ValidationError) as err:
                apply(corpus, cs)
            assert (err.value.code, err.value.item_id) == ("DANGLING_REF", "r-o-custom")


class TestReuseHints:
    def test_hint_for_promoted_counterpart(self):
        corpus = three_country_corpus()
        _, report = apply_change_set(corpus, change_set(modify("r1-pay", "pay net fourteen")))
        hints = reuse_hints(report)
        assert [(h.component_id, h.for_jurisdiction) for h in hints] == [
            ("c2-pay", "s1"), ("c3-pay", "s1")]

    def test_no_hints_for_1a(self):
        corpus = three_country_corpus()
        _, report = apply_change_set(corpus, change_set(modify("r1-pay", "pay net ninety")))
        assert reuse_hints(report) == []

    def test_multi_op_hints_union(self, worked_example, change_set_path):
        from reqlattice import corpus_io
        cs = corpus_io.load_change_set(change_set_path, worked_example)
        _, report = apply_change_set(worked_example, cs)
        hints = reuse_hints(report)
        assert [(h.component_id, h.via_requirement) for h in hints] == [
            ("comp-fr-retention", "req-fr-retention")]

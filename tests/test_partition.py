import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    level_view,
    per_concept_partition,
    random_corpus,
    random_forest,
    random_tree_corpus,
    specific_contradiction_condition,
)
from reqlattice import cli, corpus_io, hierarchy, model, partition
from reqlattice.errors import PartitionMismatchError
from reqlattice.model import (
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
    SourceItem,
    SourceKind,
)
from reqlattice.partition import (
    ScenarioOption,
    check_elaboration,
    check_specific_contradiction_condition,
    classify_scenario,
    partition_requirements,
    partition_sources,
)


def jur(i):
    return Jurisdiction(id=i, name=i, level=Level.NATIONAL)


def src(i, jurisdiction, key, text, kind=SourceKind.LEGAL):
    return SourceItem(id=i, kind=kind, jurisdiction=jurisdiction, concept_key=key,
                      text=text, content_hash=model.content_hash(text), is_static=False)


def req(i, jurisdiction, key, text, kind=RequirementKind.LEGAL_BASED, derived=()):
    return Requirement(id=i, kind=kind, jurisdiction=jurisdiction, concept_key=key,
                       text=text, content_hash=model.content_hash(text),
                       derived_from=frozenset(derived))


def make(jurisdictions, sources=(), requirements=(), relations=None):
    corpus = Corpus(
        jurisdictions=tuple(jurisdictions),
        sources=tuple(sources),
        requirements=tuple(requirements),
        relations=relations or RelationSet(),
    )
    model.validate_corpus(corpus)
    return corpus


def flat_partitions(corpus):
    """Every per-kind flat partition, keyed by kind value, as ``partition`` builds them."""
    return cli._level_partitions(corpus, None, (SourceKind, RequirementKind))


def assert_disjoint_cover(part, expected_ids):
    buckets = [part.general, *part.specific.values()]
    union = set()
    for bucket in buckets:
        assert not union & bucket
        union |= bucket
    assert union == set(expected_ids)


class TestPartitionSources:
    def test_shared_concept_is_general(self):
        corpus = make([jur("a"), jur("b")],
                      sources=[src("s1", "a", "consent", "Same text."),
                               src("s2", "b", "consent", "same  TEXT.")])
        part = partition_sources(corpus, SourceKind.LEGAL)
        assert part.general == {"s1", "s2"}
        assert part.general_concepts == {"consent": frozenset({"s1", "s2"})}

    def test_differing_hashes_are_specific(self):
        corpus = make([jur("a"), jur("b")],
                      sources=[src("s1", "a", "retention", "ten years"),
                               src("s2", "b", "retention", "five years")])
        part = partition_sources(corpus, SourceKind.LEGAL)
        assert part.general == frozenset()
        assert part.specific["a"] == {"s1"} and part.specific["b"] == {"s2"}

    def test_concept_missing_somewhere_is_specific(self):
        corpus = make([jur("a"), jur("b")],
                      sources=[src("s1", "a", "consent", "t")])
        part = partition_sources(corpus, SourceKind.LEGAL)
        assert part.general == frozenset() and part.specific["a"] == {"s1"}

    def test_matches_per_concept_oracle_on_random_corpora(self):
        rng = random.Random(20240820)
        for _ in range(40):
            corpus = random_corpus(rng, max_jurisdictions=3, max_concepts=5)
            for kind in SourceKind:
                part = partition_sources(corpus, kind)
                view = partition.flat_view(corpus, kind)
                general, specific = per_concept_partition(view)
                assert set(part.general) == general
                assert {j: set(v) for j, v in part.specific.items()} == specific

    def test_single_jurisdiction_everything_general(self):
        corpus = make([jur("a")], sources=[src("s1", "a", "k1", "t1"),
                                           src("s2", "a", "k2", "t2")])
        part = partition_sources(corpus, SourceKind.LEGAL)
        assert part.general == {"s1", "s2"}
        assert not any(part.specific.values())


class TestPartitionRequirements:
    def test_shared_functional_requirement_general(self):
        corpus = make([jur("a"), jur("b")],
                      requirements=[req("r1", "a", "audit", "log it", RequirementKind.FUNCTIONAL),
                                    req("r2", "b", "audit", "log it", RequirementKind.FUNCTIONAL)])
        part = partition_requirements(corpus, RequirementKind.FUNCTIONAL)
        assert part.general == {"r1", "r2"}

    def test_lone_legal_requirement_specific(self):
        corpus = make([jur("a"), jur("b")],
                      requirements=[req("r1", "a", "k", "t")])
        part = partition_requirements(corpus, RequirementKind.LEGAL_BASED)
        assert part.specific["a"] == {"r1"}

    def test_matches_oracle_and_disjoint_cover(self):
        rng = random.Random(20240821)
        for _ in range(40):
            corpus = random_corpus(rng, max_jurisdictions=3, max_concepts=6)
            for kind in RequirementKind:
                part = partition_requirements(corpus, kind)
                view = partition.flat_view(corpus, kind)
                general, specific = per_concept_partition(view)
                assert set(part.general) == general
                assert {j: set(v) for j, v in part.specific.items()} == specific
                assert_disjoint_cover(part, {r.id for r in corpus.requirements if r.kind is kind})

    def test_permutation_invariance_of_general_concepts(self):
        rng = random.Random(4)
        corpus = random_corpus(rng, max_jurisdictions=4, max_concepts=8)
        renamed = Corpus(
            jurisdictions=tuple(replace(j, id="z" + j.id) for j in corpus.jurisdictions),
            sources=tuple(s._replace(jurisdiction="z" + s.jurisdiction) for s in corpus.sources),
            requirements=tuple(r._replace(jurisdiction="z" + r.jurisdiction) for r in corpus.requirements),
            relations=corpus.relations,
        )
        for kind in RequirementKind:
            a = partition_requirements(corpus, kind)
            b = partition_requirements(renamed, kind)
            assert set(a.general_concepts) == set(b.general_concepts)

    def test_removing_a_jurisdiction_never_shrinks_general_concepts(self):
        rng = random.Random(11)
        for _ in range(10):
            corpus = random_corpus(rng, max_jurisdictions=4, max_concepts=6)
            if len(corpus.jurisdictions) < 2:
                continue
            drop = corpus.jurisdictions[-1].id
            smaller = Corpus(
                jurisdictions=tuple(j for j in corpus.jurisdictions if j.id != drop),
                sources=tuple(s for s in corpus.sources if s.jurisdiction != drop),
                requirements=tuple(r for r in corpus.requirements if r.jurisdiction != drop),
                relations=RelationSet(),
            )
            for kind in RequirementKind:
                before = set(partition_requirements(corpus, kind).general_concepts)
                after = set(partition_requirements(smaller, kind).general_concepts)
                assert before <= after


class TestCheckElaboration:
    def _corpus(self):
        return make(
            [jur("a"), jur("b")],
            sources=[src("sg-a", "a", "shared", "common law"),
                     src("sg-b", "b", "shared", "common law"),
                     src("ss-a", "a", "own", "local law")],
            requirements=[
                req("rg-a", "a", "rshared", "do common", derived=["sg-a"]),
                req("rg-b", "b", "rshared", "do common", derived=["sg-b"]),
                req("rs-a", "a", "rown", "do local", derived=["ss-a"]),
            ],
        )

    def _findings(self, corpus):
        return check_elaboration(corpus, flat_partitions(corpus))

    def test_clean_discipline(self):
        assert self._findings(self._corpus()) == []

    def test_general_requirement_with_specific_source(self):
        corpus = self._corpus()
        bad = make(
            corpus.jurisdictions,
            sources=corpus.sources,
            requirements=[r if r.id != "rg-a" else r._replace(derived_from=frozenset({"sg-a", "ss-a"}))
                          for r in corpus.requirements],
        )
        codes = [f.code for f in self._findings(bad)]
        assert "GENERAL_REQ_SPECIFIC_SOURCE" in codes

    def test_specific_requirement_without_specific_source_warns(self):
        corpus = self._corpus()
        bad = make(
            corpus.jurisdictions,
            sources=corpus.sources,
            requirements=[r if r.id != "rs-a" else r._replace(derived_from=frozenset({"sg-a"}))
                          for r in corpus.requirements],
        )
        findings = self._findings(bad)
        assert [(f.code, f.severity) for f in findings] == [
            ("SPECIFIC_REQ_NO_SPECIFIC_SOURCE", "warning")]

    def test_foreign_source_is_error(self):
        # b's specific requirement elaborated from a's specific source
        corpus = make(
            [jur("a"), jur("b")],
            sources=[src("ss-a", "a", "own", "local law"),
                     src("ss-b", "b", "own2", "other law")],
            requirements=[req("rs-b", "b", "rown", "do local", derived=["ss-b"])],
        )
        # swap the derivation to the foreign source at the record level,
        # bypassing corpus validation on purpose
        broken = Corpus(
            jurisdictions=corpus.jurisdictions,
            sources=corpus.sources,
            requirements=(corpus.requirements[0]._replace(derived_from=frozenset({"ss-a"})),),
        )
        findings = check_elaboration(broken, flat_partitions(broken))
        assert "SPECIFIC_REQ_FOREIGN_SOURCE" in [f.code for f in findings]

    def test_partitions_of_equal_corpus_accepted(self, worked_example_path):
        # loaded twice: equal values, distinct objects
        c1 = corpus_io.load_corpus(worked_example_path)
        c2 = corpus_io.load_corpus(worked_example_path)
        assert c1 == c2 and c1 is not c2
        parts = flat_partitions(c1)
        assert check_elaboration(c2, parts) == check_elaboration(c1, parts)

    def test_partition_from_other_corpus_rejected(self):
        c1 = self._corpus()
        c2 = make([jur("a")])
        with pytest.raises(PartitionMismatchError):
            check_elaboration(c2, flat_partitions(c1))


class TestLevelPartitionOwner:
    """At a level frontier an inherited item sits in several buckets; the
    first frontier node in ``specific`` order owns it."""

    def _parts(self):
        corpus = make(
            [jur("nat"),
             Jurisdiction("st-a", "st-a", Level.STATE, "nat"),
             Jurisdiction("st-b", "st-b", Level.STATE, "nat"),
             Jurisdiction("org-1", "org-1", Level.ORGANISATIONAL, "st-a"),
             Jurisdiction("org-2", "org-2", Level.ORGANISATIONAL, "st-a"),
             Jurisdiction("org-3", "org-3", Level.ORGANISATIONAL, "st-b")],
            sources=[src("s-nat", "nat", "national-law", "national law")],
            requirements=[req("r-st", "st-a", "state-rule", "state rule", derived=["s-nat"])],
        )
        frontier = hierarchy.select_level(corpus, Level.ORGANISATIONAL)
        req_reads = hierarchy.level_requirement_view(corpus, frontier)
        source_reads = hierarchy.level_source_view(corpus, frontier)
        return corpus, {
            **{k.value: partition_sources(corpus, k, None, source_reads) for k in SourceKind},
            **{k.value: partition_requirements(corpus, k, None, req_reads) for k in RequirementKind},
        }

    def test_inherited_item_owned_by_first_frontier_node(self):
        _corpus, parts = self._parts()
        part = parts[RequirementKind.LEGAL_BASED.value]
        assert [jid for jid, ids in part.specific.items() if "r-st" in ids] == ["org-1", "org-2"]
        assert part.owner_of("r-st") == "org-1"

    def test_elaboration_messages_name_first_frontier_node(self):
        corpus, parts = self._parts()
        findings = check_elaboration(corpus, parts)
        assert [(f.code, f.message) for f in findings] == [(
            "SPECIFIC_REQ_NO_SPECIFIC_SOURCE",
            "specific requirement 'r-st' uses no source specific to 'org-1'",
        )]


def test_elaboration_skips_requirements_the_level_view_leaves_out():
    # nat-b has no organisational node, so no org bucket holds r-b
    corpus = make(
        [jur("nat-a"), jur("nat-b"),
         Jurisdiction("org-1", "org-1", Level.ORGANISATIONAL, "nat-a"),
         Jurisdiction("org-2", "org-2", Level.ORGANISATIONAL, "nat-a")],
        sources=[src("s-a", "nat-a", "law-a", "law a"), src("s-b", "nat-b", "law-b", "law b")],
        requirements=[req("r-org", "org-1", "rule", "rule", derived=["s-a"]),
                      req("r-b", "nat-b", "rule-b", "rule b", derived=["s-b"])],
    )
    parts = cli._level_partitions(corpus, "org", (SourceKind, RequirementKind))
    assert [(f.code, f.message) for f in check_elaboration(corpus, parts)] == [(
        "SPECIFIC_REQ_NO_SPECIFIC_SOURCE",
        "specific requirement 'r-org' uses no source specific to 'org-1'",
    )]


class TestSpecificContradictionCondition:
    def test_cross_contradiction_silences_warning(self):
        corpus = make(
            [jur("a"), jur("b")],
            sources=[src("x", "a", "k", "ten years"), src("y", "b", "k", "five years")],
            relations=RelationSet(contradicts=frozenset({("x", "y")})),
        )
        part = partition_sources(corpus, SourceKind.LEGAL)
        assert check_specific_contradiction_condition(corpus, part) == []

    def test_uncontradicted_specific_item_warns(self):
        corpus = make([jur("a"), jur("b")],
                      sources=[src("x", "a", "k", "only here")])
        part = partition_sources(corpus, SourceKind.LEGAL)
        findings = check_specific_contradiction_condition(corpus, part)
        assert [f.code for f in findings] == ["NO_CROSS_CONTRADICTION"]
        assert findings[0].item_id == "x"

    def test_derived_contradiction_counts(self):
        # x2 refines x; only x is declared contradicting y
        corpus = make(
            [jur("a"), jur("b")],
            sources=[src("x", "a", "k1", "v1"), src("x2", "a", "k2", "v2"),
                     src("y", "b", "k3", "v3")],
            relations=RelationSet(refines=frozenset({("x2", "x")}),
                                  contradicts=frozenset({("x", "y")})),
        )
        part = partition_sources(corpus, SourceKind.LEGAL)
        assert check_specific_contradiction_condition(corpus, part) == []


    def test_several_parts_concatenate_single_results(self):
        corpus = make(
            [jur("a"), jur("b")],
            sources=[src("x", "a", "k1", "v1"), src("y", "b", "k2", "v2"), src("z", "b", "k3", "v3"),
                     src("c", "a", "k1", "c1", SourceKind.CULTURAL),
                     src("d", "b", "k1", "d1", SourceKind.CULTURAL)],
            relations=RelationSet(contradicts=frozenset({("x", "y")})),
        )
        legal = partition_sources(corpus, SourceKind.LEGAL)
        cultural = partition_sources(corpus, SourceKind.CULTURAL)
        both = check_specific_contradiction_condition(corpus, legal, cultural)
        assert both == (check_specific_contradiction_condition(corpus, legal)
                        + check_specific_contradiction_condition(corpus, cultural))
        assert [f.item_id for f in both] == ["z", "c", "d"]

    def test_partition_from_other_corpus_rejected(self, worked_example_path):
        # as check_elaboration does: the relations are one corpus's, the buckets another's
        corpus = corpus_io.load_corpus(worked_example_path)
        other = replace(corpus, sources=corpus.sources[1:])
        parts = [partition_sources(other, kind) for kind in SourceKind]
        with pytest.raises(PartitionMismatchError):
            check_elaboration(corpus, {p.kind: p for p in parts})
        with pytest.raises(PartitionMismatchError):
            check_specific_contradiction_condition(corpus, *parts)
        assert check_specific_contradiction_condition(other, *parts) == specific_contradiction_condition(other, *parts)

    def test_inherited_partner_held_elsewhere_counts(self):
        # at --level org, x of nat-a sits in two of three org buckets; y of org-2
        # contradicts it, so y passes (org-1 holds x) and x passes only in org-1's bucket
        corpus = make(
            [jur("nat-a"), jur("nat-b"), Jurisdiction("org-1", "org-1", Level.ORGANISATIONAL, "nat-a"),
             Jurisdiction("org-2", "org-2", Level.ORGANISATIONAL, "nat-a"),
             Jurisdiction("org-3", "org-3", Level.ORGANISATIONAL, "nat-b")],
            sources=[src("x", "nat-a", "k1", "v1"), src("y", "org-2", "k2", "v2")],
            relations=RelationSet(contradicts=frozenset({("x", "y")})),
        )
        parts = cli._level_partitions(corpus, "org", (SourceKind,))
        findings = check_specific_contradiction_condition(corpus, parts[SourceKind.LEGAL.value])
        assert [f.message for f in findings] == ["specific item 'x' of 'org-2' contradicts nothing in any other jurisdiction"]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_level_partitions_read_each_node_as_a_set(seed):
    # the order of what a node reads carries no meaning: shuffling each
    # jurisdiction's items and each node's ancestors changes nothing
    rng = random.Random(seed)
    corpus = random_tree_corpus(rng)
    for level in (None, *Level):
        frontier = None if level is None else hierarchy.select_level(corpus, level)
        reads = {SourceKind: None, RequirementKind: None} if level is None else {
            SourceKind: hierarchy.level_source_view(corpus, frontier),
            RequirementKind: hierarchy.level_requirement_view(corpus, frontier)}
        results = []
        for shuffled in (False, True):
            parts = {}
            for kind in (*SourceKind, *RequirementKind):
                view, kind_reads = None, reads[type(kind)]
                if shuffled:
                    view = {jid: rng.sample(items, len(items)) for jid, items in partition.flat_view(corpus, kind).items()}
                    if kind_reads is not None:
                        kind_reads = {node: ((chain[0], *rng.sample(chain[1:], len(chain) - 1)), ids)
                                      for node, (chain, ids) in kind_reads.items()}
                build = partition_sources if isinstance(kind, SourceKind) else partition_requirements
                parts[kind.value] = build(corpus, kind, view, kind_reads)
            results.append(([(p.general, list(p.specific.items()), p.general_concepts) for p in parts.values()],
                            check_elaboration(corpus, parts),
                            check_specific_contradiction_condition(corpus, *parts.values())))
        assert results[0] == results[1]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_level_partitions_match_the_oracle_over_materialised_views(seed):
    # each frontier node's items materialised from the definition (effective
    # sets by closure, sources along the parent links), then split per concept
    corpus = random_forest(random.Random(seed))
    for flag in (None, *cli._LEVEL_FLAG):
        parts = cli._level_partitions(corpus, flag, (SourceKind, RequirementKind))
        for kind in (*SourceKind, *RequirementKind):
            view = level_view(corpus, cli._LEVEL_FLAG.get(flag), kind)
            general, specific = per_concept_partition(view)
            part = parts[kind.value]
            assert (set(part.general), list(part.specific)) == (general, list(view))
            assert {node: set(ids) for node, ids in part.specific.items()} == specific
            concepts: dict = {}
            for item_id in general:
                concepts.setdefault(corpus.by_id[item_id].concept_key, set()).add(item_id)
            assert part.general_concepts == concepts
            # the first bucket in frontier order owns an item; a general or unseen one has no owner
            for item in (*corpus.sources, *corpus.requirements):
                if item.kind is kind:
                    assert part.owner_of(item.id) == next((node for node in view if item.id in specific[node]), None)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_contradiction_condition_matches_the_oracle_at_every_level(seed):
    rng = random.Random(seed)
    tree = random_tree_corpus(rng)
    # contradictions between sources too, and more of them between requirements
    by_kind: dict = {}
    for item in (*tree.sources, *tree.requirements):
        by_kind.setdefault(item.kind, []).append(item.id)
    drawn = {(a, b) for ids in by_kind.values() for a in ids for b in ids if a < b and rng.random() < 0.1}
    corpus = replace(tree, relations=replace(tree.relations, contradicts=tree.relations.contradicts | drawn))
    model.validate_corpus(corpus)
    for level in (None, "national", "state", "org"):
        parts = cli._level_partitions(corpus, level, (SourceKind, RequirementKind)).values()
        assert (check_specific_contradiction_condition(corpus, *parts)
                == specific_contradiction_condition(corpus, *parts))


class TestClassifyScenario:
    def test_identical_general(self):
        corpus = make([jur("a"), jur("b")],
                      sources=[src("s1", "a", "k", "t"), src("s2", "b", "k", "t")])
        assert classify_scenario(partition_sources(corpus, SourceKind.LEGAL)) is ScenarioOption.IDENTICAL_GENERAL

    def test_disjoint(self):
        corpus = make([jur("a"), jur("b")],
                      sources=[src("s1", "a", "k1", "t1"), src("s2", "b", "k2", "t2")])
        assert classify_scenario(partition_sources(corpus, SourceKind.LEGAL)) is ScenarioOption.DISJOINT

    def test_partial_overlap(self):
        corpus = make([jur("a"), jur("b")],
                      sources=[src("s1", "a", "k", "t"), src("s2", "b", "k", "t"),
                               src("s3", "a", "k2", "t2")])
        assert classify_scenario(partition_sources(corpus, SourceKind.LEGAL)) is ScenarioOption.PARTIAL_OVERLAP

    def test_empty_aspect(self):
        corpus = make([jur("a")])
        assert classify_scenario(partition_sources(corpus, SourceKind.CULTURAL)) is None

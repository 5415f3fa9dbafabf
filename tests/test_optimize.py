import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_maximal, brute_force_minimal, closure_optimize, random_dag, random_tree_corpus
from reqlattice import model
from reqlattice.model import (
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
)
from reqlattice.optimize import global_view, optimize
from reqlattice.relations import refinement_closure


def poset_corpus(ids, refines, contradicts=(), kind=RequirementKind.CULTURAL_BASED):
    reqs = tuple(
        Requirement(id=i, kind=kind, jurisdiction="j0", concept_key=f"k-{i}",
                    text=i, content_hash=model.content_hash(i))
        for i in sorted(ids)
    )
    corpus = Corpus(
        jurisdictions=(Jurisdiction("j0", "J0", Level.NATIONAL),),
        sources=(),
        requirements=reqs,
        relations=RelationSet(refines=frozenset(refines), contradicts=frozenset(contradicts)),
    )
    model.validate_corpus(corpus)
    return corpus


def test_stronger_version_removes_weaker():
    # two versions of one concern, r1 the stronger: only r1 survives
    corpus = poset_corpus({"r1", "r2"}, {("r1", "r2")})
    view = optimize({"r1", "r2"}, corpus, "")
    assert view.strongest == {"r1"}
    assert view.removed == {"r2": "r1"}


def test_antichain_input_unchanged():
    corpus = poset_corpus({"a", "b", "c"}, set())
    view = optimize({"a", "b", "c"}, corpus, "")
    assert view.strongest == {"a", "b", "c"} and view.removed == {}


def test_baseline_dual():
    corpus = poset_corpus({"r1", "r2"}, {("r1", "r2")})
    assert optimize({"r1", "r2"}, corpus, "").baseline == {"r2"}


def test_random_posets_match_brute_force():
    rng = random.Random(20240822)
    for _ in range(60):
        ids, edges = random_dag(rng, 10, edge_prob=0.25)
        corpus = poset_corpus(ids, edges)
        closure = set(refinement_closure(corpus.relations, ids))
        view = optimize(ids, corpus, "")
        strongest, removed, baseline = view.strongest, view.removed, view.baseline
        assert set(strongest) == brute_force_maximal(ids, closure)
        assert set(baseline) == brute_force_minimal(ids, closure)
        # soundness: strongest and removed split the input
        assert set(strongest) | set(removed) == ids
        assert not set(strongest) & set(removed)
        # every removed element is refined by its witness
        for weak, witness in removed.items():
            assert (witness, weak) in closure


def test_witness_is_lexicographically_smallest():
    corpus = poset_corpus({"a", "b", "z"}, {("z", "a"), ("b", "a")})
    assert optimize({"a", "b", "z"}, corpus, "").removed == {"a": "b"}


def test_idempotence_and_coverage():
    rng = random.Random(5)
    ids, edges = random_dag(rng, 12, edge_prob=0.3)
    corpus = poset_corpus(ids, edges)
    view = optimize(ids, corpus, "")
    strongest, baseline = view.strongest, view.baseline
    again = optimize(strongest, corpus, "")
    assert again.strongest == strongest and again.removed == {}
    assert optimize(baseline, corpus, "").baseline == baseline
    # coverage: each input element reaches some strongest / baseline element
    closure = set(refinement_closure(corpus.relations, ids))
    for e in ids:
        assert e in strongest or any((s, e) in closure for s in strongest)
        assert e in baseline or any((e, b) in closure for b in baseline)


def test_order_insensitivity():
    rng = random.Random(6)
    ids, edges = random_dag(rng, 10)
    corpus = poset_corpus(ids, edges)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    assert optimize(set(shuffled), corpus, "") == optimize(ids, corpus, "")


class TestGlobalView:
    def test_no_relations_everything_survives(self):
        corpus = poset_corpus({"a", "b"}, set())
        gv = global_view(corpus)
        assert gv.global_all.strongest == {"a", "b"}
        assert gv.global_all.baseline == {"a", "b"}
        assert gv.conflicts == []

    def test_worked_example(self, worked_example):
        gv = global_view(worked_example)
        # the single cross-jurisdiction refinement removes exactly one id
        assert gv.global_all.removed == {"req-fr-audit": "req-de-audit"}
        assert "req-fr-audit" not in gv.global_all.strongest
        assert [(c.pair, c.origin) for c in gv.conflicts] == [(("req-de-retention", "req-fr-retention"), "explicit")]

    def test_single_jurisdiction_matches_global(self):
        corpus = poset_corpus({"a", "b", "c"}, {("a", "b")})
        gv = global_view(corpus)
        local = gv.per_jurisdiction["j0"][RequirementKind.CULTURAL_BASED.value]
        assert local.strongest == gv.global_per_kind[RequirementKind.CULTURAL_BASED.value].strongest
        assert local.baseline == gv.global_per_kind[RequirementKind.CULTURAL_BASED.value].baseline



@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_every_global_view_scope_matches_its_closure(seed):
    # every view comes from one of two scoped passes, none from optimize()
    corpus = random_tree_corpus(random.Random(seed))
    gv = global_view(corpus)

    def ids(jid=None, kind=None):
        return {r.id for r in corpus.requirements if jid in (None, r.jurisdiction) and kind in (None, r.kind.value)}

    scopes = [(ids(jid, kind), view) for jid, kinds in gv.per_jurisdiction.items() for kind, view in kinds.items()]
    scopes += [(ids(kind=kind), view) for kind, view in gv.global_per_kind.items()]
    scopes.append((ids(), gv.global_all))
    assert len(scopes) == 3 * len(corpus.jurisdictions) + 4
    for scope_ids, view in scopes:
        assert (view.strongest, view.baseline, view.removed) == closure_optimize(scope_ids, corpus)

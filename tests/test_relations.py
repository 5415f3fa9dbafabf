import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fixpoint_contradictions, path_enumeration_closure, random_corpus, random_dag
from reqlattice import corpus_io, model
from reqlattice.errors import CycleError
from reqlattice.model import (
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
    SourceKind,
)
from reqlattice.optimize import global_view
from reqlattice.partition import check_specific_contradiction_condition, partition_requirements, partition_sources
from reqlattice.relations import (
    derive_contradictions,
    find_conflicts,
    refinement_closure,
)
from reqlattice.topsis import build_conflict_matrix


def rel(refines=(), contradicts=()):
    return RelationSet(refines=frozenset(refines), contradicts=frozenset(contradicts))


def recursive_cycle_witness(edges, ids):
    """Witness of a recursive depth-first search in sorted order, or None."""
    adjacency = {i: sorted(b for a, b in edges if a == i) for i in ids}
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(node):
        state[node] = "open"
        path.append(node)
        for nxt in adjacency[node]:
            if state.get(nxt) == "open":
                return path[path.index(nxt):]
            if nxt not in state and (found := visit(nxt)):
                return found
        path.pop()
        state[node] = "done"
        return None

    for start in sorted(ids):
        if start not in state and (found := visit(start)):
            return found
    return None


class TestRefinementClosure:
    def test_transitivity(self):
        got = refinement_closure(rel([("a", "b"), ("b", "c")]), {"a", "b", "c"})
        assert got == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_empty(self):
        assert refinement_closure(rel(), set()) == frozenset()

    def test_matches_path_enumeration_on_random_dags(self):
        rng = random.Random(20240817)
        for _ in range(50):
            ids, edges = random_dag(rng, 8)
            got = refinement_closure(rel(edges), ids)
            assert set(got) == path_enumeration_closure(edges, ids)

    def test_cycle_raises_with_witness(self):
        with pytest.raises(CycleError) as exc:
            refinement_closure(rel([("a", "b"), ("b", "c"), ("c", "a")]), {"a", "b", "c"})
        cycle = exc.value.cycle
        assert set(cycle) == {"a", "b", "c"}

    def test_cycle_witness_matches_recursive_search(self):
        rng = random.Random(20261017)
        for _ in range(200):
            ids, edges = random_dag(rng, 8)
            for _ in range(rng.randint(1, 3)):  # back edges close cycles
                a, b = sorted(rng.sample(sorted(ids), 2))
                edges.add((b, a))
            expect = recursive_cycle_witness(edges, ids)
            if expect is None:
                assert set(refinement_closure(rel(edges), ids)) == path_enumeration_closure(edges, ids)
                continue
            with pytest.raises(CycleError) as exc:
                refinement_closure(rel(edges), ids)
            assert exc.value.cycle == expect

    def test_deep_cycle_reports_whole_loop(self):
        ids = [f"r{i:04d}" for i in range(3000)]
        with pytest.raises(CycleError) as exc:
            refinement_closure(rel([*zip(ids, ids[1:]), (ids[-1], ids[0])]), set(ids))
        assert exc.value.cycle == ids

    def test_two_cycle(self):
        with pytest.raises(CycleError):
            refinement_closure(rel([("a", "b"), ("b", "a")]), {"a", "b"})

    def test_idempotent(self):
        rng = random.Random(7)
        ids, edges = random_dag(rng, 10)
        once = refinement_closure(rel(edges), ids)
        twice = refinement_closure(rel(once), ids)
        assert once == twice

    def test_antisymmetric(self):
        rng = random.Random(99)
        for _ in range(20):
            ids, edges = random_dag(rng, 9)
            closure = refinement_closure(rel(edges), ids)
            assert not any((b, a) in closure for a, b in closure)

    def test_restriction_to_ids(self):
        got = refinement_closure(rel([("a", "b"), ("b", "c")]), {"a", "b"})
        assert got == {("a", "b")}


class TestDeriveContradictions:
    def test_one_step_rule(self):
        got = derive_contradictions(rel([("x2", "x")], [("x", "y")]))
        assert got == {frozenset({"x", "y"}), frozenset({"x2", "y"})}

    def test_no_pairs(self):
        assert derive_contradictions(rel([("a", "b")])) == frozenset()

    def test_chain_matches_fixpoint_oracle(self):
        refines = {("x2", "x1"), ("x1", "x")}
        contradicts = {("x", "y")}
        got = derive_contradictions(rel(refines, contradicts))
        assert got == fixpoint_contradictions(refines, contradicts)
        assert got == {frozenset({"x", "y"}), frozenset({"x1", "y"}), frozenset({"x2", "y"})}

    def test_random_relation_sets_match_fixpoint(self):
        rng = random.Random(20240818)
        for _ in range(60):
            ids, refines = random_dag(rng, rng.randint(2, 12), edge_prob=0.2)
            nodes = sorted(ids)
            contradicts = set()
            for _ in range(rng.randint(0, 5)):
                a, b = rng.sample(nodes, 2)
                contradicts.add((a, b))
            got = derive_contradictions(rel(refines, contradicts))
            assert got == fixpoint_contradictions(refines, contradicts)

    def test_monotone_in_refines(self):
        base = derive_contradictions(rel([("b", "a")], [("a", "c")]))
        more = derive_contradictions(rel([("b", "a"), ("d", "b")], [("a", "c")]))
        assert base <= more

    def test_cycle_propagates(self):
        with pytest.raises(CycleError):
            derive_contradictions(rel([("a", "b"), ("b", "a")], [("a", "c")]))


def _req(i, key="k", text="t", kind=RequirementKind.FUNCTIONAL, jur="j0"):
    from reqlattice.model import content_hash

    return Requirement(id=i, kind=kind, jurisdiction=jur, concept_key=key,
                       text=text, content_hash=content_hash(text))


def grouped(*items):
    """Whether the partition puts the items, each in a jurisdiction of its
    own, together in the general set: semantic identity across jurisdictions."""
    jurisdictions = tuple(Jurisdiction(f"j{n}", f"J{n}", Level.NATIONAL) for n in range(len(items)))
    placed = tuple(item._replace(id=f"x{n}", jurisdiction=f"j{n}") for n, item in enumerate(items))
    corpus = Corpus(jurisdictions=jurisdictions, sources=(), requirements=placed)
    general = set()
    for kind in {item.kind for item in items}:
        general |= partition_requirements(corpus, kind).general
    return general == {item.id for item in placed}


class TestSemanticIdentity:
    def test_same_concept_same_hash(self):
        a = _req("a", key="data-retention", text="Keep data.")
        b = _req("b", key="data-retention", text="keep  DATA.")
        assert grouped(a, b)

    def test_same_concept_different_hash(self):
        a = _req("a", key="data-retention", text="Keep data five years.")
        b = _req("b", key="data-retention", text="Keep data ten years.")
        assert not grouped(a, b)

    def test_reflexive(self):
        a = _req("a")
        assert grouped(a, a)

    def test_role_mismatch(self):
        # items of different kinds are never grouped, whatever their content
        a = _req("a", kind=RequirementKind.FUNCTIONAL)
        b = _req("b", kind=RequirementKind.LEGAL_BASED)
        assert not grouped(a, b)

    @given(st.data())
    @settings(max_examples=60)
    def test_equivalence_relation(self, data):
        keys = ["k1", "k2"]
        texts = ["alpha", "beta", "gamma"]
        make = lambda i: _req(f"r{i}", key=data.draw(st.sampled_from(keys)),
                              text=data.draw(st.sampled_from(texts)))
        a, b, c = make(0), make(1), make(2)
        assert grouped(a, b) == (a.concept_key == b.concept_key and a.content_hash == b.content_hash)
        assert grouped(a, a)
        assert grouped(a, b) == grouped(b, a)
        if grouped(a, b) and grouped(b, c):
            assert grouped(a, c) and grouped(a, b, c)


def _corpus_with(requirements, relations):
    return Corpus(
        jurisdictions=(Jurisdiction("j0", "J0", Level.NATIONAL),),
        sources=(),
        requirements=tuple(requirements),
        relations=relations,
    )


class TestFindConflicts:
    def test_explicit_pair(self):
        corpus = _corpus_with([_req("a", key="ka"), _req("b", key="kb")],
                              rel(contradicts=[("a", "b")]))
        records = find_conflicts(corpus)
        assert [(r.pair, r.origin) for r in records] == [(("a", "b"), "explicit")]

    def test_three_chain_explicit_plus_derived(self):
        reqs = [_req(i, key=f"k{i}") for i in ("x", "x1", "x2", "y")]
        corpus = _corpus_with(reqs, rel([("x2", "x1"), ("x1", "x")], [("x", "y")]))
        records = find_conflicts(corpus)
        assert [(r.pair, r.origin) for r in records] == [
            (("x", "y"), "explicit"),
            (("x1", "y"), "derived"),
            (("x2", "y"), "derived"),
        ]

    def test_a_contradiction_between_sources_is_no_conflict(self, worked_example, alts_path):
        relations = worked_example.relations
        corpus = replace(worked_example, relations=replace(
            relations, contradicts=relations.contradicts | {("src-de-retention", "src-fr-retention")}))
        model.validate_corpus(corpus)
        retention = ("req-de-retention", "req-fr-retention")
        assert [r.pair for r in find_conflicts(corpus)] == [retention]  # the conflicts command
        assert [r.pair for r in global_view(corpus).conflicts] == [retention]  # optimize's conflicts
        matrix = build_conflict_matrix(corpus, corpus_io.load_alternatives(alts_path))
        assert tuple(c.id for c in matrix.criteria) == retention  # rank's criteria
        # the partition still counts the pair: only the address sources contradict no counterpart
        parts = [partition_sources(corpus, kind) for kind in SourceKind]
        flagged = [f.item_id for f in check_specific_contradiction_condition(corpus, *parts)]
        assert flagged == ["src-de-address", "src-fr-address"]


def _with_sources_and_self_pairs(corpus: Corpus, rng: random.Random) -> Corpus:
    """``corpus`` plus random same-kind ``refines`` and ``contradicts`` pairs between sources, and, in some
    kinds of either role, an item that refines both ends of a contradiction: a self-pair the rule must drop.
    Every added ``refines`` pair points forward in id order within its kind, as random_corpus's do, so the
    relation stays acyclic."""
    refines, contradicts = set(corpus.relations.refines), set(corpus.relations.contradicts)
    groups: dict = {}
    for item in (*corpus.sources, *corpus.requirements):
        groups.setdefault(item.kind, []).append(item.id)
    for kind, ids in groups.items():
        ids.sort()
        if isinstance(kind, SourceKind):
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    roll = rng.random()
                    if roll < 0.1:
                        refines.add((a, b))
                    elif roll < 0.2:
                        contradicts.add((a, b))
        if len(ids) >= 3 and rng.random() < 0.7:
            both, x, y = sorted(rng.sample(ids, 3))
            refines |= {(both, x), (both, y)}
            contradicts.add((x, y))
    widened = replace(corpus, relations=rel(refines, contradicts))
    model.validate_corpus(widened)
    return widened


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_conflicts_match_the_fixpoint_oracle_between_requirements(seed):
    rng = random.Random(seed)
    corpus = _with_sources_and_self_pairs(random_corpus(rng, with_relations=True), rng)
    relations = corpus.relations
    requirement_ids = {r.id for r in corpus.requirements}
    oracle = fixpoint_contradictions(set(relations.refines), set(relations.contradicts))
    want = [(pair, "explicit" if pair in relations.contradicts else "derived")
            for pair in sorted(tuple(sorted(p)) for p in oracle if p <= requirement_ids)]
    assert [(r.pair, r.origin) for r in find_conflicts(corpus)] == want
    assert [(r.pair, r.origin) for r in global_view(corpus).conflicts] == want

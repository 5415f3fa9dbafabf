"""The one-pass refinement order against the closure it replaced.

``effective_requirements``, ``optimize`` and ``derive_contradictions`` read
the refinement order without building its transitive closure. Each is
checked here against a from-scratch version (``tests/oracles.py``, and
``refinement_closure`` for contradictions) on random trees with
cross-jurisdiction ``refines``, plus pinned cases: a path through a sibling
jurisdiction, cycles, and a 3000-deep chain.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import closure_effective, closure_optimize, random_dag, random_forest, random_tree_corpus
from reqlattice import corpus_io, model
from reqlattice.cli import EXIT_OK, run
from reqlattice.errors import CycleError
from reqlattice.hierarchy import effective_requirements
from reqlattice.model import Corpus, Jurisdiction, Level, RelationSet, Requirement, RequirementKind
from reqlattice.optimize import optimize
from reqlattice.relations import check_acyclic, derive_contradictions, min_refiner, refinement_closure


# ---------------------------------------------------------------------------
# the closure-based versions

def closure_contradictions(relations: RelationSet) -> frozenset[frozenset[str]]:
    ids = {i for pair in relations.refines | relations.contradicts for i in pair}
    refiners: dict[str, set[str]] = {}
    for strong, weak in refinement_closure(relations, ids):
        refiners.setdefault(weak, set()).add(strong)
    return frozenset(
        frozenset((a, b))
        for x, y in relations.contradicts
        for a in {x} | refiners.get(x, set())
        for b in {y} | refiners.get(y, set())
        if a != b
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_linear_pass_matches_closure(seed):
    rng = random.Random(seed)
    corpus = random_tree_corpus(rng)
    for drawn in (corpus, random_forest(rng)):
        every = [j.id for j in drawn.jurisdictions]
        for frontier in (every, rng.sample(every, rng.randint(0, len(every)))):  # the full and a drawn sub-frontier
            assert effective_requirements(drawn, tuple(frontier)) == {
                node: sorted(closure_effective(drawn, node)) for node in frontier}

    scopes = [{r.id for r in corpus.requirements}]
    scopes += [{r.id for r in corpus.requirements if r.kind is kind} for kind in RequirementKind]
    scopes += [{r.id for r in corpus.requirements if r.jurisdiction == j.id} for j in corpus.jurisdictions]
    for ids in scopes:
        view = optimize(ids, corpus, "s")
        assert (view.strongest, view.baseline, view.removed) == closure_optimize(ids, corpus)

    assert derive_contradictions(corpus.relations) == closure_contradictions(corpus.relations)


# ---------------------------------------------------------------------------
# pinned cases

def _req(rid, jurisdiction):
    return Requirement(id=rid, kind=RequirementKind.FUNCTIONAL, jurisdiction=jurisdiction,
                       concept_key=f"k-{rid}", text=rid, content_hash=model.content_hash(rid))


def test_path_through_a_sibling_jurisdiction_does_not_shadow():
    # r-s1 refines r-nat only through r-s2, which st1 cannot see
    corpus = Corpus(
        jurisdictions=(Jurisdiction("nat", "N", Level.NATIONAL),
                       Jurisdiction("st1", "S1", Level.STATE, "nat"),
                       Jurisdiction("st2", "S2", Level.STATE, "nat")),
        sources=(),
        requirements=(_req("r-nat", "nat"), _req("r-s1", "st1"), _req("r-s2", "st2")),
        relations=RelationSet(refines=frozenset({("r-s1", "r-s2"), ("r-s2", "r-nat")})),
    )
    model.validate_corpus(corpus)
    effective = effective_requirements(corpus, ("nat", "st1", "st2"))
    assert (effective["st1"], effective["st2"]) == (["r-nat", "r-s1"], ["r-s2"])
    for jid in ("nat", "st1", "st2"):
        assert effective[jid] == sorted(closure_effective(corpus, jid))


def test_cycle_witness_equals_check_acyclic():
    rng = random.Random(20261018)
    raised = 0
    for _ in range(200):
        ids, edges = random_dag(rng, 9)
        for _ in range(rng.randint(0, 2)):  # back edges close cycles
            a, b = sorted(rng.sample(sorted(ids), 2))
            edges.add((b, a))
        relations = RelationSet(refines=frozenset(edges))
        try:
            check_acyclic(relations, ids)
        except CycleError as exc:
            expect = exc.cycle
        else:
            assert min_refiner(relations, dict.fromkeys(ids, "s")) == {
                weak: min(s for s, w in refinement_closure(relations, ids) if w == weak)
                for _, weak in refinement_closure(relations, ids)
            }
            continue
        raised += 1
        with pytest.raises(CycleError) as exc:
            min_refiner(relations, dict.fromkeys(ids, "s"))
        assert exc.value.cycle == expect
        with pytest.raises(CycleError) as exc:
            derive_contradictions(relations)
        assert exc.value.cycle == expect
    assert raised > 50


def test_cyclic_corpus_raises_the_same_witness_everywhere():
    ids = ["a", "b", "c", "d"]
    corpus = Corpus(
        jurisdictions=(Jurisdiction("nat", "N", Level.NATIONAL),
                       Jurisdiction("org", "O", Level.ORGANISATIONAL, "nat")),
        sources=(),
        requirements=(_req("a", "org"), _req("b", "nat"), _req("c", "nat"), _req("d", "org")),
        relations=RelationSet(refines=frozenset({("a", "b"), ("b", "c"), ("c", "b"), ("d", "a")})),
    )
    with pytest.raises(CycleError) as exc:
        check_acyclic(corpus.relations, set(ids))
    expect = exc.value.cycle
    assert expect == ["b", "c"]
    for call in (lambda: effective_requirements(corpus, ("org",)),
                 lambda: optimize(set(ids), corpus, "s"),
                 lambda: derive_contradictions(corpus.relations)):
        with pytest.raises(CycleError) as exc:
            call()
        assert exc.value.cycle == expect


def test_3000_deep_chain_through_hierarchy_and_optimize(tmp_path, capsys):
    levels = ["org", "st", "nat"]
    ids = [f"r{i:04d}" for i in range(3000)]
    corpus = Corpus(
        jurisdictions=(Jurisdiction("nat", "N", Level.NATIONAL),
                       Jurisdiction("st", "S", Level.STATE, "nat"),
                       Jurisdiction("org", "O", Level.ORGANISATIONAL, "st")),
        sources=(),
        requirements=tuple(_req(rid, levels[i % 3]) for i, rid in enumerate(ids)),
        relations=RelationSet(refines=frozenset(zip(ids, ids[1:]))),
    )
    path = tmp_path / "chain.reqcorpus.json"
    corpus_io.save_corpus(corpus, path)

    assert run(["hierarchy", "--corpus", str(path), "--format", "json"]) == EXIT_OK
    effective = json.loads(capsys.readouterr().out)["body"]["effectiveRequirements"]
    # r0000 sits at org, the nearest level, and refines every later id
    assert effective["org"] == ids[0::3]
    # st cannot see the org ids, so its pool keeps only the st -> nat pairs
    assert effective["st"] == ids[1::3]
    assert effective["nat"] == ids[2::3]

    assert run(["optimize", "--corpus", str(path), "--format", "json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["global"]["strongest"] == ["r0000"]
    assert body["global"]["baseline"] == ["r2999"]
    assert body["global"]["removed"] == {rid: "r0000" for rid in ids[1:]}

"""Memoised corpus facts stay fresh across change application.

Every fact cached on a ``Corpus`` or ``Partition`` (item grouping, id map,
ancestor chains, effective sets, owner map) and the fingerprint must equal
their from-scratch values on each corpus a change set produces, and the
analyses that read those caches must still match the brute-force oracles.
Cached facts live on their corpus and die with it.
"""

import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_maximal,
    brute_force_minimal,
    corpus_to_doc,
    dumps_layout,
    expand_reads,
    fixpoint_contradictions,
    path_enumeration_closure,
    random_tree_corpus,
    scratch_members,
)
from reqlattice import corpus_io, model
from reqlattice.cli import EXIT_OK, run
from reqlattice.changes import apply_change_set
from reqlattice.corpus_io import Alternative, AlternativesFile, ChangeOp, ChangePayload, ChangeSet
from reqlattice.errors import PartitionMismatchError, ValidationError
from reqlattice.hierarchy import effective_requirements, level_requirement_view, select_level
from reqlattice.model import Corpus, Jurisdiction, Level, RelationSet, Requirement, RequirementKind
from reqlattice.optimize import optimize
from reqlattice.partition import _check_same_corpus, partition_requirements
from reqlattice.topsis import build_conflict_matrix


def scratch_fingerprint(corpus: Corpus) -> str:
    return hashlib.sha256(dumps_layout(corpus_to_doc(corpus)).encode("utf-8")).hexdigest()


def shadowed_nodes(corpus: Corpus) -> list[str]:
    """The jurisdictions whose effective set is smaller than their pool of own and ancestor requirements."""
    pools = {j.id: {j.id, *corpus.ancestor_chains[j.id]} for j in corpus.jurisdictions}
    return [jid for jid, pool in pools.items()
            if len(effective_requirements(corpus, jid)) < sum(r.jurisdiction in pool for r in corpus.requirements)]


def random_op(rng: random.Random, corpus: Corpus, n: int) -> ChangeOp:
    jids = sorted(j.id for j in corpus.jurisdictions)
    roll = rng.random()
    if corpus.requirements and roll < 0.6:
        target = rng.choice(corpus.requirements)
        text = f"{target.concept_key} variant {rng.randrange(3)}"
        adopted = frozenset(rng.sample(jids, rng.randint(1, len(jids))))
        # drawn for every modify, so the random sequence stays the same, but
        # passed only where it is read: on a general-set target
        general = target.id in partition_requirements(corpus, target.kind).general
        return ChangeOp("modify", target.id, ChangePayload(text=text), adopted if general else None)
    if corpus.requirements and roll < 0.8:
        return ChangeOp("remove", rng.choice(corpus.requirements).id)
    return ChangeOp("add", f"added-{n}", Requirement(
        id=f"added-{n}", kind=rng.choice(list(RequirementKind)), jurisdiction=rng.choice(jids),
        concept_key=f"added-{n}", text=f"added {n}", content_hash=model.content_hash(f"added {n}")))


def oracle_level_view(corpus: Corpus, level: Level) -> dict:
    """Own plus ancestor requirements, minus those a strictly nearer one
    refines along a path inside the node's pool."""
    ids = {r.id for r in corpus.requirements}
    jur_of = {r.id: r.jurisdiction for r in corpus.requirements}
    views = {}
    for node in sorted(j.id for j in corpus.jurisdictions if j.level is level):
        depth = {jid: i for i, jid in enumerate([node, *corpus.ancestors(node)])}
        pool = {i for i in ids if jur_of[i] in depth}
        closure = path_enumeration_closure(set(corpus.relations.refines), pool)
        views[node] = {
            i for i in pool
            if not any((s, i) in closure and depth[jur_of[s]] < depth[jur_of[i]] for s in pool)
        }
    return views


def check_against_oracles(corpus: Corpus) -> None:
    ids = {r.id for r in corpus.requirements}
    closure = path_enumeration_closure(set(corpus.relations.refines), ids)
    view = optimize(ids, corpus, "all")
    assert view.strongest == brute_force_maximal(ids, closure)
    assert view.baseline == brute_force_minimal(ids, closure)
    assert view.removed == {
        weak: min(s for s, w in closure if w == weak) for weak in ids - view.strongest
    }

    for level in Level:
        frontier = select_level(corpus, level)
        reads = level_requirement_view(corpus, frontier)
        expect = oracle_level_view(corpus, level)
        for kind in RequirementKind:
            rmap = corpus.requirement_map()
            assert {node: sorted(r.id for r in items) for node, items in expand_reads(corpus, reads, kind).items()} == {
                node: sorted(i for i in visible if rmap[i].kind is kind)
                for node, visible in expect.items()
            }

    alts = AlternativesFile(alternatives=(Alternative("a", {}), Alternative("b", {})), weights={})
    matrix = build_conflict_matrix(corpus, alts)
    pairs = fixpoint_contradictions(set(corpus.relations.refines), set(corpus.relations.contradicts))
    assert [c.id for c in matrix.criteria] == sorted({i for pair in pairs for i in pair})


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_memoised_facts_match_scratch_after_each_change(seed):
    rng = random.Random(seed)
    corpus = random_tree_corpus(rng)
    for n in range(rng.randint(1, 4)):
        before_fp = model.corpus_fingerprint(corpus)
        before_members = corpus.members
        before_parts = {k: partition_requirements(corpus, k) for k in RequirementKind}
        op = random_op(rng, corpus, n)
        if op.op == "modify" and model.content_hash(op.payload.text) == corpus.by_id[op.target].content_hash:
            # a modify to the same concept key and content changes nothing, in every case
            with pytest.raises(ValidationError) as rejected:
                apply_change_set(corpus, ChangeSet(label=f"op{n}", ops=(op,)))
            assert rejected.value.code == "NO_CHANGE"
            continue
        after, _report = apply_change_set(corpus, ChangeSet(label=f"op{n}", ops=(op,)))

        assert model.corpus_fingerprint(corpus) == scratch_fingerprint(corpus) == before_fp
        assert model.corpus_fingerprint(after) == scratch_fingerprint(after)
        assert corpus.members is before_members and before_members == scratch_members(corpus)
        assert after.members == scratch_members(after)
        fresh = Corpus(after.jurisdictions, after.sources, after.requirements, after.relations, after.components)
        assert (after.ancestor_chains, after.by_id) == (fresh.ancestor_chains, fresh.by_id)
        for j in after.jurisdictions:
            assert effective_requirements(after, j.id) == effective_requirements(fresh, j.id)
        if after != corpus:
            assert model.corpus_fingerprint(after) != before_fp
            with pytest.raises(PartitionMismatchError):
                _check_same_corpus(after, *before_parts.values())
        _check_same_corpus(corpus, *before_parts.values())
        check_against_oracles(after)
        corpus = after


def test_the_drawn_trees_shadow():
    # the level views above are compared on these draws: without shadowed
    # nodes the comparison would pass for any shadowing rule
    shadowed = [node for seed in range(40) for node in shadowed_nodes(random_tree_corpus(random.Random(seed)))]
    assert len(shadowed) >= 10


def test_oracle_level_view_counts_only_paths_inside_the_pool():
    """``u@n`` refines ``w@s`` refines ``i@p``: the path from ``u`` leaves
    ``n``'s pool at ``w``, so nothing shadows ``i`` at ``n``."""
    def req(rid, jid):
        return Requirement(id=rid, kind=RequirementKind.FUNCTIONAL, jurisdiction=jid, concept_key=rid,
                           text=rid, content_hash=model.content_hash(rid))

    corpus = Corpus(
        jurisdictions=(Jurisdiction("p", "p", Level.NATIONAL), Jurisdiction("n", "n", Level.STATE, "p"),
                       Jurisdiction("s", "s", Level.STATE, "p")),
        sources=(),
        requirements=(req("i", "p"), req("u", "n"), req("w", "s")),
        relations=RelationSet(refines=frozenset({("u", "w"), ("w", "i")})),
    )
    model.validate_corpus(corpus)
    assert oracle_level_view(corpus, Level.STATE) == {"n": {"i", "u"}, "s": {"w"}}
    check_against_oracles(corpus)


def test_cached_facts_die_with_their_corpus(tmp_path, monkeypatch, capsys):
    # no module-level cache may keep a corpus alive into the next command's load
    corpus = random_tree_corpus(random.Random(11))
    assert any(j.level is Level.ORGANISATIONAL for j in corpus.jurisdictions) and corpus.relations.refines
    path = tmp_path / "tree.reqcorpus.json"
    corpus_io.save_corpus(corpus, path)
    loaded = [corpus_io.load_corpus(path)]
    alive = weakref.ref(loaded[0])
    monkeypatch.setattr(corpus_io, "load_corpus", lambda _path: loaded[0])
    for argv in (["hierarchy"], ["optimize"], ["partition", "--level", "org"]):
        assert run([*argv, "--corpus", str(path), "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    assert {"effective_sets", "ancestor_chains", "members"} <= vars(alive()).keys()
    loaded.clear()
    assert alive() is None

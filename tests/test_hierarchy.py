import random
import sys
import threading

import pytest

from oracles import expand_reads
from reqlattice import cli, corpus_io, hierarchy, model
from reqlattice.errors import UnknownIdError, ValidationError
from reqlattice.hierarchy import (
    effective_requirements,
    level_requirement_view,
    level_source_view,
    select_level,
    shadowed,
    validate_hierarchy,
)
from reqlattice.model import (
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
)

def jur(i, level=Level.NATIONAL, parent=None):
    return Jurisdiction(id=i, name=i, level=level, parent=parent)


def req(i, jurisdiction, key=None, text=None, kind=RequirementKind.FUNCTIONAL):
    text = text or i
    return Requirement(id=i, kind=kind, jurisdiction=jurisdiction,
                       concept_key=key or f"k-{i}", text=text,
                       content_hash=model.content_hash(text))


def tree_corpus(refines=()):
    corpus = Corpus(
        jurisdictions=(
            jur("nat"), jur("st", Level.STATE, parent="nat"),
            jur("org", Level.ORGANISATIONAL, parent="st"),
        ),
        sources=(),
        requirements=(req("r-nat", "nat"), req("r-st", "st"), req("r-org", "org")),
        relations=RelationSet(refines=frozenset(refines)),
    )
    model.validate_corpus(corpus)
    return corpus


class TestEffectiveRequirements:
    def test_plain_union_over_ancestors(self):
        corpus = tree_corpus()
        assert effective_requirements(corpus, "org") == {"r-nat", "r-st", "r-org"}
        assert effective_requirements(corpus, "st") == {"r-nat", "r-st"}

    def test_root_is_just_its_own(self):
        corpus = tree_corpus()
        assert effective_requirements(corpus, "nat") == {"r-nat"}

    def test_refining_requirement_shadows_ancestor(self):
        corpus = tree_corpus(refines=[("r-org", "r-nat")])
        assert effective_requirements(corpus, "org") == {"r-st", "r-org"}

    def test_shadowing_never_removes_own_items(self):
        # an ancestor's stronger version does not shadow the node's own
        corpus = tree_corpus(refines=[("r-nat", "r-org")])
        assert "r-org" in effective_requirements(corpus, "org")

    def test_unknown_node(self):
        with pytest.raises(UnknownIdError):
            effective_requirements(tree_corpus(), "nowhere")

    def test_matches_union_then_redundancy_oracle(self):
        rng = random.Random(20240823)
        for _ in range(20):
            # 3-level chain with random requirements and random downward refines
            reqs = []
            for level_id in ("nat", "st", "org"):
                for k in range(rng.randint(1, 3)):
                    reqs.append(req(f"r-{level_id}-{k}", level_id))
            ids = [r.id for r in reqs]
            depth = {"nat": 2, "st": 1, "org": 0}
            refines = set()
            for a in ids:
                for b in ids:
                    da = depth[a.split("-")[1]]
                    db = depth[b.split("-")[1]]
                    if da < db and rng.random() < 0.3:
                        refines.add((a, b))  # nearer refines farther
            corpus = Corpus(
                jurisdictions=(jur("nat"), jur("st", Level.STATE, "nat"),
                               jur("org", Level.ORGANISATIONAL, "st")),
                sources=(), requirements=tuple(reqs),
                relations=RelationSet(refines=frozenset(refines)),
            )
            model.validate_corpus(corpus)
            got = effective_requirements(corpus, "org")
            # oracle: union, then drop ids refined by a strictly nearer one
            # (exhaustive check over the closure)
            from reqlattice.relations import refinement_closure
            closure = refinement_closure(corpus.relations, set(ids))
            expect = {
                i for i in ids
                if not any(
                    (s, i) in closure and depth[s.split("-")[1]] < depth[i.split("-")[1]]
                    for s in ids
                )
            }
            assert got == expect

    def test_monotone_ancestry(self):
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        parent_effective = effective_requirements(corpus, "st")
        child_effective = effective_requirements(corpus, "org")
        assert parent_effective <= child_effective


class TestRecurrence:
    """Each node's set is built from its parent's: own items, plus the
    parent's effective set less what the own items reach."""

    def test_org_without_requirements_inherits_its_state_set_exactly(self):
        corpus = Corpus(
            jurisdictions=(jur("nat"), jur("st", Level.STATE, "nat"), jur("org", Level.ORGANISATIONAL, "st")),
            sources=(), requirements=(req("r-nat", "nat"), req("r-st", "st"), req("r-st2", "st")),
            relations=RelationSet(refines=frozenset({("r-st", "r-nat")})),
        )
        model.validate_corpus(corpus)
        assert effective_requirements(corpus, "org") == effective_requirements(corpus, "st") == {"r-st", "r-st2"}

    def test_shadowed_at_the_state_stays_shadowed_at_its_org(self):
        # nothing of the org reaches r-nat: the state's shadowing carries down
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        assert effective_requirements(corpus, "st") == {"r-st"}
        assert effective_requirements(corpus, "org") == {"r-st", "r-org"}

    def test_org_item_refining_a_national_one_through_a_state_one_shadows_both(self):
        corpus = tree_corpus(refines=[("r-org", "r-st"), ("r-st", "r-nat")])
        assert effective_requirements(corpus, "nat") == {"r-nat"}
        assert effective_requirements(corpus, "st") == {"r-st"}
        assert effective_requirements(corpus, "org") == {"r-org"}

    def test_org_item_refining_a_state_one_through_a_national_one_shadows_both(self):
        # the path climbs to the national item and comes back down: reach follows every step
        corpus = tree_corpus(refines=[("r-org", "r-nat"), ("r-nat", "r-st")])
        assert effective_requirements(corpus, "st") == {"r-nat", "r-st"}
        assert effective_requirements(corpus, "org") == {"r-org"}

    def test_sets_are_built_once_per_corpus(self):
        corpora = [tree_corpus(refines=[("r-org", "r-nat")]) for _ in range(2)]
        org = effective_requirements(corpora[0], "org")
        # reading the org builds its ancestors' sets, and nothing else
        assert set(corpora[0].effective_sets) == {"org", "st", "nat"}
        assert corpora[1].effective_sets == {}  # each corpus keeps its own memo
        for corpus in corpora:
            for _ in range(3):
                level_requirement_view(corpus, select_level(corpus, Level.ORGANISATIONAL))
                for node in ("nat", "st", "org"):
                    assert effective_requirements(corpus, node) is corpus.effective_sets[node]
        assert effective_requirements(corpora[0], "org") is org
        assert corpora[0].effective_sets is not corpora[1].effective_sets

    def test_unknown_node_after_the_sets_are_built(self):
        corpus = tree_corpus()
        with pytest.raises(UnknownIdError):
            effective_requirements(corpus, "nowhere")
        assert corpus.effective_sets == {}
        for node in ("nat", "st", "org"):
            effective_requirements(corpus, node)
        with pytest.raises(UnknownIdError):
            effective_requirements(corpus, "nowhere")
        assert set(corpus.effective_sets) == {"nat", "st", "org"}

    def test_concurrent_first_readers_share_one_set(self):
        nodes = [jur(f"n{a}") for a in range(4)]
        nodes += [jur(f"n{a}s{b}", Level.STATE, f"n{a}") for a in range(4) for b in range(4)]
        nodes += [jur(f"{s.id}o{c}", Level.ORGANISATIONAL, s.id) for s in nodes[4:] for c in range(4)]
        reqs = tuple(req(f"r-{j.id}", j.id, key="k") for j in nodes)
        refines = frozenset((f"r-{j.id}", f"r-{j.parent}") for j in nodes if j.parent and j.id.endswith(("0", "2")))

        def read_all(corpus, order, got):
            got.update((node, effective_requirements(corpus, node)) for node in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                corpus = Corpus(jurisdictions=tuple(nodes), sources=(), requirements=reqs,
                                relations=RelationSet(refines=refines))
                model.validate_corpus(corpus)
                orders = [random.Random(round_ * 8 + t).sample([j.id for j in nodes], len(nodes)) for t in range(8)]
                seen: list[dict] = [{} for _ in orders]
                threads = [threading.Thread(target=read_all, args=(corpus, order, got))
                           for order, got in zip(orders, seen)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert all(got.keys() == corpus.effective_sets.keys() for got in seen)
                assert all(got[node] is corpus.effective_sets[node] for got in seen for node in got)
        finally:
            sys.setswitchinterval(interval)
        fresh = Corpus(jurisdictions=tuple(nodes), sources=(), requirements=reqs, relations=RelationSet(refines=refines))
        assert corpus.effective_sets == {j.id: effective_requirements(fresh, j.id) for j in nodes}

    @pytest.mark.parametrize("level, built", [
        (Level.NATIONAL, {"nat"}), (Level.STATE, {"nat", "st"}), (Level.ORGANISATIONAL, {"nat", "st", "org"}),
    ])
    def test_a_level_view_builds_only_its_frontier_and_their_ancestors(self, level, built, monkeypatch):
        # it walks the shadowing of each such node once, and copies no effective set
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        walked = []
        monkeypatch.setattr(hierarchy, "shadowed", lambda c, node, own: walked.append(node) or shadowed(c, node, own))
        level_requirement_view(corpus, select_level(corpus, level))
        assert sorted(walked) == sorted(built)
        assert corpus.effective_sets == {}

    @pytest.mark.parametrize("argv, built", [
        (["validate", "--level", "state"], {"nat", "st"}),
        (["partition", "--level", "national"], {"nat"}),
        (["hierarchy"], {"nat", "st", "org"}),
    ])
    def test_a_command_builds_only_the_sets_its_level_reads(self, argv, built, tmp_path, monkeypatch, capsys):
        # a level command walks the shadowing its level reads; only hierarchy keeps effective sets
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        path = tmp_path / "tree.reqcorpus.json"
        corpus_io.save_corpus(corpus, path)
        monkeypatch.setattr(corpus_io, "load_corpus", lambda _path: corpus)
        walked = []
        monkeypatch.setattr(hierarchy, "shadowed", lambda c, node, own: walked.append(node) or shadowed(c, node, own))
        assert cli.run([*argv, "--corpus", str(path), "--format", "json"]) == cli.EXIT_OK
        capsys.readouterr()
        assert sorted(walked) == sorted(built)
        assert set(corpus.effective_sets) == (built if argv == ["hierarchy"] else set())


class TestAncestorChains:
    def test_chains_match_a_parent_walk_and_are_built_once(self, monkeypatch):
        corpus = Corpus(
            jurisdictions=(
                jur("n1"), jur("n2"), jur("s1", Level.STATE, "n1"),
                jur("o1", Level.ORGANISATIONAL, "s1"), jur("o2", Level.ORGANISATIONAL, "n2"),
            ),
            sources=(), requirements=(req("r-o1", "o1"), req("r-s1", "s1"), req("r-n1", "n1")),
        )
        model.validate_corpus(corpus)
        built = []
        jurisdiction_map = Corpus.jurisdiction_map
        monkeypatch.setattr(Corpus, "jurisdiction_map", lambda self: built.append(1) or jurisdiction_map(self))
        expect = {"n1": [], "n2": [], "s1": ["n1"], "o1": ["s1", "n1"], "o2": ["n2"]}
        for _ in range(3):
            assert {j.id: corpus.ancestors(j.id) for j in corpus.jurisdictions} == expect
            for node in expect:
                effective_requirements(corpus, node)
            level_source_view(corpus, select_level(corpus, Level.ORGANISATIONAL))
        assert corpus.ancestors("nowhere") == []
        assert built == []  # validate_corpus's jurisdiction check built the chains; no read rebuilds them
        corpus.ancestors("o1").append("x")  # callers get a copy
        assert corpus.ancestors("o1") == ["s1", "n1"]


class TestLevelSelection:
    def test_frontier_nodes_have_the_level(self):
        corpus = tree_corpus()
        sel = select_level(corpus, Level.STATE)
        assert sel == ("st",)

    def test_level_view_uses_effective_sets(self):
        # what a node reads, less what it does not see, is its effective set
        for refines in ((), [("r-org", "r-nat")], [("r-st", "r-nat")], [("r-org", "r-st"), ("r-st", "r-nat")]):
            corpus = tree_corpus(refines)
            reads = level_requirement_view(corpus, select_level(corpus, Level.ORGANISATIONAL))
            view = expand_reads(corpus, reads, RequirementKind.FUNCTIONAL)
            assert {r.id for r in view["org"]} == effective_requirements(corpus, "org")
        assert {r.id for r in expand_reads(corpus, level_source_view(corpus, ("org",)), RequirementKind.FUNCTIONAL)["org"]} == {
            "r-nat", "r-st", "r-org"}


class TestValidateHierarchy:
    def test_well_formed_tree(self):
        assert validate_hierarchy(tree_corpus()) == []

    def test_org_without_ancestor(self):
        corpus = Corpus(jurisdictions=(jur("lonely", Level.ORGANISATIONAL),),
                        sources=(), requirements=())
        codes = [f.code for f in validate_hierarchy(corpus)]
        assert codes == ["ORG_WITHOUT_ANCESTOR"]

    def test_state_under_state(self):
        corpus = Corpus(
            jurisdictions=(jur("nat"), jur("s1", Level.STATE, "nat"),
                           jur("s2", Level.STATE, "s1")),
            sources=(), requirements=())
        with pytest.raises(ValidationError) as e:
            model.validate_corpus(corpus)
        assert e.value.code == "LEVEL_VIOLATION"

    def test_orphan_state(self):
        corpus = Corpus(jurisdictions=(jur("st", Level.STATE),), sources=(), requirements=())
        codes = [f.code for f in validate_hierarchy(corpus)]
        assert codes == ["ORPHAN_STATE"]

    def test_national_with_parent(self):
        corpus = Corpus(jurisdictions=(jur("a"), jur("b", Level.NATIONAL, "a")),
                        sources=(), requirements=())
        with pytest.raises(ValidationError) as e:
            model.validate_corpus(corpus)
        assert e.value.code == "LEVEL_VIOLATION"

    @pytest.mark.parametrize(("level", "parent", "codes"), [
        (Level.NATIONAL, None, []),
        (Level.NATIONAL, "ghost", ["DANGLING_REF"]),
        (Level.NATIONAL, "p-nat", ["LEVEL_VIOLATION"]),
        (Level.NATIONAL, "p-st", ["LEVEL_VIOLATION"]),
        (Level.NATIONAL, "p-org", ["LEVEL_VIOLATION"]),
        (Level.STATE, None, ["ORPHAN_STATE"]),
        (Level.STATE, "ghost", ["DANGLING_REF"]),
        (Level.STATE, "p-nat", []),
        (Level.STATE, "p-st", ["LEVEL_VIOLATION"]),
        (Level.STATE, "p-org", ["LEVEL_VIOLATION"]),
        (Level.ORGANISATIONAL, None, ["ORG_WITHOUT_ANCESTOR"]),
        (Level.ORGANISATIONAL, "ghost", ["DANGLING_REF"]),
        (Level.ORGANISATIONAL, "p-nat", []),
        (Level.ORGANISATIONAL, "p-st", []),
        (Level.ORGANISATIONAL, "p-org", ["LEVEL_VIOLATION"]),
    ])
    def test_parent_level_rules(self, level, parent, codes):
        # a well-formed national > state > org backbone plus the node "x": hard
        # validation rejects a dangling or wrong-level parent, and the lint
        # reports an orphan in a forest that passes it
        corpus = Corpus(
            jurisdictions=(jur("p-nat"), jur("p-st", Level.STATE, "p-nat"),
                           jur("p-org", Level.ORGANISATIONAL, "p-st"), jur("x", level, parent)),
            sources=(), requirements=())
        if codes in (["DANGLING_REF"], ["LEVEL_VIOLATION"]):
            with pytest.raises(ValidationError) as e:
                model.validate_corpus(corpus)
            assert (e.value.code, e.value.item_id) == (codes[0], "x")
        else:
            model.validate_corpus(corpus)
            findings = validate_hierarchy(corpus)
            assert [(f.item_id, f.code) for f in findings] == [("x", code) for code in codes]

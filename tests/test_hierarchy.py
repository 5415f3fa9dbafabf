import random

import pytest

from oracles import closure_effective, expand_reads
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


def effective(corpus, node):
    return set(effective_requirements(corpus, (node,))[node])


def count_walks(monkeypatch) -> list[str]:
    """The nodes whose shadowing is walked from now on, one entry per walk."""
    walked = []
    monkeypatch.setattr(hierarchy, "shadowed", lambda c, node, own: walked.append(node) or shadowed(c, node, own))
    return walked


class TestEffectiveRequirements:
    def test_plain_union_over_ancestors(self):
        corpus = tree_corpus()
        assert effective(corpus, "org") == {"r-nat", "r-st", "r-org"}
        assert effective(corpus, "st") == {"r-nat", "r-st"}

    def test_root_is_just_its_own(self):
        corpus = tree_corpus()
        assert effective(corpus, "nat") == {"r-nat"}

    def test_refining_requirement_shadows_ancestor(self):
        corpus = tree_corpus(refines=[("r-org", "r-nat")])
        assert effective(corpus, "org") == {"r-st", "r-org"}

    def test_shadowing_never_removes_own_items(self):
        # an ancestor's stronger version does not shadow the node's own
        corpus = tree_corpus(refines=[("r-nat", "r-org")])
        assert "r-org" in effective(corpus, "org")

    def test_unknown_node(self, monkeypatch):
        # raised before any walk, whichever place the unknown node takes in the frontier
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        walked = count_walks(monkeypatch)
        for frontier in (("nowhere",), ("org", "nowhere"), ("nowhere", "st", "elsewhere")):
            with pytest.raises(UnknownIdError) as exc:
                effective_requirements(corpus, frontier)
            assert exc.value.item_id == "nowhere"
        assert walked == []

    def test_one_sorted_list_per_frontier_node(self):
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        assert effective_requirements(corpus, ("org", "nat", "st")) == {
            "org": ["r-org", "r-st"], "nat": ["r-nat"], "st": ["r-st"]}
        assert effective_requirements(corpus, ()) == {}

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
            got = effective(corpus, "org")
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
        parent_effective = effective(corpus, "st")
        child_effective = effective(corpus, "org")
        assert parent_effective <= child_effective


class TestRecurrence:
    """Each node hides what its parent hides plus what its own items reach, so
    its effective set is its own items plus its parent's set less that reach."""

    def test_org_without_requirements_inherits_its_state_set_exactly(self):
        corpus = Corpus(
            jurisdictions=(jur("nat"), jur("st", Level.STATE, "nat"), jur("org", Level.ORGANISATIONAL, "st")),
            sources=(), requirements=(req("r-nat", "nat"), req("r-st", "st"), req("r-st2", "st")),
            relations=RelationSet(refines=frozenset({("r-st", "r-nat")})),
        )
        model.validate_corpus(corpus)
        assert effective(corpus, "org") == effective(corpus, "st") == {"r-st", "r-st2"}

    def test_shadowed_at_the_state_stays_shadowed_at_its_org(self):
        # nothing of the org reaches r-nat: the state's shadowing carries down
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        assert effective(corpus, "st") == {"r-st"}
        assert effective(corpus, "org") == {"r-st", "r-org"}

    def test_org_item_refining_a_national_one_through_a_state_one_shadows_both(self):
        corpus = tree_corpus(refines=[("r-org", "r-st"), ("r-st", "r-nat")])
        assert effective(corpus, "nat") == {"r-nat"}
        assert effective(corpus, "st") == {"r-st"}
        assert effective(corpus, "org") == {"r-org"}

    def test_org_item_refining_a_state_one_through_a_national_one_shadows_both(self):
        # the path climbs to the national item and comes back down: reach follows every step
        corpus = tree_corpus(refines=[("r-org", "r-nat"), ("r-nat", "r-st")])
        assert effective(corpus, "st") == {"r-nat", "r-st"}
        assert effective(corpus, "org") == {"r-org"}

    def test_unknown_node_after_the_sets_are_built(self):
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        with pytest.raises(UnknownIdError):
            effective_requirements(corpus, ("nowhere",))
        built = effective_requirements(corpus, ("nat", "st", "org"))
        assert built == {"nat": ["r-nat"], "st": ["r-st"], "org": ["r-org", "r-st"]}
        with pytest.raises(UnknownIdError) as exc:
            effective_requirements(corpus, ("org", "nowhere"))
        assert exc.value.item_id == "nowhere"
        assert effective_requirements(corpus, ("nat", "st", "org")) == built

    @pytest.mark.parametrize("level, built", [
        (Level.NATIONAL, {"nat"}), (Level.STATE, {"nat", "st"}), (Level.ORGANISATIONAL, {"nat", "st", "org"}),
    ])
    def test_a_level_view_builds_only_its_frontier_and_their_ancestors(self, level, built, monkeypatch):
        # it walks the shadowing of each such node once
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        walked = count_walks(monkeypatch)
        level_requirement_view(corpus, select_level(corpus, level))
        assert sorted(walked) == sorted(built)

    @pytest.mark.parametrize("argv, built", [
        (["validate", "--level", "state"], {"nat", "st"}),
        (["partition", "--level", "national"], {"nat"}),
        (["hierarchy"], {"nat", "st", "org"}),
    ])
    def test_a_command_builds_only_the_sets_its_level_reads(self, argv, built, tmp_path, monkeypatch, capsys):
        # a level command walks the shadowing its level reads, hierarchy every node's, each once
        corpus = tree_corpus(refines=[("r-st", "r-nat")])
        path = tmp_path / "tree.reqcorpus.json"
        corpus_io.save_corpus(corpus, path)
        monkeypatch.setattr(corpus_io, "load_corpus", lambda _path: corpus)
        walked = count_walks(monkeypatch)
        assert cli.run([*argv, "--corpus", str(path), "--format", "json"]) == cli.EXIT_OK
        capsys.readouterr()
        assert sorted(walked) == sorted(built)


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
            effective_requirements(corpus, tuple(expect))
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
        # what a node reads, less what it does not see, is its effective set by definition
        for refines in ((), [("r-org", "r-nat")], [("r-st", "r-nat")], [("r-org", "r-st"), ("r-st", "r-nat")]):
            corpus = tree_corpus(refines)
            for level in Level:
                reads = level_requirement_view(corpus, select_level(corpus, level))
                view = expand_reads(corpus, reads, RequirementKind.FUNCTIONAL)
                assert {node: {r.id for r in items} for node, items in view.items()} == {
                    node: closure_effective(corpus, node) for node in select_level(corpus, level)}
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

"""The refinement order is one cached fact of a ``RelationSet``.

``RelationSet.refinement_order`` holds the direct ``refines`` adjacency over
every id named in a pair, keyed in topological order. It is built once, on
first use, by ``model.check_acyclic``, and every analysis reads it: a
CLI command runs the cycle check once, and a cyclic relation raises from
every analysis, even one whose scope leaves the cycle out.
"""

import random

import pytest

from oracles import random_dag
from reqlattice import model
from reqlattice.cli import EXIT_OK, run
from reqlattice.errors import CycleError
from reqlattice.hierarchy import effective_requirements
from reqlattice.model import Corpus, Jurisdiction, Level, RelationSet, Requirement, RequirementKind, check_acyclic
from reqlattice.optimize import optimize
from reqlattice.relations import min_refiner


def test_order_is_the_adjacency_in_topological_order():
    rng = random.Random(7)
    for _ in range(100):
        _, edges = random_dag(rng, 12)
        rels = RelationSet(refines=frozenset(edges))
        order = rels.refinement_order
        assert order is rels.refinement_order
        assert set(order) == {i for pair in edges for i in pair}
        assert {(a, b) for a, weaker in order.items() for b in weaker} == edges
        position = {i: n for n, i in enumerate(order)}
        assert all(position[a] < position[b] for a, b in edges)


@pytest.mark.parametrize("command,extra", [
    ("optimize", []),
    ("partition", []),
    ("partition", ["--level", "national"]),
    ("conflicts", []),
    ("hierarchy", []),
    ("change", ["--changes"]),
])
def test_cycle_check_runs_once_per_command(capsys, monkeypatch, worked_example_path, change_set_path,
                                           command, extra):
    calls = []

    def counting(rels, ids):
        calls.append(ids)
        return check_acyclic(rels, ids)

    monkeypatch.setattr(model, "check_acyclic", counting)
    extra = [*extra, str(change_set_path)] if command == "change" else extra
    assert run([command, "--corpus", str(worked_example_path), *extra]) == EXIT_OK
    capsys.readouterr()
    assert calls == [{"req-de-audit", "req-fr-audit"}]


def _req(rid, jurisdiction):
    return Requirement(id=rid, kind=RequirementKind.FUNCTIONAL, jurisdiction=jurisdiction,
                       concept_key=f"k-{rid}", text=rid, content_hash=model.content_hash(rid))


def test_a_cycle_outside_the_scope_raises_everywhere():
    # c and d refine each other under another national; the scope {a, b} and
    # node st see neither
    corpus = Corpus(
        jurisdictions=(Jurisdiction("nat", "N", Level.NATIONAL),
                       Jurisdiction("st", "S", Level.STATE, "nat"),
                       Jurisdiction("other", "O", Level.NATIONAL)),
        sources=(),
        requirements=(_req("a", "nat"), _req("b", "st"), _req("c", "other"), _req("d", "other")),
        relations=RelationSet(refines=frozenset({("b", "a"), ("c", "d"), ("d", "c")})),
    )
    with pytest.raises(CycleError) as exc:
        check_acyclic(corpus.relations, {"a", "b", "c", "d"})
    expect = exc.value.cycle
    assert expect == ["c", "d"]
    for call in (lambda: optimize({"a", "b"}, corpus, "s"),
                 lambda: effective_requirements(corpus, ("st",)),
                 lambda: min_refiner(corpus.relations, {"a": "s", "b": "s"}),
                 lambda: corpus.relations.refinement_order):  # nothing was cached
        with pytest.raises(CycleError) as exc:
            call()
        assert exc.value.cycle == expect

"""Refinement order, contradiction derivation and conflicts."""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import NamedTuple

from reqlattice.model import Corpus, RelationSet, Requirement, check_acyclic


def min_refiner(relations: RelationSet, scope: Mapping[str, str]) -> dict[str, str]:
    """Least strict transitive refiner of each id, by id, inside its scope.

    ``scope`` maps each id to its scope: only ``refines`` pairs whose ends
    are both keys of the same scope count, and an id that nothing of its
    scope refines has no entry. One pass over the cached refinement order
    carries ``min(a, best[a])`` along every counted edge ``a -> b``, so no
    closure is built and one call serves every scope of the mapping. A
    cyclic relation raises CycleError, whatever ``scope`` holds.
    """
    best: dict[str, str] = {}
    for a, weaker in relations.refinement_order.items():
        if a not in scope:
            continue
        home = scope[a]
        carried = min(a, best.get(a, a))
        for b in weaker:
            if b in scope and scope[b] == home and (b not in best or carried < best[b]):
                best[b] = carried
    return best


def refinement_closure(relations: RelationSet, ids: set[str] | frozenset[str]) -> frozenset[tuple[str, str]]:
    """Transitive closure of ``refines`` restricted to ``ids``.

    Raises CycleError (with one witness cycle) if any element would end up
    refining itself. No analysis builds the closure; it is the from-scratch
    reference that min_refiner and derive_contradictions are checked against.
    """
    edges = check_acyclic(relations, ids)
    closure: set[tuple[str, str]] = set()
    for start in ids:
        reachable: set[str] = set()
        frontier = list(edges[start])
        while frontier:
            node = frontier.pop()
            if node in reachable:
                continue
            reachable.add(node)
            frontier.extend(edges[node])
        closure.update((start, node) for node in reachable)
    return frozenset(closure)


def _inherited_contradictions(relations: RelationSet, accept: Callable[[str], bool]) -> set[tuple[str, str]]:
    """Contradiction pairs closed under refinement strengthening, between ids that ``accept`` takes.

    If contr(x, y) holds and x' refines x, then contr(x', y): the stronger
    statement inherits every incompatibility of the weaker one it subsumes.
    One reverse walk from each endpoint finds it and its transitive refiners;
    only the accepted ones enter the product, and each pair comes once, sorted.
    Degenerate self-pairs (an element refining both sides) are dropped; the
    relation stays irreflexive.
    """
    direct: dict[str, list[str]] = {}
    for strong, weaker in relations.refinement_order.items():  # raises CycleError on a cycle
        for weak in weaker:
            direct.setdefault(weak, []).append(strong)

    covered: dict[str, list[str]] = {}
    for x in {i for pair in relations.contradicts for i in pair}:
        seen = {x}
        frontier = [x]
        while frontier:
            for strong in direct.get(frontier.pop(), ()):
                if strong not in seen:
                    seen.add(strong)
                    frontier.append(strong)
        covered[x] = [i for i in seen if accept(i)]

    derived: set[tuple[str, str]] = set()
    for x, y in relations.contradicts:
        for a in covered[x]:
            for b in covered[y]:
                if a != b:
                    derived.add((a, b) if a < b else (b, a))
    return derived


def derive_contradictions(relations: RelationSet) -> frozenset[frozenset[str]]:
    """Contradiction pairs closed under refinement strengthening, over ids of either role, each as a frozenset."""
    return frozenset(map(frozenset, _inherited_contradictions(relations, lambda i: True)))


class ConflictRecord(NamedTuple):
    pair: tuple[str, str]  # sorted endpoints
    origin: str  # "explicit" | "derived"


def find_conflicts(corpus: Corpus) -> list[ConflictRecord]:
    """Every derived contradiction between two requirements (not sources), sorted."""
    items = corpus.by_id
    pairs = sorted(_inherited_contradictions(corpus.relations, lambda i: isinstance(items.get(i), Requirement)))
    return [ConflictRecord(pair, "explicit" if pair in corpus.relations.contradicts else "derived") for pair in pairs]

"""Refinement order, contradiction derivation and conflicts."""

from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import dataclass
from typing import TypeVar

from reqlattice.errors import CycleError, UnknownIdError
from reqlattice.model import Corpus, RelationSet

K = TypeVar("K")


def check_acyclic(
    relations: RelationSet, ids: set[str] | frozenset[str]
) -> dict[str, set[str]]:
    """Adjacency of ``refines`` restricted to ``ids``, checked to be acyclic,
    keyed in topological order (the search's finishing order, reversed).

    Raises CycleError with one witness cycle. The depth-first search visits
    starts and successors in sorted order, so the witness is reproducible;
    it keeps an explicit stack, so chain depth is not bounded by the
    interpreter's recursion limit.
    """
    edges: dict[str, set[str]] = {i: set() for i in ids}
    for a, b in relations.refines:
        if a in edges and b in edges:
            edges[a].add(b)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {i: WHITE for i in ids}
    finished: list[str] = []
    for start in sorted(ids):
        if color[start] != WHITE:
            continue
        color[start] = GREY
        path = [start]
        pending = [iter(sorted(edges[start]))]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GREY:
                    raise CycleError(path[path.index(nxt):])
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(sorted(edges[nxt])))
                    break
            else:
                color[path[-1]] = BLACK
                finished.append(path.pop())
                pending.pop()
    return {i: edges[i] for i in reversed(finished)}


def min_refiner(
    relations: RelationSet, ids: Collection[str], key: Callable[[str], K]
) -> dict[str, K]:
    """Least ``key(u)`` over each id's strict transitive refiners ``u``.

    Only ``refines`` pairs with both ends in ``ids`` count, and an id that
    nothing in ``ids`` refines has no entry. One pass over the cached
    refinement order carries ``min(key(a), best[a])`` along every edge
    ``a -> b`` inside ``ids``, so no closure is built. A cyclic relation
    raises CycleError, whatever ``ids`` holds.
    """
    best: dict[str, K] = {}
    for a, weaker in relations.refinement_order.items():
        if a not in ids:
            continue
        carried = key(a)
        if a in best and best[a] < carried:
            carried = best[a]
        for b in weaker:
            if b in ids and (b not in best or carried < best[b]):
                best[b] = carried
    return best


def refinement_closure(
    relations: RelationSet, ids: set[str] | frozenset[str]
) -> frozenset[tuple[str, str]]:
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


def derive_contradictions(relations: RelationSet) -> frozenset[frozenset[str]]:
    """Contradiction pairs closed under refinement strengthening.

    If contr(x, y) holds and x' refines x, then contr(x', y): the stronger
    statement inherits every incompatibility of the weaker one it subsumes.
    Degenerate self-pairs (an element refining both sides) are dropped; the
    relation stays irreflexive.
    """
    endpoints = {i for pair in relations.contradicts for i in pair}
    direct: dict[str, list[str]] = {}
    for strong, weaker in relations.refinement_order.items():  # raises CycleError on a cycle
        for weak in weaker:
            direct.setdefault(weak, []).append(strong)

    # each endpoint with all its transitive refiners, by a reverse walk
    covered: dict[str, set[str]] = {}
    for x in endpoints:
        seen = {x}
        frontier = [x]
        while frontier:
            for strong in direct.get(frontier.pop(), ()):
                if strong not in seen:
                    seen.add(strong)
                    frontier.append(strong)
        covered[x] = seen

    derived: set[frozenset[str]] = set()
    for x, y in relations.contradicts:
        for a in covered[x]:
            for b in covered[y]:
                if a != b:
                    derived.add(frozenset((a, b)))
    return frozenset(derived)


@dataclass(frozen=True)
class ConflictRecord:
    pair: tuple[str, str]  # sorted endpoints
    origin: str  # "explicit" | "derived"


def find_conflicts(corpus: Corpus, scope: set[str] | frozenset[str]) -> list[ConflictRecord]:
    """Every derived contradiction with both endpoints in ``scope``, sorted."""
    known = corpus.requirement_map()
    for rid in sorted(scope):
        if rid not in known:
            raise UnknownIdError(rid)
    explicit = {frozenset(p) for p in corpus.relations.contradicts}
    out = []
    for pair in derive_contradictions(corpus.relations):
        a, b = sorted(pair)
        if a in scope and b in scope:
            out.append(ConflictRecord((a, b), "explicit" if pair in explicit else "derived"))
    out.sort(key=lambda c: c.pair)
    return out

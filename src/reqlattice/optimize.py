"""Redundancy removal under the refinement order: strongest and baseline sets.

The strongest set keeps the maximal elements of the refinement order (every
weaker, subsumed version is removed and its refining witness recorded); the
baseline keeps the minimal elements, the floor any compliant system must meet.
"""

from __future__ import annotations

from typing import NamedTuple

from reqlattice.model import Corpus, RequirementKind
from reqlattice.relations import ConflictRecord, find_conflicts, min_refiner


class OptimizedView(NamedTuple):
    scope: str
    strongest: frozenset[str]
    baseline: frozenset[str]
    removed: dict[str, str]  # removed id -> witness refining id


def optimize(ids: set[str] | frozenset[str], corpus: Corpus, scope: str) -> OptimizedView:
    """Strongest set, removal witnesses and baseline of the order restricted to ``ids``.

    A removed id's witness is its smallest transitive refiner; the baseline
    is every id that refines nothing in ``ids``.
    """
    return _view(ids, min_refiner(corpus.relations, dict.fromkeys(ids, scope)), corpus, scope)


def _view(ids: set[str] | frozenset[str], refiners: dict[str, str], corpus: Corpus, scope: str) -> OptimizedView:
    """The view of ``ids`` from a :func:`min_refiner` map in which ``ids``
    share one scope that joins them to no other id by ``refines``."""
    order = corpus.relations.refinement_order
    removed = {i: refiners[i] for i in ids if i in refiners}
    return OptimizedView(
        scope=scope,
        strongest=frozenset(i for i in ids if i not in removed),
        baseline=frozenset(i for i in ids if ids.isdisjoint(order.get(i, ()))),
        removed=removed,
    )


class GlobalView(NamedTuple):
    per_jurisdiction: dict[str, dict[str, OptimizedView]]  # jid -> kind -> view
    global_per_kind: dict[str, OptimizedView]
    global_all: OptimizedView
    conflicts: list[ConflictRecord]


def global_view(corpus: Corpus) -> GlobalView:
    """Per-kind, per-jurisdiction and global optimized sets plus conflicts,
    from two :func:`min_refiner` passes, one scoped by jurisdiction and one
    global: ``refines`` never joins two kinds (``RELATION_KIND_MISMATCH``),
    so no kind needs a pass of its own."""
    by_jurisdiction = min_refiner(corpus.relations, {r.id: r.jurisdiction for r in corpus.requirements})
    overall = min_refiner(corpus.relations, dict.fromkeys((r.id for r in corpus.requirements), "global"))
    ids = {(j.id, kind): {r.id for r in corpus.members.get((j.id, kind), ())}
           for j in corpus.jurisdictions for kind in RequirementKind}
    per_jur = {
        j.id: {kind.value: _view(ids[j.id, kind], by_jurisdiction, corpus, f"{kind.value}@{j.id}") for kind in RequirementKind}
        for j in corpus.jurisdictions
    }

    per_kind = {kind: set().union(*(ids[j.id, kind] for j in corpus.jurisdictions)) for kind in RequirementKind}
    global_per_kind = {kind.value: _view(per_kind[kind], overall, corpus, f"{kind.value}@global") for kind in RequirementKind}

    return GlobalView(
        per_jurisdiction=per_jur,
        global_per_kind=global_per_kind,
        global_all=_view(set().union(*per_kind.values()), overall, corpus, "all@global"),
        conflicts=find_conflicts(corpus),
    )

"""Redundancy removal under the refinement order: strongest and baseline sets.

The strongest set keeps the maximal elements of the refinement order (every
weaker, subsumed version is removed and its refining witness recorded); the
baseline keeps the minimal elements, the floor any compliant system must meet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from reqlattice.model import Corpus, RequirementKind
from reqlattice.relations import ConflictRecord, find_conflicts, min_refiner


@dataclass(frozen=True)
class OptimizedView:
    scope: str
    strongest: frozenset[str]
    baseline: frozenset[str]
    removed: dict[str, str]  # removed id -> witness refining id


def optimize(ids: set[str] | frozenset[str], corpus: Corpus, scope: str) -> OptimizedView:
    """Strongest set, removal witnesses and baseline of the order restricted to ``ids``.

    A removed id's witness is its smallest transitive refiner; the baseline
    is every id that refines nothing in ``ids``.
    """
    removed = min_refiner(corpus.relations, ids, lambda rid: rid)
    order = corpus.relations.refinement_order
    return OptimizedView(
        scope=scope,
        strongest=frozenset(i for i in ids if i not in removed),
        baseline=frozenset(i for i in ids if ids.isdisjoint(order.get(i, ()))),
        removed=removed,
    )


@dataclass(frozen=True)
class GlobalView:
    per_jurisdiction: dict[str, dict[str, OptimizedView]]  # jid -> kind -> view
    global_per_kind: dict[str, OptimizedView]
    global_all: OptimizedView
    conflicts: list[ConflictRecord] = field(default_factory=list)


def global_view(corpus: Corpus) -> GlobalView:
    """Per-kind, per-jurisdiction and global optimized sets plus conflicts.

    The conflict list over the global union is what feeds the TOPSIS ranking.
    """
    buckets: dict[tuple[str, RequirementKind], set[str]] = {}
    for r in corpus.requirements:
        buckets.setdefault((r.jurisdiction, r.kind), set()).add(r.id)
    per_jur = {
        j.id: {kind.value: optimize(buckets.get((j.id, kind), set()), corpus, f"{kind.value}@{j.id}")
               for kind in RequirementKind}
        for j in corpus.jurisdictions
    }

    global_per_kind = {
        kind.value: optimize({r.id for r in corpus.requirements if r.kind is kind}, corpus, f"{kind.value}@global")
        for kind in RequirementKind
    }

    all_ids = {r.id for r in corpus.requirements}
    return GlobalView(
        per_jurisdiction=per_jur,
        global_per_kind=global_per_kind,
        global_all=optimize(all_ids, corpus, "all@global"),
        conflicts=find_conflicts(corpus, all_ids),
    )


def conflict_requirement_ids(conflicts: list[ConflictRecord]) -> list[str]:
    """Sorted requirement ids involved in any of the conflicts."""
    return sorted({i for record in conflicts for i in record.pair})

"""Level composition: effective requirement sets and hierarchy lint.

A node's effective requirements are its own plus everything inherited from
ancestor jurisdictions, with refinement shadowing: when a nearer requirement
refines an ancestor's, the weaker ancestor version is dropped. Selecting a
level turns each frontier node (plus its inherited items) into one analysis
unit, so the flat partition engine works unchanged at any level.
"""

from __future__ import annotations

from dataclasses import dataclass

from reqlattice.errors import UnknownIdError
from reqlattice.model import Corpus, Level, RequirementKind
from reqlattice.partition import ItemView
from reqlattice.relations import refinement_closure


@dataclass(frozen=True)
class LevelSelection:
    level: Level
    frontier: tuple[str, ...]  # jurisdiction ids at that level, sorted


def select_level(corpus: Corpus, level: Level) -> LevelSelection:
    frontier = tuple(sorted(j.id for j in corpus.jurisdictions if j.level is level))
    return LevelSelection(level=level, frontier=frontier)


def effective_requirements(corpus: Corpus, node: str) -> frozenset[str]:
    """Requirement ids visible at ``node``: own plus non-shadowed ancestors'."""
    if node not in corpus.jurisdiction_map():
        raise UnknownIdError(node)
    chain = [node, *corpus.ancestors(node)]  # nearest first
    depth = {jid: i for i, jid in enumerate(chain)}
    pool = [r for r in corpus.requirements if r.jurisdiction in depth]
    ids = {r.id for r in pool}
    closure = refinement_closure(corpus.relations, ids)
    by_id = {r.id: r for r in pool}

    shadowed: set[str] = set()
    for strong, weak in closure:
        # only a strictly nearer requirement shadows an ancestor's version
        if depth[by_id[strong].jurisdiction] < depth[by_id[weak].jurisdiction]:
            shadowed.add(weak)
    return frozenset(ids - shadowed)


def effective_sources(corpus: Corpus, node: str, kind=None) -> frozenset[str]:
    """Source ids visible at ``node``: plain union with ancestors (no shadowing)."""
    if node not in corpus.jurisdiction_map():
        raise UnknownIdError(node)
    visible = {node, *corpus.ancestors(node)}
    return frozenset(
        s.id for s in corpus.sources
        if s.jurisdiction in visible and (kind is None or s.kind is kind)
    )


def level_requirement_view(corpus: Corpus, selection: LevelSelection) -> dict[RequirementKind, ItemView]:
    """Per-kind, per-frontier-node requirement sets, for partition analysis.

    Each frontier node's effective set is computed once and split by kind.
    """
    rmap = corpus.requirement_map()
    views: dict[RequirementKind, ItemView] = {
        kind: {node: [] for node in selection.frontier} for kind in RequirementKind
    }
    for node in selection.frontier:
        for rid in sorted(effective_requirements(corpus, node)):
            views[rmap[rid].kind][node].append(rmap[rid])
    return views


def level_source_view(corpus: Corpus, selection: LevelSelection, kind) -> ItemView:
    smap = corpus.source_map()
    return {
        node: [smap[sid] for sid in sorted(effective_sources(corpus, node, kind))]
        for node in selection.frontier
    }


@dataclass(frozen=True)
class HierarchyFinding:
    code: str
    jurisdiction: str
    message: str


def validate_hierarchy(corpus: Corpus) -> list[HierarchyFinding]:
    """Lint the jurisdiction forest; returns findings, never raises.

    Works on corpora that would fail hard validation, so broken trees can be
    diagnosed instead of merely rejected.
    """
    findings: list[HierarchyFinding] = []
    jmap = corpus.jurisdiction_map()
    for j in sorted(corpus.jurisdictions, key=lambda j: j.id):
        parent = jmap.get(j.parent) if j.parent else None
        if j.level is Level.NATIONAL and j.parent is not None:
            findings.append(HierarchyFinding(
                "LEVEL_ORDER", j.id, f"national node {j.id!r} must not have a parent"))
        elif j.level is Level.STATE:
            if parent is None:
                findings.append(HierarchyFinding(
                    "ORPHAN_STATE", j.id, f"state {j.id!r} has no national parent"))
            elif parent.level is not Level.NATIONAL:
                findings.append(HierarchyFinding(
                    "LEVEL_ORDER", j.id,
                    f"state {j.id!r} has a {parent.level.value} parent"))
        elif j.level is Level.ORGANISATIONAL:
            if parent is None:
                findings.append(HierarchyFinding(
                    "ORG_WITHOUT_ANCESTOR", j.id,
                    f"organisational node {j.id!r} is not under any state or national node"))
            elif parent.level is Level.ORGANISATIONAL:
                findings.append(HierarchyFinding(
                    "LEVEL_ORDER", j.id,
                    f"organisational node {j.id!r} has an organisational parent"))
        if j.parent is not None and j.parent not in jmap:
            findings.append(HierarchyFinding(
                "DANGLING_PARENT", j.id, f"node {j.id!r} references unknown parent {j.parent!r}"))
    return findings

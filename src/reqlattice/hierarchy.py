"""Level composition: effective requirement sets and hierarchy lint.

A node's effective requirements are its own plus everything inherited from
ancestor jurisdictions, with refinement shadowing: when a nearer requirement
refines an ancestor's, the weaker ancestor version is dropped. Each node's
set is built on first read, from its parent's, and kept on the corpus, as
``own(child) ∪ (effective(parent) − reach(own(child)))``, where ``reach``
follows ``refines`` from the child's own items through items of the child
and its ancestors only: an inherited item is shadowed through an own item,
or was already shadowed at the parent.
Selecting a level turns each frontier node (plus its inherited items) into
one analysis unit, so the flat partition engine works unchanged at any level.
"""

from __future__ import annotations

from reqlattice.errors import UnknownIdError
from reqlattice.model import Corpus, Level, RequirementKind, SourceKind
from reqlattice.partition import Finding, ItemView


def select_level(corpus: Corpus, level: Level) -> tuple[str, ...]:
    """The frontier of ``level``: the ids of its jurisdictions, in id order."""
    return tuple(j.id for j in corpus.jurisdictions if j.level is level)


def effective_requirements(corpus: Corpus, node: str) -> frozenset[str]:
    """Requirement ids visible at ``node``: own plus non-shadowed ancestors',
    built on first read from the parent's set and kept in ``corpus.effective_sets``.
    The parent comes from the ancestor chains: a valid forest, as loaded."""
    memo = corpus.effective_sets
    if node in memo:
        return memo[node]
    chain = corpus.ancestor_chains.get(node)
    if chain is None:
        raise UnknownIdError(node)
    pool = {node, *chain}
    own = {r.id for kind in RequirementKind for r in corpus.members.get((node, kind), ())}
    reach: set[str] = set()
    pending = list(own)
    order = corpus.relations.refinement_order
    while pending:
        for weak in order.get(pending.pop(), ()):
            if weak not in reach and corpus.by_id[weak].jurisdiction in pool:
                reach.add(weak)
                pending.append(weak)
    inherited = effective_requirements(corpus, chain[0]) if chain else frozenset()
    # from a list: a frozenset copied from a set gets a table twice as large;
    # setdefault, so concurrent first readers share one set
    return memo.setdefault(node, frozenset([*own, *(inherited - reach)]))


def level_requirement_view(corpus: Corpus, frontier: tuple[str, ...]) -> dict[RequirementKind, ItemView]:
    """Per-kind, per-frontier-node requirements, for partition analysis:
    each frontier node's effective set, split by kind."""
    views: dict[RequirementKind, ItemView] = {kind: {node: [] for node in frontier} for kind in RequirementKind}
    for node in frontier:
        for rid in effective_requirements(corpus, node):
            r = corpus.by_id[rid]
            views[r.kind][node].append(r)
    return views


def level_source_view(corpus: Corpus, frontier: tuple[str, ...]) -> dict[SourceKind, ItemView]:
    """Per-kind, per-frontier-node sources, for partition analysis: a node
    sees its own sources plus every ancestor's (no shadowing)."""
    return {kind: {node: [s for jid in (node, *corpus.ancestor_chains[node]) for s in corpus.members.get((jid, kind), ())]
                   for node in frontier} for kind in SourceKind}


# the finding for a state or organisational node without a parent
_ORPHANS = {
    Level.STATE: ("ORPHAN_STATE", "state {!r} has no national parent"),
    Level.ORGANISATIONAL: ("ORG_WITHOUT_ANCESTOR", "organisational node {!r} is not under any state or national node"),
}


def validate_hierarchy(corpus: Corpus) -> list[Finding]:
    """Warn of each orphan in the jurisdiction forest, a state or organisational
    node without a parent, by its id. A dangling parent or one at a disallowed
    level is rejected by :func:`~reqlattice.model.validate_corpus`, not here.
    """
    findings: list[Finding] = []
    for j in corpus.jurisdictions:
        if j.parent is None and j.level in _ORPHANS:
            code, message = _ORPHANS[j.level]
            findings.append(Finding(code, "warning", j.id, message.format(j.id)))
    return findings

"""Level composition: effective requirement sets, level views and hierarchy lint.

A node's effective requirements are its own plus everything inherited from
ancestor jurisdictions, with refinement shadowing: an ancestor's requirement
is dropped when an own item refines it along ``refines`` through ancestors'
items only, or when it was already dropped at the parent. Each node's set is
built on first read, from its parent's, and kept on the corpus.
A level view turns each frontier node into one analysis unit without copying
what it inherits: the node reads its own and each ancestor's items, one
shared segment per jurisdiction, less the few ids that shadowing removes.
"""

from __future__ import annotations

from reqlattice.errors import UnknownIdError
from reqlattice.model import Corpus, Level, RequirementKind
from reqlattice.partition import Finding, Reads


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
    own = [r.id for kind in RequirementKind for r in corpus.members.get((node, kind), ())]
    inherited = effective_requirements(corpus, chain[0]) if chain else frozenset()
    # from a list: a frozenset copied from a set gets a table twice as large;
    # setdefault, so concurrent first readers share one set
    shadow = shadowed(corpus, node, own)
    return memo.setdefault(node, frozenset([*own, *(inherited - shadow if shadow else inherited)]))


def shadowed(corpus: Corpus, node: str, own: list[str]) -> set[str]:
    """The ancestors' requirement ids that ``own``, requirement ids of ``node``,
    refine along ``refines`` paths through the ancestors' items only."""
    ancestors = corpus.ancestor_chains[node]
    by_id, order = corpus.by_id, corpus.relations.refinement_order
    reach: set[str] = set()
    pending = list(own)
    while pending:
        for weak in order.get(pending.pop(), ()):
            if weak not in reach and by_id[weak].jurisdiction in ancestors:
                reach.add(weak)
                pending.append(weak)
    return reach


def level_requirement_view(corpus: Corpus, frontier: tuple[str, ...]) -> Reads:
    """What each frontier node reads for requirement partitions: its own and its ancestors'
    items, less the ids that its or an ancestor's shadowing removes, a set siblings share."""
    by_id, order, chains = corpus.by_id, corpus.relations.refinement_order, corpus.ancestor_chains
    refiners: dict[str, list[str]] = {}  # jurisdiction -> its requirements that refine another
    for strong, weaker in order.items():
        if weaker and by_id[strong].role == "requirement":
            refiners.setdefault(by_id[strong].jurisdiction, []).append(strong)
    hidden: dict[str, frozenset[str]] = {}
    for jid in sorted({jid for node in frontier for jid in (node, *chains[node])}, key=lambda jid: len(chains[jid])):
        above = hidden[chains[jid][0]] if chains[jid] else frozenset()  # top down: the parent's is there
        shadow = shadowed(corpus, jid, refiners.get(jid, []))
        hidden[jid] = above | shadow if shadow else above
    return {node: ((node, *chains[node]), hidden[node]) for node in frontier}


def level_source_view(corpus: Corpus, frontier: tuple[str, ...]) -> Reads:
    """What each frontier node reads for source partitions: its own sources
    plus every ancestor's (no shadowing)."""
    return {node: ((node, *corpus.ancestor_chains[node]), frozenset()) for node in frontier}


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

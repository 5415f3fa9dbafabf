"""General/specific decomposition of sources and requirements.

An item is *general* when every analyzed jurisdiction holds a semantically
identical counterpart (same concept key, same content hash); everything else
is *specific* to the jurisdiction holding it. Decomposition is computed per
kind (legal / cultural / functional) and always forms a disjoint cover.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from reqlattice.errors import PartitionMismatchError
from reqlattice.model import SOURCE_KIND_FOR_REQUIREMENT, Corpus, RequirementKind, SourceKind
from reqlattice.relations import derive_contradictions


@dataclass(frozen=True)
class Partition:
    role: str  # "sources" | "requirements"
    kind: str  # legal | cultural | legalBased | culturalBased | functional
    general: frozenset[str]
    specific: dict[str, frozenset[str]]  # jurisdiction id -> item ids
    general_concepts: dict[str, frozenset[str]]  # concept key -> the grouped ids
    corpus: Corpus = field(compare=False, repr=False)  # the corpus it was computed from

    def owner_of(self, item_id: str) -> str | None:
        """Jurisdiction whose specific set holds the id, or None if general.

        In a level view an inherited item sits in several frontier buckets;
        the first bucket in ``specific`` order owns it.
        """
        return self.holders.get(item_id, (None,))[0]

    @cached_property
    def holders(self) -> dict[str, list[str]]:
        """Each specific id's buckets, in ``specific`` order, built once. Shared, so never mutate it."""
        holders: dict[str, list[str]] = {}
        for jid, bucket in self.specific.items():
            for item_id in bucket:
                holders.setdefault(item_id, []).append(jid)
        return holders


class ScenarioOption(str, Enum):
    DISJOINT = "Disjoint"
    IDENTICAL_GENERAL = "IdenticalGeneral"
    PARTIAL_OVERLAP = "PartialOverlap"


class Finding(NamedTuple):
    code: str
    severity: str  # "error" | "warning"
    item_id: str
    message: str


ItemView = dict[str, Sequence]  # jurisdiction id -> items, read as a set (their order means nothing)
Reads = dict[str, tuple[tuple[str, ...], frozenset[str]]]  # node -> (it, then each ancestor it reads; ids it does not see)


def flat_view(corpus: Corpus, kind: SourceKind | RequirementKind) -> ItemView:
    """Flat view: each jurisdiction owns exactly its own items of ``kind``."""
    return {j.id: corpus.members.get((j.id, kind), ()) for j in corpus.jurisdictions}


def _partition(role: str, corpus: Corpus, kind: SourceKind | RequirementKind,
               view: ItemView | None, reads: Reads | None) -> Partition:
    """``view`` holds each jurisdiction's own items (the flat view by default)
    and ``reads`` the frontier in bucket order, by default each jurisdiction
    of ``view`` reading only its own. Each item is read once."""
    view = flat_view(corpus, kind) if view is None else view
    above = corpus.ancestor_chains  # at a level, a jurisdiction's items are read below it too
    if reads is None:  # flat: no jurisdiction reads another's items
        reads, above = {jid: ((jid,), frozenset()) for jid in view}, None
    width = Counter(jid for chain, _ in reads.values() for jid in chain)  # jurisdiction -> frontier nodes reading it
    # a general concept is seen by every frontier node, so by the first one
    chain, ids = next(iter(reads.values()), ((), frozenset()))
    held: dict[str, list] = {item.concept_key: [] for jid in chain for item in view.get(jid, ()) if item.id not in ids}
    for jid in width:
        for item in view.get(jid, ()):
            if (items := held.get(item.concept_key)) is not None:
                items.append(item)
    hidden = frozenset().union(*{ids for _, ids in reads.values()})

    # general: every frontier node sees an item of the concept, and every item seen has one hash
    general_concepts: dict[str, frozenset[str]] = {}
    for key, items in held.items():
        holders = {item.jurisdiction for item in items}
        # the topmost holders' readers are disjoint: they must cover the frontier
        if sum(width[jid] for jid in holders if above is None or holders.isdisjoint(above[jid])) < len(reads):
            continue
        if hidden and not hidden.isdisjoint([item.id for item in items]):  # some node does not see some item
            seen_by = [[item for item in items if item.jurisdiction in chain and item.id not in ids]
                       for chain, ids in reads.values()]
            if not all(seen_by):
                continue
            items = {item for found in seen_by for item in found}
        if len({item.content_hash for item in items}) == 1:
            general_concepts[key] = frozenset([item.id for item in items])

    own_specific = {jid: frozenset([item.id for item in view.get(jid, ()) if item.concept_key not in general_concepts])
                    for jid in width}
    specific = {node: own_specific[node].union(*map(own_specific.__getitem__, chain[1:])) - ids if chain[1:]
                else own_specific[node] for node, (chain, ids) in reads.items()}
    return Partition(role=role, kind=kind.value, general=frozenset().union(*general_concepts.values()),
                     specific=specific, general_concepts=general_concepts, corpus=corpus)


def partition_sources(corpus: Corpus, kind: SourceKind, view: ItemView | None = None,
                      reads: Reads | None = None) -> Partition:
    return _partition("sources", corpus, kind, view, reads)


def partition_requirements(corpus: Corpus, kind: RequirementKind, view: ItemView | None = None,
                           reads: Reads | None = None) -> Partition:
    return _partition("requirements", corpus, kind, view, reads)


def _check_same_corpus(corpus: Corpus, *parts: Partition) -> None:
    for part in parts:
        if part.corpus != corpus:
            raise PartitionMismatchError(f"partition of {part.role}/{part.kind} was computed from a different corpus")


def check_elaboration(corpus: Corpus, parts: dict[str, Partition]) -> list[Finding]:
    """Verify the elaboration discipline between requirement and source sets.

    ``parts`` maps each kind value to its partition. General requirements
    must derive only from general sources; a jurisdiction-specific
    requirement may use the jurisdiction's own sources plus general ones,
    and is expected to use at least one specific source (warning otherwise:
    it could arguably be general). A requirement that the partition's level
    view leaves out is not judged.
    """
    _check_same_corpus(corpus, *parts.values())
    findings: list[Finding] = []
    for req_kind, src_kind in SOURCE_KIND_FOR_REQUIREMENT.items():
        rp, sp = parts[req_kind.value], parts[src_kind.value]
        for r in corpus.requirements:
            if r.kind is not req_kind:
                continue
            sources = sorted(r.derived_from)
            if r.id in rp.general:
                for sid in sources:
                    if sid not in sp.general:
                        findings.append(Finding(
                            "GENERAL_REQ_SPECIFIC_SOURCE", "error", r.id,
                            f"general requirement {r.id!r} derives from non-general source {sid!r}",
                        ))
            else:
                owner = rp.owner_of(r.id)
                if owner is None:  # no bucket of the level view holds it
                    continue
                own = sp.specific.get(owner, frozenset())
                for sid in sources:
                    if sid not in own and sid not in sp.general:
                        findings.append(Finding(
                            "SPECIFIC_REQ_FOREIGN_SOURCE", "error", r.id,
                            f"requirement {r.id!r} of {owner!r} derives from out-of-scope source {sid!r}",
                        ))
                if not any(sid in own for sid in sources):
                    findings.append(Finding(
                        "SPECIFIC_REQ_NO_SPECIFIC_SOURCE", "warning", r.id,
                        f"specific requirement {r.id!r} uses no source specific to {owner!r}",
                    ))
    return findings


def check_specific_contradiction_condition(corpus: Corpus, *parts: Partition) -> list[Finding]:
    """Warn for specific items lacking any cross-jurisdiction contradiction.

    Specific-set membership here is defined by non-generality alone; the
    stricter reading (every specific item must clash with some other
    jurisdiction's item) is surfaced as warnings so ``--strict`` runs can
    escalate them. Contradictions are derived once for all ``parts``; the
    findings follow the order of the parts.
    """
    _check_same_corpus(corpus, *parts)
    partners: dict[str, set[str]] = {}
    for a, b in derive_contradictions(corpus.relations):
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)

    findings: list[Finding] = []
    for part in parts:
        holders = part.holders
        for jid in sorted(part.specific):
            own = [jid]
            for item_id in sorted(part.specific[jid]):
                # it passes when some partner is held by a bucket other than its own
                if all(holders.get(p, own) == own for p in partners.get(item_id, ())):
                    findings.append(Finding(
                        "NO_CROSS_CONTRADICTION", "warning", item_id,
                        f"specific item {item_id!r} of {jid!r} contradicts nothing in any other jurisdiction",
                    ))
    return findings


def classify_scenario(source_part: Partition) -> ScenarioOption | None:
    """The aspect's overlap scenario, or None when the aspect has no items."""
    any_specific = any(source_part.specific.values())
    if not (source_part.general or any_specific):
        return None
    if not source_part.general:
        return ScenarioOption.DISJOINT
    if not any_specific:
        return ScenarioOption.IDENTICAL_GENERAL
    return ScenarioOption.PARTIAL_OVERLAP

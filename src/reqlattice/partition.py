"""General/specific decomposition of sources and requirements.

An item is *general* when every analyzed jurisdiction holds a semantically
identical counterpart (same concept key, same content hash); everything else
is *specific* to the jurisdiction holding it. Decomposition is computed per
kind (legal / cultural / functional) and always forms a disjoint cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from reqlattice.errors import EmptyAspectError, PartitionMismatchError
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

    def all_ids(self) -> frozenset[str]:
        ids = set(self.general)
        for bucket in self.specific.values():
            ids |= bucket
        return frozenset(ids)

    def owner_of(self, item_id: str) -> str | None:
        """Jurisdiction whose specific set holds the id, or None if general.

        In a level view an inherited item sits in several frontier buckets;
        the first bucket in ``specific`` order owns it.
        """
        return self._owners.get(item_id)

    @cached_property
    def _owners(self) -> dict[str, str]:
        owners: dict[str, str] = {}
        for jid, bucket in self.specific.items():
            for item_id in bucket:
                owners.setdefault(item_id, jid)
        return owners


class ScenarioOption(str, Enum):
    DISJOINT = "Disjoint"
    IDENTICAL_GENERAL = "IdenticalGeneral"
    PARTIAL_OVERLAP = "PartialOverlap"


@dataclass(frozen=True)
class ScenarioClass:
    aspect: str  # "legal" | "cultural"
    option: ScenarioOption
    note: str


@dataclass(frozen=True)
class Finding:
    code: str
    severity: str  # "error" | "warning"
    item_id: str
    message: str


ItemView = dict[str, list]  # jurisdiction id -> items analyzed as that node's set


def flat_view(corpus: Corpus, kind: SourceKind | RequirementKind) -> ItemView:
    """Flat view: each jurisdiction owns exactly its own items of ``kind``."""
    items = corpus.sources if isinstance(kind, SourceKind) else corpus.requirements
    view: ItemView = {j.id: [] for j in corpus.jurisdictions}
    for item in items:
        if item.kind is kind:
            view[item.jurisdiction].append(item)
    return view


def _partition(role: str, corpus: Corpus, kind: SourceKind | RequirementKind, view: ItemView | None) -> Partition:
    if view is None:
        view = flat_view(corpus, kind)
    # concept -> jurisdiction ids holding it, and the full hash set
    holders: dict[str, set[str]] = {}
    hashes: dict[str, set[str]] = {}
    for jid, items in view.items():
        for item in items:
            holders.setdefault(item.concept_key, set()).add(jid)
            hashes.setdefault(item.concept_key, set()).add(item.content_hash)

    all_jids = set(view)
    general_keys = {
        key for key in holders
        if holders[key] == all_jids and len(hashes[key]) == 1
    }

    general: set[str] = set()
    general_concepts: dict[str, set[str]] = {}
    specific: dict[str, set[str]] = {jid: set() for jid in view}
    for jid, items in view.items():
        for item in items:
            if item.concept_key in general_keys:
                general.add(item.id)
                general_concepts.setdefault(item.concept_key, set()).add(item.id)
            else:
                specific[jid].add(item.id)

    return Partition(
        role=role,
        kind=kind.value,
        general=frozenset(general),
        specific={jid: frozenset(ids) for jid, ids in specific.items()},
        general_concepts={k: frozenset(v) for k, v in general_concepts.items()},
        corpus=corpus,
    )


def partition_sources(corpus: Corpus, kind: SourceKind, view: ItemView | None = None) -> Partition:
    return _partition("sources", corpus, kind, view)


def partition_requirements(corpus: Corpus, kind: RequirementKind, view: ItemView | None = None) -> Partition:
    return _partition("requirements", corpus, kind, view)


def _check_same_corpus(corpus: Corpus, *parts: Partition) -> None:
    for part in parts:
        if part.corpus != corpus:
            raise PartitionMismatchError(
                f"partition of {part.role}/{part.kind} was computed from a different corpus"
            )


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
    contradictions = derive_contradictions(corpus.relations)
    partners: dict[str, set[str]] = {}
    for pair in contradictions:
        a, b = sorted(pair)
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)

    findings: list[Finding] = []
    for part in parts:
        for jid in sorted(part.specific):
            others: set[str] = set()
            for other_jid, bucket in part.specific.items():
                if other_jid != jid:
                    others |= bucket
            for item_id in sorted(part.specific[jid]):
                if not partners.get(item_id, set()) & others:
                    findings.append(Finding(
                        "NO_CROSS_CONTRADICTION", "warning", item_id,
                        f"specific item {item_id!r} of {jid!r} contradicts nothing in any other jurisdiction",
                    ))
    return findings


_SCENARIO_NOTES = {
    ScenarioOption.DISJOINT:
        "no jurisdiction shares any item; rare in practice, every per-jurisdiction set needs its own review",
    ScenarioOption.IDENTICAL_GENERAL:
        "all jurisdictions share identical items; one shared system can serve every jurisdiction",
    ScenarioOption.PARTIAL_OVERLAP:
        "a shared core plus per-jurisdiction deltas; the usual situation, well served by splitting shared and specific components",
}


def classify_scenario(source_part: Partition) -> ScenarioClass:
    total = len(source_part.all_ids())
    if total == 0:
        raise EmptyAspectError(f"no {source_part.kind} items in the corpus")
    any_specific = any(source_part.specific.values())
    if not source_part.general:
        option = ScenarioOption.DISJOINT
    elif not any_specific:
        option = ScenarioOption.IDENTICAL_GENERAL
    else:
        option = ScenarioOption.PARTIAL_OVERLAP
    return ScenarioClass(aspect=source_part.kind, option=option, note=_SCENARIO_NOTES[option])

"""Domain types for jurisdictions, sources, requirements and their relations.

Dataclasses here do not self-validate; :func:`validate_corpus` checks every
structural invariant and raises :class:`~reqlattice.errors.ValidationError`.
This split lets analysis helpers (e.g. hierarchy lint) inspect deliberately
broken corpora built in code.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property


class Level(str, Enum):
    NATIONAL = "national"
    STATE = "state"
    ORGANISATIONAL = "organisational"


class SourceKind(str, Enum):
    LEGAL = "legal"
    CULTURAL = "cultural"


class RequirementKind(str, Enum):
    LEGAL_BASED = "legalBased"
    CULTURAL_BASED = "culturalBased"
    FUNCTIONAL = "functional"


#: Which source kind a requirement kind may be elaborated from.
SOURCE_KIND_FOR_REQUIREMENT = {
    RequirementKind.LEGAL_BASED: SourceKind.LEGAL,
    RequirementKind.CULTURAL_BASED: SourceKind.CULTURAL,
}

_WS_RUN = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace runs, strip ends."""
    return _WS_RUN.sub(" ", text.lower()).strip()


def content_hash(text: str) -> str:
    """Fingerprint of the normative content: sha256 of the normalized text."""
    return hashlib.sha256(normalize_text(text).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Jurisdiction:
    id: str
    name: str
    level: Level
    parent: str | None = None


@dataclass(frozen=True)
class SourceItem:
    id: str
    kind: SourceKind
    jurisdiction: str
    concept_key: str
    text: str
    content_hash: str
    is_static: bool

    role = "source"


@dataclass(frozen=True)
class Requirement:
    id: str
    kind: RequirementKind
    jurisdiction: str
    concept_key: str
    text: str
    content_hash: str
    derived_from: frozenset[str] = frozenset()

    role = "requirement"


@dataclass(frozen=True)
class ComponentScope:
    """Either general or specific to one jurisdiction."""

    kind: str  # "general" | "specific"
    jurisdiction: str | None = None

    @classmethod
    def general(cls) -> "ComponentScope":
        return cls("general")

    @classmethod
    def specific(cls, jurisdiction: str) -> "ComponentScope":
        return cls("specific", jurisdiction)


@dataclass(frozen=True)
class Component:
    id: str
    implements: frozenset[str]
    scope: ComponentScope


@dataclass(frozen=True)
class RelationSet:
    """Declared refinement and contradiction pairs over requirement/source ids.

    ``refines`` pairs are ordered (a, b): a is the stronger, refining element.
    ``contradicts`` pairs are stored as given; consumers treat them unordered.
    """

    refines: frozenset[tuple[str, str]] = frozenset()
    contradicts: frozenset[tuple[str, str]] = frozenset()

    @cached_property
    def refinement_order(self) -> dict[str, set[str]]:
        """Direct ``refines`` adjacency over every id named in a pair, keyed in
        topological order (refiners first), built once by relations.check_acyclic:
        a cyclic relation raises its CycleError here. Shared, so never mutate it.
        """
        from reqlattice.relations import check_acyclic

        return check_acyclic(self, {i for pair in self.refines for i in pair})


@dataclass(frozen=True)
class Corpus:
    jurisdictions: tuple[Jurisdiction, ...]
    sources: tuple[SourceItem, ...]
    requirements: tuple[Requirement, ...]
    relations: RelationSet = field(default_factory=RelationSet)
    components: tuple[Component, ...] = ()

    def __post_init__(self):
        # canonical member order by id, so structurally equal corpora compare
        # equal regardless of construction order
        for name in ("jurisdictions", "sources", "requirements", "components"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name), key=lambda e: e.id)))

    @cached_property
    def fingerprint(self) -> str:
        """sha256 of the canonical serialization, computed on first use.

        The corpus is immutable, so the cached value cannot go stale; it
        lives in the instance ``__dict__`` and takes no part in ``==``.
        """
        from reqlattice import corpus_io

        return hashlib.sha256(corpus_io.canonical_bytes(self)).hexdigest()

    def jurisdiction_map(self) -> dict[str, Jurisdiction]:
        return {j.id: j for j in self.jurisdictions}

    def source_map(self) -> dict[str, SourceItem]:
        return {s.id: s for s in self.sources}

    def requirement_map(self) -> dict[str, Requirement]:
        return {r.id: r for r in self.requirements}

    def item(self, item_id: str) -> SourceItem | Requirement | None:
        return self.source_map().get(item_id) or self.requirement_map().get(item_id)

    @cached_property
    def ancestor_chains(self) -> dict[str, tuple[str, ...]]:
        """Each jurisdiction's ancestor ids, nearest first, built once.

        A walk stops at an unknown parent (kept as the last entry) or where
        the chain would loop, so broken forests still get finite chains.
        """
        jmap = self.jurisdiction_map()
        chains: dict[str, tuple[str, ...]] = {}
        for jid, node in jmap.items():
            out: list[str] = []
            seen = {jid}
            while node is not None and node.parent is not None and node.parent not in seen:
                out.append(node.parent)
                seen.add(node.parent)
                node = jmap.get(node.parent)
            chains[jid] = tuple(out)
        return chains

    def ancestors(self, jurisdiction_id: str) -> list[str]:
        """Ancestor jurisdiction ids, nearest first. Assumes a valid forest."""
        return list(self.ancestor_chains.get(jurisdiction_id, ()))


#: The levels a jurisdiction's parent may have; a national node has none.
ALLOWED_PARENT_LEVELS = {
    Level.NATIONAL: frozenset(),
    Level.STATE: frozenset({Level.NATIONAL}),
    Level.ORGANISATIONAL: frozenset({Level.STATE, Level.NATIONAL}),
}


def validate_corpus(corpus: Corpus) -> None:
    """Check every structural invariant; raise ValidationError on the first hit.

    Refinement acyclicity is checked separately, by building
    ``RelationSet.refinement_order``; the loader does both.
    """
    from reqlattice.errors import ValidationError

    seen: set[str] = set()
    for entity in (*corpus.jurisdictions, *corpus.sources, *corpus.requirements, *corpus.components):
        if entity.id in seen:
            raise ValidationError("DUPLICATE_ID", f"id {entity.id!r} declared twice", item_id=entity.id)
        seen.add(entity.id)

    jmap = corpus.jurisdiction_map()
    for j in corpus.jurisdictions:
        if j.parent is not None:
            if j.parent not in jmap:
                raise ValidationError("DANGLING_REF", f"jurisdiction {j.id!r} has unknown parent {j.parent!r}", item_id=j.id)
            if jmap[j.parent].level not in ALLOWED_PARENT_LEVELS[j.level]:
                raise ValidationError(
                    "LEVEL_VIOLATION",
                    f"{j.level.value} node {j.id!r} cannot have a {jmap[j.parent].level.value} parent",
                    item_id=j.id,
                )
    for j in corpus.jurisdictions:
        # parent graph must be a forest
        slow = j.id
        seen_chain: set[str] = set()
        while slow is not None:
            if slow in seen_chain:
                raise ValidationError("PARENT_CYCLE", f"jurisdiction parent chain loops at {slow!r}", item_id=slow)
            seen_chain.add(slow)
            node = jmap.get(slow)
            slow = node.parent if node else None

    # one item per (jurisdiction, concept, kind): partitions and change ops
    # find a jurisdiction's version of a concept by that triple
    concept_holder: dict[tuple[str, str, SourceKind | RequirementKind], str] = {}

    def check_concept(item: SourceItem | Requirement) -> None:
        if item.jurisdiction not in jmap:
            raise ValidationError(
                "DANGLING_REF",
                f"{item.role} {item.id!r} references unknown jurisdiction {item.jurisdiction!r}",
                item_id=item.id,
            )
        holder = concept_holder.setdefault((item.jurisdiction, item.concept_key, item.kind), item.id)
        if holder != item.id:
            raise ValidationError(
                "DUPLICATE_CONCEPT",
                f"jurisdiction {item.jurisdiction!r} declares concept {item.concept_key!r} twice for kind "
                f"{item.kind.value}: {holder!r} and {item.id!r}",
                item_id=item.id,
            )

    smap = corpus.source_map()
    for s in corpus.sources:
        check_concept(s)

    rmap = corpus.requirement_map()
    for r in corpus.requirements:
        check_concept(r)
        if r.kind is RequirementKind.FUNCTIONAL and r.derived_from:
            raise ValidationError("FUNCTIONAL_WITH_SOURCES", f"functional requirement {r.id!r} must not derive from sources", item_id=r.id)
        allowed_kind = SOURCE_KIND_FOR_REQUIREMENT.get(r.kind)
        for sid in sorted(r.derived_from):
            src = smap.get(sid)
            if src is None:
                raise ValidationError("DANGLING_REF", f"requirement {r.id!r} derives from unknown source {sid!r}", item_id=r.id)
            if src.kind is not allowed_kind:
                raise ValidationError(
                    "DERIVED_FROM_KIND",
                    f"{r.kind.value} requirement {r.id!r} derives from {src.kind.value} source {sid!r}",
                    item_id=r.id,
                )
            if src.jurisdiction != r.jurisdiction and src.jurisdiction not in corpus.ancestor_chains[r.jurisdiction]:
                raise ValidationError(
                    "DERIVED_FROM_JURISDICTION",
                    f"requirement {r.id!r} derives from source {sid!r} of unrelated jurisdiction {src.jurisdiction!r}",
                    item_id=r.id,
                )

    def _role_kind(item_id: str) -> tuple[str, str]:
        if item_id in smap:
            return "source", smap[item_id].kind.value
        if item_id in rmap:
            return "requirement", rmap[item_id].kind.value
        raise ValidationError("DANGLING_REF", f"relation references unknown id {item_id!r}", item_id=item_id)

    for rel_name, pairs in (("refines", corpus.relations.refines), ("contradicts", corpus.relations.contradicts)):
        for a, b in sorted(pairs):
            ra, rb = _role_kind(a), _role_kind(b)
            if a == b:
                raise ValidationError("RELATION_IRREFLEXIVE", f"{rel_name} pair relates {a!r} to itself", item_id=a)
            if ra[0] != rb[0]:
                raise ValidationError("RELATION_ROLE_MISMATCH", f"{rel_name} pair ({a!r}, {b!r}) mixes roles", item_id=a)
            if ra[1] != rb[1]:
                raise ValidationError("RELATION_KIND_MISMATCH", f"{rel_name} pair ({a!r}, {b!r}) mixes kinds", item_id=a)

    for c in corpus.components:
        for rid in sorted(c.implements):
            if rid not in rmap:
                raise ValidationError("DANGLING_REF", f"component {c.id!r} implements unknown requirement {rid!r}", item_id=c.id)
        if c.scope.kind == "specific" and c.scope.jurisdiction not in jmap:
            raise ValidationError("DANGLING_REF", f"component {c.id!r} scoped to unknown jurisdiction", item_id=c.id)


def corpus_fingerprint(corpus: Corpus) -> str:
    """Stable digest of the corpus value, reported before and after a change set."""
    return corpus.fingerprint

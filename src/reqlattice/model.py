"""Domain types for jurisdictions, sources, requirements and their relations.

No type here self-validates; :func:`validate_corpus` checks every structural
invariant and raises :class:`~reqlattice.errors.ValidationError`. Sources and
requirements are named tuples, with no ``__dict__``: the loader builds each by
one ``tuple.__new__`` call, past the class's generated ``__new__``.
Jurisdictions, components, relation sets and corpora stay dataclasses, for
their cached properties, ``replace`` or ``__post_init__``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from reqlattice.errors import CycleError, ValidationError


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
NO_DERIVATIONS: frozenset[str] = frozenset()  # the one derivedFrom of every requirement that derives from nothing


def normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace runs, strip ends."""
    return _WS_RUN.sub(" ", text.lower()).strip()


def sha256(data: bytes = b""):
    """A new sha256 hash object. hashlib, and OpenSSL with it, loads on the first call: only a command that hashes pays."""
    import hashlib
    return hashlib.sha256(data)


def content_hash(text: str) -> str:
    """Fingerprint of the normative content: sha256 of the normalized text."""
    return sha256(normalize_text(text).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Jurisdiction:
    id: str
    name: str
    level: Level
    parent: str | None = None


class SourceItem(NamedTuple):
    id: str
    kind: SourceKind
    jurisdiction: str
    concept_key: str
    text: str
    content_hash: str
    is_static: bool

    role = "source"


class Requirement(NamedTuple):
    id: str
    kind: RequirementKind
    jurisdiction: str
    concept_key: str
    text: str
    content_hash: str
    derived_from: frozenset[str] = NO_DERIVATIONS

    role = "requirement"


@dataclass(frozen=True)
class Component:
    id: str
    implements: frozenset[str]
    jurisdiction: str | None  # the one jurisdiction it serves; None serves the general part


@dataclass(frozen=True)
class RelationSet:
    """Declared refinement and contradiction pairs over requirement/source ids.

    ``refines`` pairs are ordered (a, b): a is the stronger, refining element.
    ``contradicts`` pairs are unordered and stored sorted, so a pair given in both orders is one pair.
    """

    refines: frozenset[tuple[str, str]] = frozenset()
    contradicts: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "contradicts", frozenset((min(a, b), max(a, b)) for a, b in self.contradicts))

    @cached_property
    def refinement_order(self) -> dict[str, set[str]]:
        """Direct ``refines`` adjacency over every id named in a pair, keyed in a
        topological order (refiners first), built once by check_acyclic: a
        cyclic relation raises its CycleError here. Shared, so never mutate it.
        """
        return check_acyclic(self, {i for pair in self.refines for i in pair})


def check_acyclic(relations: RelationSet, ids: set[str] | frozenset[str]) -> dict[str, set[str]]:
    """Adjacency of ``refines`` restricted to ``ids``, checked to be acyclic,
    keyed in a topological order.

    One unsorted pass places each id once no unplaced id refines it (Kahn's
    algorithm). Only a cycle leaves ids unplaced; then a depth-first search
    in sorted order, with an explicit stack (chain depth is not bounded by the
    recursion limit), raises CycleError with a reproducible witness.
    """
    edges: dict[str, set[str]] = {i: set() for i in ids}
    refiners = dict.fromkeys(ids, 0)  # each id's count of refiners not yet placed
    for a, b in relations.refines:
        if a in edges and b in edges:
            edges[a].add(b)
            refiners[b] += 1
    order = [i for i, n in refiners.items() if not n]
    for a in order:  # grows as it is read
        for b in edges[a]:
            refiners[b] -= 1
            if not refiners[b]:
                order.append(b)
    if len(order) == len(edges):
        return {i: edges[i] for i in order}

    WHITE, GREY, BLACK = 0, 1, 2
    color = {i: WHITE for i in ids}
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
                color[path.pop()] = BLACK
                pending.pop()
    raise AssertionError("ids left unplaced lie on a cycle, which the search meets")


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
            object.__setattr__(self, name, tuple(sorted(getattr(self, name), key=attrgetter("id"))))

    def jurisdiction_map(self) -> dict[str, Jurisdiction]:
        return {j.id: j for j in self.jurisdictions}

    def requirement_map(self) -> dict[str, Requirement]:
        return {r.id: r for r in self.requirements}

    @cached_property
    def by_id(self) -> dict[str, SourceItem | Requirement]:
        """Every source and requirement by id, built once. Shared, so never mutate it."""
        return {item.id: item for item in (*self.sources, *self.requirements)}

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

    @cached_property
    def members(self) -> dict[tuple[str, SourceKind | RequirementKind], tuple[SourceItem | Requirement, ...]]:
        """Each jurisdiction's items of each kind, in id order, built once;
        a (jurisdiction, kind) with no items has no key. Shared, hence tuples.
        """
        groups: defaultdict[tuple[str, SourceKind | RequirementKind], list] = defaultdict(list)
        for item in (*self.sources, *self.requirements):
            groups[item.jurisdiction, item.kind].append(item)
        return {key: tuple(items) for key, items in groups.items()}

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

    The first hit in this order: unique ids over jurisdictions, sources,
    requirements and components; each jurisdiction's parent known and of an
    allowed level; :func:`check_items` over sources, then requirements; each
    ``refines``, then ``contradicts`` pair, sorted: both ends known, distinct,
    of one role and kind; each component implementing only requirements, in
    a known jurisdiction or none; each section in id order. Ids, items and
    relations are first tested as whole sets; only a failing set is scanned
    in order, to name its first fault. Acyclicity is checked apart, by
    building ``RelationSet.refinement_order``; the loader does both.
    """
    items = corpus.by_id  # the map the loaded corpus keeps
    jmap = corpus.jurisdiction_map()
    sections = (corpus.jurisdictions, corpus.sources, corpus.requirements, corpus.components)
    others = {*jmap, *(c.id for c in corpus.components)}
    if len(items) + len(others) < sum(map(len, sections)) or not others.isdisjoint(items):  # an id repeats
        check_unique_ids([e.id for section in sections for e in section])

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

    check_items(corpus, (*corpus.sources, *corpus.requirements), items)

    for rel_name, pairs in (("refines", corpus.relations.refines), ("contradicts", corpus.relations.contradicts)):
        # one kind implies one role: SourceKind and RequirementKind share no member
        if all(a in items and b in items and a != b and items[a].kind is items[b].kind for a, b in pairs):
            continue
        for a, b in sorted(pairs):
            for item_id in (a, b):
                if item_id not in items:
                    raise ValidationError("DANGLING_REF", f"relation references unknown id {item_id!r}", item_id=item_id)
            if a == b:
                raise ValidationError("RELATION_IRREFLEXIVE", f"{rel_name} pair relates {a!r} to itself", item_id=a)
            if items[a].role != items[b].role:
                raise ValidationError("RELATION_ROLE_MISMATCH", f"{rel_name} pair ({a!r}, {b!r}) mixes roles", item_id=a)
            if items[a].kind is not items[b].kind:
                raise ValidationError("RELATION_KIND_MISMATCH", f"{rel_name} pair ({a!r}, {b!r}) mixes kinds", item_id=a)

    for c in corpus.components:
        missing = [rid for rid in c.implements if not isinstance(items.get(rid), Requirement)]
        if missing:
            raise ValidationError("DANGLING_REF", f"component {c.id!r} implements unknown requirement {min(missing)!r}", item_id=c.id)
        if c.jurisdiction is not None and c.jurisdiction not in jmap:
            raise ValidationError("DANGLING_REF", f"component {c.id!r} scoped to unknown jurisdiction", item_id=c.id)


def check_unique_ids(ids: Iterable[str]) -> None:
    """Raise ValidationError on the first id that repeats an earlier one."""
    seen: set[str] = set()
    for entity_id in ids:
        if entity_id in seen:
            raise ValidationError("DUPLICATE_ID", f"id {entity_id!r} declared twice", item_id=entity_id)
        seen.add(entity_id)


def check_items(corpus: Corpus, items: Sequence[SourceItem | Requirement],
                by_id: dict[str, SourceItem | Requirement]) -> None:
    """The per-item rules over ``items`` of a corpus with unique ids, whose
    sources and requirements ``by_id`` maps; raise ValidationError on the
    first hit. The rules are first tested on ``items`` as a whole set; only
    a failing test runs the ordered walk, over items in the given order and
    each item's sources in id order, to name the first fault. A change op
    passes the items it may have broken, with the rest of each (jurisdiction,
    concept, kind) among them, in :func:`validate_corpus`'s order (sources,
    then requirements, each by id), so both meet the same first error.
    """
    jids = corpus.ancestor_chains  # keyed by every jurisdiction id
    # a dict, whose table is half a set's; a functional kind maps to no source kind, so its derivedFrom ids fail
    if (jids.keys() >= {x.jurisdiction for x in items}
            and len({(x.jurisdiction, x.concept_key, x.kind): x for x in items}) == len(items)
            and all(type(src := by_id.get(sid)) is SourceItem and src.kind is SOURCE_KIND_FOR_REQUIREMENT.get(x.kind)
                    and (src.jurisdiction == x.jurisdiction or src.jurisdiction in jids[x.jurisdiction])
                    for x in items if x.role == "requirement" for sid in x.derived_from)):
        return
    # one item per (jurisdiction, concept, kind): partitions and change ops
    # find a jurisdiction's version of a concept by that triple
    concept_holder: dict[tuple[str, str, SourceKind | RequirementKind], str] = {}
    for item in items:
        if item.jurisdiction not in jids:
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
        if item.role == "source" or not item.derived_from:
            continue
        if item.kind is RequirementKind.FUNCTIONAL:
            raise ValidationError("FUNCTIONAL_WITH_SOURCES", f"functional requirement {item.id!r} must not derive from sources", item_id=item.id)
        allowed_kind = SOURCE_KIND_FOR_REQUIREMENT[item.kind]
        for sid in sorted(item.derived_from):
            src = by_id.get(sid)
            if not isinstance(src, SourceItem):
                raise ValidationError("DANGLING_REF", f"requirement {item.id!r} derives from unknown source {sid!r}", item_id=item.id)
            if src.kind is not allowed_kind:
                raise ValidationError(
                    "DERIVED_FROM_KIND",
                    f"{item.kind.value} requirement {item.id!r} derives from {src.kind.value} source {sid!r}",
                    item_id=item.id,
                )
            if src.jurisdiction != item.jurisdiction and src.jurisdiction not in jids[item.jurisdiction]:
                raise ValidationError(
                    "DERIVED_FROM_JURISDICTION",
                    f"requirement {item.id!r} derives from source {sid!r} of unrelated jurisdiction {src.jurisdiction!r}",
                    item_id=item.id,
                )


def corpus_fingerprint(corpus: Corpus, layouts: dict[int, str] | None = None) -> str:
    """sha256 of the canonical serialization, reported before and after a change set, fed from corpus_chunks."""
    from reqlattice import corpus_io  # it imports this module

    digest = sha256()
    for chunk in corpus_io.corpus_chunks(corpus, layouts):
        digest.update(chunk)
    return digest.hexdigest()

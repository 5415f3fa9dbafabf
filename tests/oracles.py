"""Independent brute-force oracles and random input generators.

Everything here deliberately avoids the package's own algorithms: closures by
path enumeration, contradiction derivation by naive fixpoint iteration,
maximality by exhaustive pairwise comparison, partitions by a literal
per-concept check, TOPSIS in numpy arrays.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import string
from dataclasses import replace

import numpy as np

from reqlattice import corpus_io, model
from reqlattice.changes import ImpactReport, Migration, OpRecord, ReuseHint
from reqlattice.corpus_io import ChangeOp, ChangeSet, validate_change_set
from reqlattice.errors import DegenerateMatrixError, MissingAdoptedByError, ValidationError
from reqlattice.model import (
    SOURCE_KIND_FOR_REQUIREMENT,
    Component,
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
    SourceItem,
    SourceKind,
)
from reqlattice.partition import Finding, Partition
from reqlattice.topsis import Criterion, Ranking


def path_enumeration_closure(edges: set[tuple[str, str]], ids: set[str]) -> set[tuple[str, str]]:
    """Reachability by enumerating every simple path (exponential, tiny inputs)."""
    adjacency = {i: sorted(b for a, b in edges if a == i and b in ids) for i in ids}
    pairs: set[tuple[str, str]] = set()

    def walk(start: str, node: str, seen: frozenset[str]) -> None:
        for nxt in adjacency[node]:
            if nxt in seen:
                continue
            pairs.add((start, nxt))
            walk(start, nxt, seen | {nxt})

    for start in ids:
        walk(start, start, frozenset({start}))
    return pairs


def fixpoint_contradictions(
    refines: set[tuple[str, str]], contradicts: set[tuple[str, str]]
) -> set[frozenset[str]]:
    """Iterate the single-step strengthening rule to a fixed point."""
    current = {frozenset(p) for p in contradicts if len(frozenset(p)) == 2}
    while True:
        added = set()
        for pair in current:
            x, y = tuple(pair)
            for strong, weak in refines:
                if weak == x and strong != y:
                    added.add(frozenset((strong, y)))
                if weak == y and strong != x:
                    added.add(frozenset((strong, x)))
        if added <= current:
            return current
        current |= added


def brute_force_maximal(ids: set[str], closure: set[tuple[str, str]]) -> set[str]:
    """Elements no other element refines, by exhaustive pairwise comparison."""
    return {e for e in ids if not any((other, e) in closure for other in ids if other != e)}


def brute_force_minimal(ids: set[str], closure: set[tuple[str, str]]) -> set[str]:
    return {e for e in ids if not any((e, other) in closure for other in ids if other != e)}


def per_concept_partition(view: dict[str, list]) -> tuple[set[str], dict[str, set[str]]]:
    """Literal per-concept generality check: present everywhere, one hash."""
    concepts = {item.concept_key for items in view.values() for item in items}
    general: set[str] = set()
    specific: dict[str, set[str]] = {jid: set() for jid in view}
    for key in concepts:
        buckets = {jid: [i for i in items if i.concept_key == key] for jid, items in view.items()}
        hashes = {i.content_hash for items in buckets.values() for i in items}
        is_general = all(buckets[jid] for jid in view) and len(hashes) == 1
        for jid, items in buckets.items():
            for item in items:
                (general if is_general else specific[jid]).add(item.id)
    return general, specific


def scratch_members(corpus: Corpus) -> dict:
    """Every non-empty (jurisdiction, kind) group, in id order, one filter per pair."""
    items = sorted((*corpus.sources, *corpus.requirements), key=lambda i: i.id)
    groups = {(j.id, kind): tuple(i for i in items if i.jurisdiction == j.id and i.kind is kind)
              for j in corpus.jurisdictions for kind in (*SourceKind, *RequirementKind)}
    return {key: group for key, group in groups.items() if group}


def dumps_layout(doc) -> str:
    """The canonical layout as the stdlib lays it out, in pure Python: the
    reference for ``corpus_io.canonical_json``."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def corpus_to_doc(corpus: Corpus) -> dict:
    """The corpus as a JSON document; :func:`dumps_layout` of it is the
    reference for ``corpus_io.canonical_bytes``."""
    def jur(j: Jurisdiction) -> dict:
        out = {"id": j.id, "name": j.name, "level": j.level.value}
        if j.parent is not None:
            out["parent"] = j.parent
        return out

    def comp(c: Component) -> dict:
        out = {"id": c.id, "implements": sorted(c.implements), "scope": "general"}
        if c.jurisdiction is not None:
            out.update(scope="specific", jurisdiction=c.jurisdiction)
        return out

    return {
        "formatVersion": corpus_io.FORMAT_VERSION,
        "jurisdictions": [jur(j) for j in corpus.jurisdictions],
        "sources": [
            {"id": s.id, "kind": s.kind.value, "jurisdiction": s.jurisdiction,
             "conceptKey": s.concept_key, "text": s.text,
             "contentHash": s.content_hash, "isStatic": s.is_static}
            for s in corpus.sources
        ],
        "requirements": [
            {"id": r.id, "kind": r.kind.value, "jurisdiction": r.jurisdiction,
             "conceptKey": r.concept_key, "text": r.text,
             "contentHash": r.content_hash, "derivedFrom": sorted(r.derived_from)}
            for r in corpus.requirements
        ],
        "relations": {
            "refines": sorted([a, b] for a, b in corpus.relations.refines),
            "contradicts": sorted(sorted([a, b]) for a, b in corpus.relations.contradicts),
        },
        "components": [comp(c) for c in corpus.components],
    }


def closure_effective(corpus: Corpus, node: str) -> frozenset[str]:
    """A node's effective requirements by definition: its own and its
    ancestors' requirements (its pool), less every one that a strictly
    nearer pool member refines along a path inside the pool."""
    parent = {j.id: j.parent for j in corpus.jurisdictions}
    chain = [node]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    depth = {jid: i for i, jid in enumerate(chain)}
    jur_of = {r.id: r.jurisdiction for r in corpus.requirements if r.jurisdiction in depth}
    closure = path_enumeration_closure(set(corpus.relations.refines), set(jur_of))
    shadowed = {weak for strong, weak in closure if depth[jur_of[strong]] < depth[jur_of[weak]]}
    return frozenset(set(jur_of) - shadowed)


def closure_optimize(ids: set[str], corpus: Corpus) -> tuple[frozenset, frozenset, dict]:
    """``(strongest, baseline, removed)`` of the order restricted to ``ids``,
    from its closure: a removed id's witness is its smallest refiner."""
    closure = path_enumeration_closure(set(corpus.relations.refines), ids)
    removed: dict[str, str] = {}
    for strong, weak in closure:
        removed[weak] = min(strong, removed.get(weak, strong))
    baseline = frozenset(ids - {strong for strong, _ in closure})
    return frozenset(ids - set(removed)), baseline, removed


def specific_contradiction_condition(corpus: Corpus, *parts: Partition) -> list[Finding]:
    """``partition.check_specific_contradiction_condition`` by definition: a
    specific item of a bucket is flagged unless some contradiction, derived by
    :func:`fixpoint_contradictions`, joins it to an item of the union of every
    other bucket; parts, buckets and items in order."""
    pairs = fixpoint_contradictions(set(corpus.relations.refines), set(corpus.relations.contradicts))
    findings = []
    for part in parts:
        for jid in sorted(part.specific):
            others = set().union(*(bucket for other, bucket in part.specific.items() if other != jid))
            for item_id in sorted(part.specific[jid]):
                if not any(frozenset((item_id, o)) in pairs for o in others):
                    findings.append(Finding(
                        "NO_CROSS_CONTRADICTION", "warning", item_id,
                        f"specific item {item_id!r} of {jid!r} contradicts nothing in any other jurisdiction"))
    return findings


# ---------------------------------------------------------------------------
# random generators

def random_dag(rng: random.Random, n_nodes: int, edge_prob: float = 0.3):
    """Edges only from lower to higher label, hence acyclic."""
    ids = [f"n{i:02d}" for i in range(n_nodes)]
    edges = {
        (ids[i], ids[j])
        for i in range(n_nodes) for j in range(i + 1, n_nodes)
        if rng.random() < edge_prob
    }
    return set(ids), edges


def random_corpus(
    rng: random.Random,
    max_jurisdictions: int = 5,
    max_concepts: int = 30,
    hash_alphabet: int = 3,
    with_relations: bool = False,
    with_components: bool = False,
    with_derivations: bool = False,
    min_jurisdictions: int = 1,
) -> Corpus:
    """Corpus with randomized concept presence and content collisions.

    A small hash alphabet makes cross-jurisdiction identity (and hence
    general-set membership) common enough to exercise both partition sides.
    ``with_components`` adds up to four general or specific components, each
    implementing a random subset of the requirements. ``with_derivations``
    has each legal- or cultural-based requirement derive from up to two
    sources its kind and jurisdiction allow. With one jurisdiction every
    concept is general, so a caller that needs specific concepts to promote
    raises ``min_jurisdictions``.
    """
    n_jur = rng.randint(min_jurisdictions, max_jurisdictions)
    jurisdictions = tuple(
        Jurisdiction(id=f"j{i}", name=f"Jurisdiction {i}", level=Level.NATIONAL)
        for i in range(n_jur)
    )
    n_concepts = rng.randint(1, max_concepts)
    concepts = [f"c{k:02d}" for k in range(n_concepts)]

    sources: list[SourceItem] = []
    requirements: list[Requirement] = []
    for key in concepts:
        # role/kind fixed per concept so cross-jurisdiction identity can occur
        as_source = rng.random() < 0.45
        skind = SourceKind.LEGAL if rng.random() < 0.5 else SourceKind.CULTURAL
        rkind = rng.choice(list(RequirementKind))
        for j in jurisdictions:
            if rng.random() < 0.3:
                continue  # concept absent here
            text = f"{key} variant {rng.randrange(hash_alphabet)}"
            if as_source:
                sources.append(SourceItem(
                    id=f"src-{j.id}-{key}", kind=skind, jurisdiction=j.id,
                    concept_key=key, text=text,
                    content_hash=model.content_hash(text),
                    is_static=skind is SourceKind.CULTURAL,
                ))
            else:
                requirements.append(Requirement(
                    id=f"req-{j.id}-{key}", kind=rkind, jurisdiction=j.id,
                    concept_key=key, text=text,
                    content_hash=model.content_hash(text),
                ))

    if with_derivations:
        allowed: dict[tuple[str, SourceKind], list[str]] = {}
        for s in sources:
            allowed.setdefault((s.jurisdiction, s.kind), []).append(s.id)
        for i, r in enumerate(requirements):
            ids = allowed.get((r.jurisdiction, SOURCE_KIND_FOR_REQUIREMENT.get(r.kind)), [])
            requirements[i] = r._replace(derived_from=frozenset(rng.sample(ids, rng.randint(0, min(2, len(ids))))))

    refines: set[tuple[str, str]] = set()
    contradicts: set[tuple[str, str]] = set()
    if with_relations and len(requirements) >= 2:
        by_kind: dict[RequirementKind, list[Requirement]] = {}
        for r in requirements:
            by_kind.setdefault(r.kind, []).append(r)
        for group in by_kind.values():
            group.sort(key=lambda r: r.id)
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    roll = rng.random()
                    if roll < 0.05:
                        refines.add((group[i].id, group[j].id))
                    elif roll < 0.08:
                        contradicts.add((group[i].id, group[j].id))

    components: list[Component] = []
    if with_components:
        rids = sorted(r.id for r in requirements)
        for i in range(rng.randint(0, 4)):
            implements = frozenset(rng.sample(rids, rng.randint(0, min(3, len(rids)))))
            jurisdiction = None if rng.random() < 0.4 else rng.choice(jurisdictions).id
            components.append(Component(id=f"comp-{i}", implements=implements, jurisdiction=jurisdiction))

    corpus = Corpus(
        jurisdictions=jurisdictions,
        sources=tuple(sources),
        requirements=tuple(requirements),
        relations=RelationSet(refines=frozenset(refines), contradicts=frozenset(contradicts)),
        components=tuple(components),
    )
    model.validate_corpus(corpus)
    return corpus


def random_tree_corpus(rng: random.Random) -> Corpus:
    """A random corpus hung as a national/state/org forest, with its
    ``refines`` pairs redrawn between same-kind requirements of any
    jurisdictions. Each pair points forward in a random order of its kind,
    so the order stays acyclic, and a nearer requirement refines a farther
    one about as often as the reverse."""
    corpus = random_corpus(rng, max_jurisdictions=7, max_concepts=10, with_relations=True)
    nodes = [corpus.jurisdictions[0]]
    for j in corpus.jurisdictions[1:]:
        roll = rng.random()
        parents = [n for n in nodes if n.level is not Level.ORGANISATIONAL]
        if roll < 0.2:
            nodes.append(j)  # another national root
        elif roll < 0.6:
            nodes.append(replace(j, level=Level.STATE, parent=rng.choice(
                [n for n in parents if n.level is Level.NATIONAL]).id))
        else:
            nodes.append(replace(j, level=Level.ORGANISATIONAL, parent=rng.choice(parents).id))
    by_kind: dict[RequirementKind, list[str]] = {}
    for r in corpus.requirements:
        by_kind.setdefault(r.kind, []).append(r.id)
    refines = set()
    for group in by_kind.values():
        rng.shuffle(group)
        refines |= {(a, b) for i, a in enumerate(group) for b in group[i + 1:] if rng.random() < 0.2}
    tree = replace(corpus, jurisdictions=tuple(nodes),
                   relations=replace(corpus.relations, refines=frozenset(refines)))
    model.validate_corpus(tree)
    return tree


def lineage(corpus: Corpus, jid: str) -> list[str]:
    """``jid`` and its ancestors, by parent links, up to an unknown parent or a loop."""
    parents = {j.id: j.parent for j in corpus.jurisdictions}
    out = [jid]
    while parents.get(out[-1]) is not None and parents[out[-1]] not in out:
        out.append(parents[out[-1]])
    return out


def with_ancestor_derivations(rng: random.Random, corpus: Corpus) -> Corpus:
    """Each legal- or cultural-based requirement derives from up to two
    sources of its allowed kind, held by its jurisdiction or an ancestor."""
    requirements = []
    for r in corpus.requirements:
        allowed = SOURCE_KIND_FOR_REQUIREMENT.get(r.kind)
        chain = lineage(corpus, r.jurisdiction)
        pool = sorted(s.id for s in corpus.sources if s.kind is allowed and s.jurisdiction in chain)
        requirements.append(r._replace(derived_from=frozenset(rng.sample(pool, rng.randint(0, min(2, len(pool)))))))
    return replace(corpus, requirements=tuple(requirements))


def with_components(rng: random.Random, corpus: Corpus) -> Corpus:
    """One to three components, general or of one jurisdiction, each
    implementing up to three requirements."""
    rids = sorted(r.id for r in corpus.requirements)
    components = tuple(
        Component(id=f"comp-{i}", implements=frozenset(rng.sample(rids, rng.randint(0, min(3, len(rids))))),
                  jurisdiction=None if rng.random() < 0.4 else rng.choice(corpus.jurisdictions).id)
        for i in range(rng.randint(1, 3)))
    return replace(corpus, components=components)


def random_forest(rng: random.Random) -> Corpus:
    """A :func:`random_tree_corpus` forest whose requirements derive from
    their own and their ancestors' sources, with components."""
    return with_components(rng, with_ancestor_derivations(rng, random_tree_corpus(rng)))


def level_view(corpus: Corpus, level: Level | None, kind: SourceKind | RequirementKind) -> dict[str, list]:
    """Each frontier node's items of ``kind`` by definition, in id order of
    the nodes: with no level every jurisdiction and its own items; at a
    level its nodes, each with its :func:`closure_effective` requirements
    or its own and every ancestor's sources."""
    frontier = sorted(j.id for j in corpus.jurisdictions if level is None or j.level is level)
    items = corpus.requirements if isinstance(kind, RequirementKind) else corpus.sources
    if level is None:
        return {node: [i for i in items if i.jurisdiction == node and i.kind is kind] for node in frontier}
    seen = {node: closure_effective(corpus, node) if isinstance(kind, RequirementKind)
            else {s.id for s in items if s.jurisdiction in lineage(corpus, node)} for node in frontier}
    return {node: [i for i in items if i.id in seen[node] and i.kind is kind] for node in frontier}


def expand_reads(corpus: Corpus, reads: dict, kind: SourceKind | RequirementKind) -> dict[str, list]:
    """Each frontier node's items of ``kind`` under a level view's reads: the
    items of every jurisdiction it reads, less those it does not see."""
    return {node: [i for jid in chain for i in corpus.members.get((jid, kind), ()) if i.id not in hidden]
            for node, (chain, hidden) in reads.items()}


def random_label(rng: random.Random, length: int = 6) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


# ---------------------------------------------------------------------------
# reference loader: the first fault of a corpus record, by ordered scans

_ITEM_FIELDS = {"id": str, "kind": str, "jurisdiction": str, "conceptKey": str, "text": str}

#: record role -> (required fields, optional fields), each in schema order
RECORD_SCHEMAS = {
    "jurisdiction": ({"id": str, "name": str, "level": str}, {"parent": str}),
    "source": (_ITEM_FIELDS, {"contentHash": str, "isStatic": bool}),
    "requirement": (_ITEM_FIELDS, {"contentHash": str, "derivedFrom": list}),
    "component": ({"id": str, "implements": list, "scope": str}, {"jurisdiction": str}),
}

#: record role -> (its enum field, the allowed values in definition order)
RECORD_ENUMS = {
    "jurisdiction": ("level", [e.value for e in Level]),
    "source": ("kind", [e.value for e in SourceKind]),
    "requirement": ("kind", [e.value for e in RequirementKind]),
    "component": ("scope", ["general", "specific"]),
}


def first_schema_error(obj, what: str, required: dict, optional: dict) -> tuple[str, str] | None:
    """The first fault of ``obj`` against a closed schema, as (code, message):
    a non-object, then the first unknown key in record order, then the first
    missing or wrongly typed field in schema order, required fields before
    optional ones. A JSON value's type is exact: a bool is not an int."""
    if not isinstance(obj, dict):
        return "BAD_TYPE", f"{what} must be an object"
    for key in obj:
        if key not in required and key not in optional:
            return "UNKNOWN_FIELD", f"{what} has unknown field {key!r}"
    for key, typ in required.items():
        if key not in obj:
            return "MISSING_FIELD", f"{what} lacks required field {key!r}"
        if type(obj[key]) is not typ:
            return "BAD_TYPE", f"{what} field {key!r} has the wrong type"
    for key, typ in optional.items():
        if key in obj and type(obj[key]) is not typ:
            return "BAD_TYPE", f"{what} field {key!r} has the wrong type"
    return None


def first_record_error(role: str, record) -> tuple[str, str] | None:
    """The first fault of one corpus record of ``role``, as (code, message):
    its schema, then the checks on its own values in the loader's order."""
    error = first_schema_error(record, role, *RECORD_SCHEMAS[role])
    if error:
        return error
    rid = record["id"]
    ids_field = {"requirement": "derivedFrom", "component": "implements"}.get(role)
    if role == "requirement" and any(not isinstance(x, str) for x in record.get(ids_field, [])):
        return "BAD_TYPE", f"requirement {rid!r} {ids_field} must hold ids"
    field, allowed = RECORD_ENUMS[role]
    if record[field] not in allowed:
        if role == "component":
            return "BAD_ENUM", f"component {rid!r} scope must be general or specific"
        return "BAD_ENUM", f"{role} {rid!r} {field}: {record[field]!r} is not one of {', '.join(allowed)}"
    if role == "component":
        if record["scope"] == "specific" and "jurisdiction" not in record:
            return "MISSING_FIELD", f"specific component {rid!r} needs a jurisdiction"
        if record["scope"] == "general" and "jurisdiction" in record:
            return "UNKNOWN_FIELD", f"general component {rid!r} must not name a jurisdiction"
        if any(not isinstance(x, str) for x in record[ids_field]):
            return "BAD_TYPE", f"component {rid!r} {ids_field} must hold ids"
    return None


# ---------------------------------------------------------------------------
# reference validator: the first structural fault of a parsed corpus, by
# ordered scans over the rule definitions

#: the allowed levels of a jurisdiction's parent
_PARENT_LEVELS = {Level.NATIONAL: (), Level.STATE: (Level.NATIONAL,),
                  Level.ORGANISATIONAL: (Level.STATE, Level.NATIONAL)}


def first_structural_fault(corpus: Corpus) -> tuple[str, str, str] | None:
    """The first fault of ``corpus`` under the structural rules, as (code,
    message, item id), or None. The rules run in ``validate_corpus``'s
    documented order, each over its entities in id order:

    1. no id repeats an earlier one, over jurisdictions, sources,
       requirements and components, in that order;
    2. each jurisdiction's parent is known and of an allowed level;
    3. each source, then each requirement: its jurisdiction is known and
       no earlier item holds its (jurisdiction, concept, kind); a
       requirement with ``derivedFrom`` is not functional, and each of its
       source ids, in order, names a source of the kind its kind is
       elaborated from, held by its own jurisdiction or an ancestor;
    4. each ``refines`` pair, then each ``contradicts`` pair, in sorted
       order: both ends are known, distinct, of one role and of one kind;
    5. each component implements only requirements (the least other id is
       named) and is scoped to a known jurisdiction or to none.
    """
    jurisdictions = sorted(corpus.jurisdictions, key=lambda j: j.id)
    sources = sorted(corpus.sources, key=lambda s: s.id)
    requirements = sorted(corpus.requirements, key=lambda r: r.id)
    components = sorted(corpus.components, key=lambda c: c.id)

    seen = []
    for entity in (*jurisdictions, *sources, *requirements, *components):
        if entity.id in seen:
            return "DUPLICATE_ID", f"id {entity.id!r} declared twice", entity.id
        seen.append(entity.id)

    level_of = {j.id: j.level for j in jurisdictions}
    parent_of = {j.id: j.parent for j in jurisdictions}
    for j in jurisdictions:
        if j.parent is None:
            continue
        if j.parent not in level_of:
            return "DANGLING_REF", f"jurisdiction {j.id!r} has unknown parent {j.parent!r}", j.id
        if level_of[j.parent] not in _PARENT_LEVELS[j.level]:
            return ("LEVEL_VIOLATION",
                    f"{j.level.value} node {j.id!r} cannot have a {level_of[j.parent].value} parent", j.id)

    def self_and_ancestors(jid):
        out = [jid]
        while parent_of[out[-1]] is not None:  # the levels above bound every walk
            out.append(parent_of[out[-1]])
        return out

    source_by_id = {s.id: s for s in sources}
    earlier = []
    for item in (*sources, *requirements):
        role = "source" if isinstance(item, SourceItem) else "requirement"
        if item.jurisdiction not in level_of:
            return ("DANGLING_REF",
                    f"{role} {item.id!r} references unknown jurisdiction {item.jurisdiction!r}", item.id)
        for other in earlier:
            if (other.jurisdiction, other.concept_key, other.kind) == (item.jurisdiction, item.concept_key, item.kind):
                return ("DUPLICATE_CONCEPT",
                        f"jurisdiction {item.jurisdiction!r} declares concept {item.concept_key!r} twice for kind "
                        f"{item.kind.value}: {other.id!r} and {item.id!r}", item.id)
        earlier.append(item)
        if role == "source" or not item.derived_from:
            continue
        if item.kind is RequirementKind.FUNCTIONAL:
            return ("FUNCTIONAL_WITH_SOURCES",
                    f"functional requirement {item.id!r} must not derive from sources", item.id)
        for sid in sorted(item.derived_from):
            src = source_by_id.get(sid)
            if src is None:
                return "DANGLING_REF", f"requirement {item.id!r} derives from unknown source {sid!r}", item.id
            if src.kind is not SOURCE_KIND_FOR_REQUIREMENT[item.kind]:
                return ("DERIVED_FROM_KIND",
                        f"{item.kind.value} requirement {item.id!r} derives from {src.kind.value} source {sid!r}",
                        item.id)
            if src.jurisdiction not in self_and_ancestors(item.jurisdiction):
                return ("DERIVED_FROM_JURISDICTION",
                        f"requirement {item.id!r} derives from source {sid!r} of unrelated jurisdiction "
                        f"{src.jurisdiction!r}", item.id)

    item_by_id = {x.id: x for x in (*sources, *requirements)}
    for name, pairs in (("refines", corpus.relations.refines), ("contradicts", corpus.relations.contradicts)):
        for a, b in sorted(pairs):
            for end in (a, b):
                if end not in item_by_id:
                    return "DANGLING_REF", f"relation references unknown id {end!r}", end
            if a == b:
                return "RELATION_IRREFLEXIVE", f"{name} pair relates {a!r} to itself", a
            if isinstance(item_by_id[a], SourceItem) != isinstance(item_by_id[b], SourceItem):
                return "RELATION_ROLE_MISMATCH", f"{name} pair ({a!r}, {b!r}) mixes roles", a
            if item_by_id[a].kind is not item_by_id[b].kind:
                return "RELATION_KIND_MISMATCH", f"{name} pair ({a!r}, {b!r}) mixes kinds", a

    requirement_ids = {r.id for r in requirements}
    for c in components:
        missing = sorted(c.implements - requirement_ids)
        if missing:
            return "DANGLING_REF", f"component {c.id!r} implements unknown requirement {missing[0]!r}", c.id
        if c.jurisdiction is not None and c.jurisdiction not in level_of:
            return "DANGLING_REF", f"component {c.id!r} scoped to unknown jurisdiction", c.id
    return None


# ---------------------------------------------------------------------------
# reference change path: each op builds a fresh corpus, with no cached fact
# carried over, and the whole corpus is validated after it

def _concept_items(corpus: Corpus, kind: RequirementKind, concept: str) -> dict[str, list[Requirement]]:
    return {j.id: [r for r in corpus.requirements if (r.jurisdiction, r.kind, r.concept_key) == (j.id, kind, concept)]
            for j in corpus.jurisdictions}


def _edit(item, op: ChangeOp, target):
    text = op.payload.text if op.payload.text is not None else item.text
    concept = op.payload.concept_key if op.payload.concept_key is not None else item.concept_key
    # the target's text, or none, keeps the hash, so every item the op writes gets the same one
    digest = item.content_hash if op.payload.text in (None, target.text) else model.content_hash(text)
    new = item._replace(text=text, concept_key=concept, content_hash=digest)
    if (new.concept_key, new.content_hash) == (item.concept_key, item.content_hash):
        raise ValidationError("NO_CHANGE", f"modify op on {op.target!r} keeps its concept key and content")
    return new


def _swap(corpus: Corpus, *updated) -> Corpus:
    new = {item.id: item for item in updated}
    return Corpus(corpus.jurisdictions, tuple(new.get(s.id, s) for s in corpus.sources),
                  tuple(new.get(r.id, r) for r in corpus.requirements), corpus.relations, corpus.components)


def _implementing(corpus: Corpus, rid: str) -> list[str]:
    return [c.id for c in corpus.components if rid in c.implements]


def _per_component(corpus: Corpus, changed: set[str], kept: set[str] = frozenset()) -> tuple[tuple[str, str], ...]:
    """Change impact defined per component, in id order: ``mustChange`` when
    it implements a changed requirement, ``unchanged`` when it implements
    only kept ones, absent when it implements neither."""
    impact = []
    for c in corpus.components:
        if c.implements & changed:
            impact.append((c.id, "mustChange"))
        elif c.implements & kept:
            impact.append((c.id, "unchanged"))
    return tuple(impact)


def _no_adopted_by(op: ChangeOp) -> None:
    if op.adopted_by is not None:
        raise ValidationError(
            "UNKNOWN_FIELD", f"modify op on {op.target!r} takes adoptedBy only for a general-set requirement")


def _scratch_modify(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    target = corpus.requirement_map()[op.target]
    view = _concept_items(corpus, target.kind, target.concept_key)
    all_jids = frozenset(view)
    if op.target in per_concept_partition(view)[0]:
        if op.adopted_by is None:
            raise MissingAdoptedByError(op.target)
        group = [items[0] for items in view.values()]
        if op.adopted_by == all_jids:
            impact = _per_component(corpus, {r.id for r in group})
            out = _swap(corpus, *(_edit(r, op, target) for r in group))
            return out, OpRecord("modify", op.target, "2a", (), all_jids, impact)
        adopts = {r.id: r.jurisdiction in op.adopted_by for r in group}
        impact = _per_component(corpus, {i for i in adopts if adopts[i]}, {i for i in adopts if not adopts[i]})
        migrations = tuple(Migration(r.id, "general", f"specific:{r.jurisdiction}") for r in group)
        out = _swap(corpus, *(_edit(r, op, target) for r in group if adopts[r.id]))
        return out, OpRecord("modify", op.target, "2b", migrations, frozenset(op.adopted_by), impact)
    _no_adopted_by(op)
    new_target = _edit(target, op, target)
    out = _swap(corpus, new_target)
    own = tuple((c, "mustChange") for c in _implementing(corpus, op.target))
    after = _concept_items(out, target.kind, new_target.concept_key)
    if op.target not in per_concept_partition(after)[0]:
        return out, OpRecord("modify", op.target, "1a", (), frozenset({target.jurisdiction}), own)
    counterparts = [r for items in after.values() for r in items if r.id != op.target]
    migrations = tuple(Migration(r.id, f"specific:{r.jurisdiction}", "general")
                       for r in sorted([new_target, *counterparts], key=lambda r: r.id))
    # each component once: it must change when it implements the target, else it is reusable
    merged = {op.target, *(r.id for r in counterparts)}
    impact = tuple((c.id, "mustChange" if op.target in c.implements else "reusable")
                   for c in corpus.components if c.implements & merged)
    hints = tuple(ReuseHint(c, r.jurisdiction, target.jurisdiction, r.id)
                  for r in counterparts for c in _implementing(corpus, r.id))
    return out, OpRecord("modify", op.target, "1b", migrations, all_jids, impact, hints)


def _scratch_source_modify(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    _no_adopted_by(op)
    old = {s.id: s for s in corpus.sources}[op.target]
    impact = _per_component(corpus, {r.id for r in corpus.requirements if old.id in r.derived_from})
    return _swap(corpus, _edit(old, op, old)), OpRecord(
        "modify", op.target, "SOURCE_CHANGE", (), frozenset({old.jurisdiction}), impact)


def _scratch_add(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    item = op.payload
    sources, requirements = corpus.sources, corpus.requirements
    if item.role == "source":
        sources += (item,)
    else:
        requirements += (item,)
    out = Corpus(corpus.jurisdictions, sources, requirements, corpus.relations, corpus.components)
    return out, OpRecord("add", op.target, "ADD", (), frozenset({item.jurisdiction}), ())


def _scratch_remove(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    rid = op.target
    item = {s.id: s for s in corpus.sources}.get(rid) or corpus.requirement_map()[rid]
    out = Corpus(
        corpus.jurisdictions,
        tuple(s for s in corpus.sources if s.id != rid),
        tuple(r for r in corpus.requirements if r.id != rid),
        RelationSet(refines=frozenset(p for p in corpus.relations.refines if rid not in p),
                    contradicts=frozenset(p for p in corpus.relations.contradicts if rid not in p)),
        tuple(replace(c, implements=c.implements - {rid}) for c in corpus.components),
    )
    impact = tuple((c, "mustChange") for c in _implementing(corpus, rid))
    return out, OpRecord("remove", rid, "REMOVE", (), frozenset({item.jurisdiction}), impact)


def scratch_apply_change_set(corpus: Corpus, cs: ChangeSet) -> tuple[Corpus, ImpactReport]:
    """``changes.apply_change_set`` as a from-scratch loop: each op yields a
    new corpus that caches nothing from the one before, and
    ``validate_corpus`` checks the whole of it."""
    validate_change_set(cs, corpus)
    corpus.relations.refinement_order  # raises CycleError
    source_ids = {s.id for s in corpus.sources}
    current, records = corpus, []
    for op in cs.ops:
        if op.op in ("add", "remove"):
            current, record = (_scratch_add if op.op == "add" else _scratch_remove)(current, op)
        else:
            current, record = (_scratch_source_modify if op.target in source_ids else _scratch_modify)(current, op)
        model.validate_corpus(current)
        records.append(record)
    return current, ImpactReport(label=cs.label, per_op=tuple(records))


def scratch_impact_body(corpus: Corpus, cs: ChangeSet) -> dict:
    """The ``change`` command's JSON body from :func:`scratch_apply_change_set`.
    ``before`` and ``after`` hash each corpus as :func:`dumps_layout` lays it
    out, so neither digest goes through ``corpus_io.canonical_bytes``."""
    after, report = scratch_apply_change_set(corpus, cs)

    def digest(c: Corpus) -> str:
        return hashlib.sha256(dumps_layout(corpus_to_doc(c)).encode("utf-8")).hexdigest()

    hints = sorted((h for record in report.per_op for h in record.reuse), key=lambda h: (h.component_id, h.via_requirement))
    return {
        "label": cs.label, "before": digest(corpus), "after": digest(after),
        "ops": [{"op": r.op, "target": r.target, "case": r.case_code,
                 "migrations": [{"id": m.item_id, "from": m.from_set, "to": m.to_set} for m in r.migrations],
                 "affected": sorted(r.affected), "components": [{"id": c, "status": s} for c, s in r.component_impact]}
                for r in report.per_op],
        "reuseHints": [{"component": h.component_id, "owner": h.owner_jurisdiction, "for": h.for_jurisdiction,
                        "via": h.via_requirement} for h in hints],
    }


# ---------------------------------------------------------------------------
# TOPSIS in numpy arrays


def numpy_topsis(alternatives: list[str], criteria: list[tuple[str, float, str]], values) -> Ranking:
    """``rank_alternatives(make_matrix(alternatives, criteria, values))`` as the
    package computed it in numpy, errors and their order included. numpy picks
    each sum's order from the arrays' memory layout, so these are the bits that
    the stdlib floats of ``reqlattice.topsis`` must equal. The one change is the
    weights' total: a left-to-right loop, as builtin ``sum`` was on Python 3.11,
    since from 3.12 ``sum`` compensates for rounding."""
    raw = [w for _, w, _ in criteria]
    if any(w < 0 for w in raw):
        raise ValueError("criterion weights must be nonnegative")
    scale = math.ldexp(1.0, math.frexp(max(raw, default=0.0))[1] - 1)
    total = 0.0
    for w in raw:
        total += w / scale
    if criteria and total <= 0:
        raise DegenerateMatrixError("every criterion has weight 0; nothing to rank by")
    crits = tuple(Criterion(cid, w / scale / total, direction) for (cid, w, direction) in criteria)
    for c in crits:
        if c.direction not in ("benefit", "cost"):
            raise ValueError(f"criterion {c.id!r} direction must be benefit or cost")
    values = np.asarray(values, dtype=float)
    if values.shape != (len(alternatives), len(crits)):
        raise ValueError("matrix shape does not match alternative/criterion counts")
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix values must be finite")

    if len(alternatives) == 0 or len(crits) == 0:
        raise DegenerateMatrixError("matrix has no alternatives or no criteria")
    if len(alternatives) == 1:
        return Ranking(entries=((alternatives[0], 1.0),), dropped_criteria=())
    keep = [j for j in range(values.shape[1]) if values[:, j].max() > values[:, j].min()]
    dropped = tuple(crits[j].id for j in range(values.shape[1]) if j not in keep)
    if not keep:
        raise DegenerateMatrixError("every criterion column is constant; nothing discriminates")
    weights = np.array([crits[j].weight for j in keep])
    if weights.sum() <= 0:
        raise DegenerateMatrixError("every criterion that discriminates has weight 0; nothing to rank by")

    values = values[:, keep]
    values = values / np.ldexp(1.0, np.frexp(np.abs(values).max(axis=0))[1] - 1)
    weights = weights / weights.sum()
    benefit = np.array([crits[j].direction == "benefit" for j in keep])
    weighted = values / np.linalg.norm(values, axis=0) * weights

    ideal = np.where(benefit, weighted.max(axis=0), weighted.min(axis=0))
    anti = np.where(benefit, weighted.min(axis=0), weighted.max(axis=0))
    d_plus = np.linalg.norm(weighted - ideal, axis=1)
    d_minus = np.linalg.norm(weighted - anti, axis=1)
    if not np.all(d_plus + d_minus > 0.0):
        raise DegenerateMatrixError("the scores differ too little to rank")
    closeness = d_minus / (d_plus + d_minus)

    order = sorted(range(len(alternatives)), key=lambda i: (-closeness[i], alternatives[i]))
    entries = tuple((alternatives[i], float(closeness[i])) for i in order)
    return Ranking(entries=entries, dropped_criteria=dropped)

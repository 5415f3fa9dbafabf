"""Parsing, validation and canonical serialization of the on-disk formats.

Formats (all JSON syntax, strict schema, ``formatVersion: 1``):

* corpus ``.reqcorpus.json`` — sections ``jurisdictions``, ``sources``,
  ``requirements``, ``relations`` (``refines``/``contradicts`` id-pair arrays)
  and ``components``;
* change set ``.reqchange.json`` — ``label`` plus ordered ``ops``;
* alternatives ``.reqalts.json`` — candidate solutions with satisfaction
  scores for conflicting requirements (see :mod:`reqlattice.topsis`).

Serialization is canonical: keys sorted, arrays sorted by id, two-space
indent, trailing newline. ``load(save(c)) == c`` and a second save is
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from reqlattice import model
from reqlattice.errors import IOFailure, ParseError, ValidationError
from reqlattice.model import (
    Component,
    ComponentScope,
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
    SourceItem,
    SourceKind,
)

FORMAT_VERSION = 1

#: kind-based default for sources lacking an explicit isStatic flag:
#: cultural influences rarely change, regulations do.
_DEFAULT_STATIC = {SourceKind.LEGAL: False, SourceKind.CULTURAL: True}


# ---------------------------------------------------------------------------
# strict-schema helpers

def _require_obj(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError("BAD_TYPE", f"{what} must be an object")
    return value


def _take(obj: dict, what: str, required: dict[str, type], optional: dict[str, type]) -> dict:
    """Check ``obj`` against a closed schema and return it.

    The first unknown key fails first, then the first missing or wrongly
    typed field in schema order, required fields before optional ones. A
    JSON value's type is exact, so ``type(...) is`` keeps a bool out of an
    int field.
    """
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError("UNKNOWN_FIELD", f"{what} has unknown field {key!r}")
    for key, typ in required.items():
        if key not in obj:
            raise ValidationError("MISSING_FIELD", f"{what} lacks required field {key!r}")
        if type(obj[key]) is not typ:
            raise ValidationError("BAD_TYPE", f"{what} field {key!r} has the wrong type")
    for key, typ in optional.items():
        if key in obj and type(obj[key]) is not typ:
            raise ValidationError("BAD_TYPE", f"{what} field {key!r} has the wrong type")
    return obj


def _enum(value: str, enum_cls, what: str):
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise ValidationError("BAD_ENUM", f"{what}: {value!r} is not one of {allowed}") from None


def _id_pairs(value: Any, what: str) -> list[tuple[str, str]]:
    if not isinstance(value, list):
        raise ValidationError("BAD_TYPE", f"{what} must be an array of id pairs")
    pairs = []
    for entry in value:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise ValidationError("BAD_TYPE", f"{what} entries must be [id, id] pairs")
        pairs.append((entry[0], entry[1]))
    return pairs


def _read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IOFailure(str(path), exc) from exc

    def non_finite(token: str):
        raise ParseError(f"non-finite number {token} is not allowed", path=str(path))

    def finite(convert):
        # a literal that overflows a float would become inf (or, for ints,
        # fail float() later), so it is rejected like NaN and Infinity
        def parse(token: str):
            if not math.isfinite(float(token)):
                non_finite(token)
            return convert(token)
        return parse

    try:
        return json.loads(text, parse_constant=non_finite,
                          parse_float=finite(float), parse_int=finite(int))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=str(path), line=exc.lineno) from exc
    except RecursionError:
        raise ParseError("document nests too deeply", path=str(path)) from None


def _check_version(doc: dict, what: str) -> None:
    if doc.get("formatVersion") != FORMAT_VERSION:
        raise ValidationError("FORMAT_VERSION", f"{what} requires formatVersion {FORMAT_VERSION}")


# ---------------------------------------------------------------------------
# corpus

_ITEM_FIELDS = {"id": str, "kind": str, "jurisdiction": str, "conceptKey": str, "text": str}


def _source(raw: Any) -> SourceItem:
    """One source record, from a corpus or an add op's payload."""
    s = _take(_require_obj(raw, "source"), "source", _ITEM_FIELDS, {"contentHash": str, "isStatic": bool})
    kind = _enum(s["kind"], SourceKind, f"source {s['id']!r} kind")
    return SourceItem(
        id=s["id"], kind=kind, jurisdiction=s["jurisdiction"],
        concept_key=s["conceptKey"], text=s["text"],
        content_hash=s.get("contentHash") or model.content_hash(s["text"]),
        is_static=s.get("isStatic", _DEFAULT_STATIC[kind]),
    )


def _requirement(raw: Any) -> Requirement:
    """One requirement record, from a corpus or an add op's payload."""
    r = _take(_require_obj(raw, "requirement"), "requirement", _ITEM_FIELDS,
              {"contentHash": str, "derivedFrom": list})
    derived = r.get("derivedFrom", [])
    if not all(isinstance(x, str) for x in derived):
        raise ValidationError("BAD_TYPE", f"requirement {r['id']!r} derivedFrom must hold ids")
    return Requirement(
        id=r["id"],
        kind=_enum(r["kind"], RequirementKind, f"requirement {r['id']!r} kind"),
        jurisdiction=r["jurisdiction"], concept_key=r["conceptKey"], text=r["text"],
        content_hash=r.get("contentHash") or model.content_hash(r["text"]),
        derived_from=frozenset(derived),
    )


#: the record parser for each ``role`` an add op's payload may name
_ITEM_PARSERS = {"source": _source, "requirement": _requirement}


def parse_corpus(doc: Any) -> Corpus:
    top = _require_obj(doc, "corpus document")
    fields = _take(
        top,
        "corpus document",
        {"formatVersion": int, "jurisdictions": list},
        {"sources": list, "requirements": list, "relations": dict, "components": list},
    )
    _check_version(fields, "corpus")

    jurisdictions = []
    for raw in fields["jurisdictions"]:
        j = _take(_require_obj(raw, "jurisdiction"), "jurisdiction",
                  {"id": str, "name": str, "level": str}, {"parent": str})
        jurisdictions.append(Jurisdiction(
            id=j["id"], name=j["name"],
            level=_enum(j["level"], Level, f"jurisdiction {j['id']!r} level"),
            parent=j.get("parent"),
        ))

    sources = [_source(raw) for raw in fields.get("sources", [])]
    requirements = [_requirement(raw) for raw in fields.get("requirements", [])]

    rel_raw = _take(_require_obj(fields.get("relations", {}), "relations"), "relations",
                    {}, {"refines": list, "contradicts": list})
    relations = RelationSet(
        refines=frozenset(_id_pairs(rel_raw.get("refines", []), "relations.refines")),
        contradicts=frozenset(_id_pairs(rel_raw.get("contradicts", []), "relations.contradicts")),
    )

    components = []
    for raw in fields.get("components", []):
        c = _take(_require_obj(raw, "component"), "component",
                  {"id": str, "implements": list, "scope": str}, {"jurisdiction": str})
        if c["scope"] not in ("general", "specific"):
            raise ValidationError("BAD_ENUM", f"component {c['id']!r} scope must be general or specific")
        if c["scope"] == "specific" and "jurisdiction" not in c:
            raise ValidationError("MISSING_FIELD", f"specific component {c['id']!r} needs a jurisdiction")
        if c["scope"] == "general" and "jurisdiction" in c:
            raise ValidationError("UNKNOWN_FIELD", f"general component {c['id']!r} must not name a jurisdiction")
        if not all(isinstance(x, str) for x in c["implements"]):
            raise ValidationError("BAD_TYPE", f"component {c['id']!r} implements must hold ids")
        scope = ComponentScope.general() if c["scope"] == "general" else ComponentScope.specific(c["jurisdiction"])
        components.append(Component(id=c["id"], implements=frozenset(c["implements"]), scope=scope))

    corpus = Corpus(
        jurisdictions=tuple(jurisdictions),
        sources=tuple(sources),
        requirements=tuple(requirements),
        relations=relations,
        components=tuple(components),
    )
    model.validate_corpus(corpus)
    relations.refinement_order  # built here once; raises CycleError on a cyclic declaration
    return corpus


def load_corpus(path: str | Path) -> Corpus:
    return parse_corpus(_read_json(path))


def corpus_to_doc(corpus: Corpus) -> dict:
    def jur(j: Jurisdiction) -> dict:
        out = {"id": j.id, "name": j.name, "level": j.level.value}
        if j.parent is not None:
            out["parent"] = j.parent
        return out

    def comp(c: Component) -> dict:
        out = {"id": c.id, "implements": sorted(c.implements), "scope": c.scope.kind}
        if c.scope.kind == "specific":
            out["jurisdiction"] = c.scope.jurisdiction
        return out

    return {
        "formatVersion": FORMAT_VERSION,
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


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def canonical_bytes(corpus: Corpus) -> bytes:
    return canonical_json(corpus_to_doc(corpus)).encode("utf-8")


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical bytes; their digest becomes the corpus fingerprint.

    ``Corpus.fingerprint`` is a cached property, so filling its slot in the
    instance dict spares a second serialisation when the fingerprint is
    read after saving.
    """
    data = canonical_bytes(corpus)
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IOFailure(str(path), exc) from exc
    if "fingerprint" not in vars(corpus):
        vars(corpus)["fingerprint"] = hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# change sets

@dataclass(frozen=True)
class ChangePayload:
    """New content for a modify op; unset fields keep the old value."""

    text: str | None = None
    concept_key: str | None = None


@dataclass(frozen=True)
class ChangeOp:
    op: str  # "add" | "remove" | "modify"
    target: str
    # the new item for an add op (its id is ``target``), new content for a modify
    payload: ChangePayload | SourceItem | Requirement | None = None
    adopted_by: frozenset[str] | None = None


@dataclass(frozen=True)
class ChangeSet:
    label: str
    ops: tuple[ChangeOp, ...]


#: the fields each op kind takes besides ``op`` and ``target``; a payload is
#: required wherever it is allowed
_OP_FIELDS = {"add": {"payload"}, "modify": {"payload", "adoptedBy"}, "remove": set()}


def _add_item(target: str, payload: dict) -> SourceItem | Requirement:
    """Parse an add payload as the corpus record of its ``role``, with id ``target``."""
    if "id" in payload:
        raise ValidationError("UNKNOWN_FIELD", f"add op {target!r} payload must not carry an id; the target is its id")
    record = dict(payload)
    role = record.pop("role", None)
    if role is None:
        raise ValidationError("MISSING_FIELD", f"add op {target!r} payload lacks required field 'role'")
    if not (isinstance(role, str) and role in _ITEM_PARSERS):
        raise ValidationError("BAD_ENUM", f"add op {target!r} role: {role!r} is not one of source, requirement")
    return _ITEM_PARSERS[role]({**record, "id": target})


def parse_change_set(doc: Any) -> ChangeSet:
    top = _take(_require_obj(doc, "change set"), "change set",
                {"formatVersion": int, "label": str, "ops": list}, {})
    _check_version(top, "change set")
    ops: list[ChangeOp] = []
    targets: set[str] = set()
    for raw in top["ops"]:
        o = _take(_require_obj(raw, "change op"), "change op",
                  {"op": str, "target": str}, {"payload": dict, "adoptedBy": list})
        if o["op"] not in _OP_FIELDS:
            raise ValidationError("BAD_ENUM", f"op must be add/remove/modify, got {o['op']!r}")
        if o["target"] in targets:
            raise ValidationError("DUPLICATE_TARGET", f"two ops target {o['target']!r}", item_id=o["target"])
        targets.add(o["target"])
        allowed = _OP_FIELDS[o["op"]]
        extra = sorted(o.keys() - {"op", "target"} - allowed)
        if extra:
            raise ValidationError("UNKNOWN_FIELD", f"{o['op']} op on {o['target']!r} takes no field {extra[0]!r}")
        if "payload" in allowed and "payload" not in o:
            raise ValidationError("MISSING_FIELD", f"{o['op']} op on {o['target']!r} needs a payload")

        payload = None
        if o["op"] == "add":
            payload = _add_item(o["target"], o["payload"])
        elif o["op"] == "modify":
            p = _take(o["payload"], f"payload of {o['target']!r}", {}, {"text": str, "conceptKey": str})
            payload = ChangePayload(text=p.get("text"), concept_key=p.get("conceptKey"))

        adopted = None
        if "adoptedBy" in o:
            if not o["adoptedBy"] or not all(isinstance(x, str) for x in o["adoptedBy"]):
                raise ValidationError("BAD_TYPE", "adoptedBy must be a non-empty array of jurisdiction ids")
            adopted = frozenset(o["adoptedBy"])
        ops.append(ChangeOp(op=o["op"], target=o["target"], payload=payload, adopted_by=adopted))
    return ChangeSet(label=top["label"], ops=tuple(ops))


def validate_change_set(cs: ChangeSet, corpus: Corpus) -> None:
    """Cross-check a parsed change set against a concrete corpus."""
    known = set(corpus.source_map()) | set(corpus.requirement_map())
    jids = set(corpus.jurisdiction_map())
    for op in cs.ops:
        if op.op in ("modify", "remove") and op.target not in known:
            raise ValidationError("UNKNOWN_TARGET", f"{op.op} targets unknown id {op.target!r}", item_id=op.target)
        if op.op == "add" and op.target in known:
            raise ValidationError("TARGET_EXISTS", f"add target {op.target!r} already exists", item_id=op.target)
        if op.adopted_by is not None and not op.adopted_by <= jids:
            bad = sorted(op.adopted_by - jids)[0]
            raise ValidationError("UNKNOWN_JURISDICTION", f"adoptedBy names unknown jurisdiction {bad!r}", item_id=bad)


def load_change_set(path: str | Path, corpus: Corpus | None = None) -> ChangeSet:
    cs = parse_change_set(_read_json(path))
    if corpus is not None:
        validate_change_set(cs, corpus)
    return cs


# ---------------------------------------------------------------------------
# alternatives (TOPSIS input)

@dataclass(frozen=True)
class Alternative:
    id: str
    satisfies: dict[str, float]


@dataclass(frozen=True)
class AlternativesFile:
    alternatives: tuple[Alternative, ...]
    weights: dict[str, float]  # criterion id -> raw weight; may be empty


def parse_alternatives(doc: Any) -> AlternativesFile:
    top = _take(_require_obj(doc, "alternatives file"), "alternatives file",
                {"formatVersion": int, "alternatives": list}, {"weights": dict})
    _check_version(top, "alternatives file")
    alts = []
    seen: set[str] = set()
    for raw in top["alternatives"]:
        a = _take(_require_obj(raw, "alternative"), "alternative",
                  {"id": str, "satisfies": dict}, {})
        if a["id"] in seen:
            raise ValidationError("DUPLICATE_ID", f"alternative {a['id']!r} declared twice", item_id=a["id"])
        seen.add(a["id"])
        scores = {}
        for rid, score in a["satisfies"].items():
            if isinstance(score, bool) or not isinstance(score, (int, float)):
                raise ValidationError("BAD_TYPE", f"alternative {a['id']!r} score for {rid!r} must be a number")
            scores[rid] = float(score)
        alts.append(Alternative(id=a["id"], satisfies=scores))
    weights = {}
    for rid, w in top.get("weights", {}).items():
        if isinstance(w, bool) or not isinstance(w, (int, float)) or w < 0:
            raise ValidationError("BAD_TYPE", f"weight for {rid!r} must be a nonnegative number")
        weights[rid] = float(w)
    return AlternativesFile(alternatives=tuple(alts), weights=weights)


def load_alternatives(path: str | Path) -> AlternativesFile:
    return parse_alternatives(_read_json(path))


# ---------------------------------------------------------------------------
# report envelope

TOOL_NAME = "reqlattice"


def report_envelope(report_type: str, body: Any) -> dict:
    return {"tool": TOOL_NAME, "formatVersion": FORMAT_VERSION, "reportType": report_type, "body": body}

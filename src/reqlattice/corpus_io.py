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
byte-identical. Corpus bytes and every report envelope share one layout
routine, ``_render``.
"""

from __future__ import annotations

import json
import math
import re
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple

from reqlattice import model
from reqlattice.errors import IOFailure, ParseError, ValidationError
from reqlattice.model import (
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

FORMAT_VERSION = 1

#: kind-based default for sources lacking an explicit isStatic flag:
#: cultural influences rarely change, regulations do.
_DEFAULT_STATIC = {SourceKind.LEGAL: False, SourceKind.CULTURAL: True}


# ---------------------------------------------------------------------------
# strict-schema helpers

def _schema(required: dict[str, type], optional: dict[str, type]) -> tuple[dict[str, type], Any]:
    """A closed schema: every field's exact JSON type, required fields first, and the required keys."""
    return {**required, **optional}, required.keys()


def _take(obj: Any, what: str, schema: tuple[dict[str, type], Any]) -> dict:
    """Check ``obj`` against a closed schema and return it, or raise its first fault: a non-object, the first
    unknown key, then the first missing or wrongly typed field in schema order, required fields first.
    A JSON type is exact: ``type(...) is`` keeps a bool out of an int field. A source or requirement laid out as
    canonical_bytes writes it comes here only if it fails the same checks, made by its parser after one fetch.
    """
    fields, required = schema
    if not isinstance(obj, dict):
        raise ValidationError("BAD_TYPE", f"{what} must be an object")
    for key in obj:
        if key not in fields:
            raise ValidationError("UNKNOWN_FIELD", f"{what} has unknown field {key!r}")
    for key, typ in fields.items():
        if key not in obj:
            if key in required:
                raise ValidationError("MISSING_FIELD", f"{what} lacks required field {key!r}")
        elif type(obj[key]) is not typ:
            raise ValidationError("BAD_TYPE", f"{what} field {key!r} has the wrong type")
    return obj


def _member(members: dict[str, Any], record: dict, field: str, role: str):
    """The enum member that ``record[field]`` names, looked up by value."""
    member = members.get(record[field])
    if member is None:
        allowed = ", ".join(members)
        raise ValidationError("BAD_ENUM", f"{role} {record['id']!r} {field}: {record[field]!r} is not one of {allowed}")
    return member


def _id_pairs(value: list, what: str) -> list[tuple[str, str]]:
    for entry in value:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise ValidationError("BAD_TYPE", f"{what} entries must be [id, id] pairs")
    return [(a, b) for a, b in value]


def _read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IOFailure(str(path), exc) from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not valid UTF-8: {exc.reason} at byte {exc.start}", path=str(path), line=line) from None

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
        doc = json.loads(text, parse_constant=non_finite,
                         parse_float=finite(float), parse_int=finite(int))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=str(path), line=exc.lineno) from exc
    except RecursionError:
        raise ParseError("document nests too deeply", path=str(path)) from None
    # a memchr for the backslash spares a valid document the escape search;
    # json.loads joins an escaped surrogate pair, so a surrogate left in the
    # document was escaped alone, and UTF-8 cannot encode it
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            context = exc.object[max(0, exc.start - 30):exc.end]
            raise ParseError(f"unpaired surrogate escape in {context!r}", path=str(path)) from None
    return doc


_SURROGATE_ESCAPE = re.compile(r"\\u[dD]")


def _check_version(doc: dict, what: str) -> None:
    if doc.get("formatVersion") != FORMAT_VERSION:
        raise ValidationError("FORMAT_VERSION", f"{what} requires formatVersion {FORMAT_VERSION}")


# ---------------------------------------------------------------------------
# corpus

_ITEM_FIELDS = {"id": str, "kind": str, "jurisdiction": str, "conceptKey": str, "text": str}
_CORPUS_DOC = _schema({"formatVersion": int, "jurisdictions": list},
                      {"sources": list, "requirements": list, "relations": dict, "components": list})
_JURISDICTION = _schema({"id": str, "name": str, "level": str}, {"parent": str})
_SOURCE = _schema(_ITEM_FIELDS, {"contentHash": str, "isStatic": bool})
_REQUIREMENT = _schema(_ITEM_FIELDS, {"contentHash": str, "derivedFrom": list})
_RELATIONS = _schema({}, {"refines": list, "contradicts": list})
_COMPONENT = _schema({"id": str, "implements": list, "scope": str}, {"jurisdiction": str})
#: each enum's members by value, in definition order
_LEVELS, _SOURCE_KINDS, _REQUIREMENT_KINDS = ({e.value: e for e in cls} for cls in (Level, SourceKind, RequirementKind))
_SOURCE_FIELDS, _REQUIREMENT_FIELDS = itemgetter(*_SOURCE[0]), itemgetter(*_REQUIREMENT[0])  # all seven, in one call


def _source(raw: Any) -> SourceItem:
    """One source record, from a corpus or an add op's payload."""
    if type(raw) is dict and len(raw) == 7:  # as canonical_bytes writes it: one fetch, every check inline
        try:
            sid, kind, jid, key, text, digest, is_static = _SOURCE_FIELDS(raw)
        except KeyError:  # an unknown key in place of a known one
            pass
        else:
            if (type(sid) is type(kind) is type(jid) is type(key) is type(text) is type(digest) is str and digest
                    and type(is_static) is bool and kind in _SOURCE_KINDS):
                return SourceItem(sid, _SOURCE_KINDS[kind], jid, key, text, digest, is_static)
    s = _take(raw, "source", _SOURCE)
    kind = _member(_SOURCE_KINDS, s, "kind", "source")
    return SourceItem(s["id"], kind, s["jurisdiction"], s["conceptKey"], s["text"],
                      s.get("contentHash") or model.content_hash(s["text"]), s.get("isStatic", _DEFAULT_STATIC[kind]))


def _requirement(raw: Any) -> Requirement:
    """One requirement record, from a corpus or an add op's payload, read as ``_source`` reads a source."""
    if type(raw) is dict and len(raw) == 7:
        try:
            rid, kind, jid, key, text, digest, ids = _REQUIREMENT_FIELDS(raw)
            "".join(ids)  # raises TypeError unless ids holds only str
        except (KeyError, TypeError):
            pass
        else:
            if (type(rid) is type(kind) is type(jid) is type(key) is type(text) is type(digest) is str and digest
                    and type(ids) is list and kind in _REQUIREMENT_KINDS):
                return Requirement(rid, _REQUIREMENT_KINDS[kind], jid, key, text, digest, frozenset(ids) if ids else model.NO_DERIVATIONS)
    r = _take(raw, "requirement", _REQUIREMENT)
    derived = r.get("derivedFrom", ())
    for sid in derived:
        if not isinstance(sid, str):
            raise ValidationError("BAD_TYPE", f"requirement {r['id']!r} derivedFrom must hold ids")
    return Requirement(r["id"], _member(_REQUIREMENT_KINDS, r, "kind", "requirement"), r["jurisdiction"],
                       r["conceptKey"], r["text"], r.get("contentHash") or model.content_hash(r["text"]),
                       frozenset(derived) if derived else model.NO_DERIVATIONS)


#: the record parser for each ``role`` an add op's payload may name
_ITEM_PARSERS = {"source": _source, "requirement": _requirement}


def parse_corpus(doc: Any) -> Corpus:
    fields = _take(doc, "corpus document", _CORPUS_DOC)
    _check_version(fields, "corpus")

    jurisdictions = []
    for raw in fields["jurisdictions"]:
        j = _take(raw, "jurisdiction", _JURISDICTION)
        level = _member(_LEVELS, j, "level", "jurisdiction")
        jurisdictions.append(Jurisdiction(id=j["id"], name=j["name"], level=level, parent=j.get("parent")))

    sources = [_source(raw) for raw in fields.get("sources", ())]
    requirements = [_requirement(raw) for raw in fields.get("requirements", ())]

    rel_raw = _take(fields.get("relations", {}), "relations", _RELATIONS)
    relations = RelationSet(
        refines=frozenset(_id_pairs(rel_raw.get("refines", []), "relations.refines")),
        contradicts=frozenset(_id_pairs(rel_raw.get("contradicts", []), "relations.contradicts")),
    )

    components = []
    for raw in fields.get("components", ()):
        c = _take(raw, "component", _COMPONENT)
        if c["scope"] not in ("general", "specific"):
            raise ValidationError("BAD_ENUM", f"component {c['id']!r} scope must be general or specific")
        if c["scope"] == "specific" and "jurisdiction" not in c:
            raise ValidationError("MISSING_FIELD", f"specific component {c['id']!r} needs a jurisdiction")
        if c["scope"] == "general" and "jurisdiction" in c:
            raise ValidationError("UNKNOWN_FIELD", f"general component {c['id']!r} must not name a jurisdiction")
        if not all(isinstance(rid, str) for rid in c["implements"]):
            raise ValidationError("BAD_TYPE", f"component {c['id']!r} implements must hold ids")
        components.append(Component(id=c["id"], implements=frozenset(c["implements"]),
                                    jurisdiction=c.get("jurisdiction")))

    corpus = Corpus(jurisdictions=tuple(jurisdictions), sources=tuple(sources), requirements=tuple(requirements),
                    relations=relations, components=tuple(components))
    model.validate_corpus(corpus)
    relations.refinement_order  # built here once; raises CycleError on a cyclic declaration
    return corpus


def load_corpus(path: str | Path) -> Corpus:
    return parse_corpus(_read_json(path))


_str = json.encoder.encode_basestring  # the C escaper of json.dumps(ensure_ascii=False)
_PAD = "\n      "  # before each field of a source or requirement
_FIELD = "," + _PAD  # between two fields: nearly all the bytes, so one f-string each
_CHUNK = 64  # pieces per chunk that corpus_chunks joins and encodes at once: about 32 records


class _Laid(list):
    """Records laid out in advance at their place in the corpus: ``_render`` keeps each as one piece."""


def _array(pieces: Iterable[str], pad: str) -> str:
    """Rendered ``pieces`` as one JSON array, as ``indent=2`` lays it out after ``pad``."""
    inner = f",{pad}  ".join(pieces)
    return f"[{pad}  {inner}{pad}]" if inner else "[]"


def _render(value: Any, pad: str, out: list[str]) -> None:
    """Append the pieces of ``value`` as ``indent=2, sort_keys=True`` lays it out after ``pad``. Most strings are
    ids: a list of them is one piece, as is a record laid out in advance, and a dict writes its string values
    itself. One flat list, joined once or in chunks, copies each byte once; nested joins would copy it per level."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{" + inner
        for key, v in sorted(value.items()):
            if type(v) is str:
                out.append(f"{sep}{_str(key)}: {_str(v)}")
            else:
                out.append(f"{sep}{_str(key)}: ")
                _render(v, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif type(value) is _Laid and value:  # records, each its own piece between separators: no piece holds a section
        laid = ["," + inner] * (2 * len(value) - 1)
        laid[::2] = value
        out += "[" + inner, *laid, pad + "]"
    elif isinstance(value, (list, tuple)) and value and all(type(v) is str for v in value):  # ids, as one piece
        out.append(_array(map(_str, value), pad))
    elif isinstance(value, (list, tuple)) and value:
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _render(v, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, (dict, list, tuple)):  # empty
        out.append("{}" if isinstance(value, dict) else "[]")
    else:  # a scalar, through the C encoder of json.dumps
        out.append(_str(value) if isinstance(value, str) else json.dumps(value))


def canonical_json(doc: Any) -> str:
    """json.dumps(sort_keys=True, indent=2, ensure_ascii=False) + newline, without its pure-Python encoder."""
    out: list[str] = []
    _render(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def corpus_chunks(corpus: Corpus, layouts: dict[int, str] | None = None) -> Iterator[bytes]:
    """canonical_bytes as UTF-8 chunks of whole pieces, all rendered first. ``layouts`` keeps each record's f-string
    under its ``id()``, which is its own only while it lives: share a memo only among corpora that all outlive it."""
    layouts = {} if layouts is None else layouts
    out: list[str] = []
    _render({
        "components": [{"id": c.id, "implements": sorted(c.implements), "scope": "general"} if c.jurisdiction is None
                       else {"id": c.id, "implements": sorted(c.implements), "jurisdiction": c.jurisdiction,
                             "scope": "specific"} for c in corpus.components],
        "formatVersion": FORMAT_VERSION,
        "jurisdictions": [{"id": j.id, "level": j.level.value, "name": j.name} if j.parent is None
                          else {"id": j.id, "level": j.level.value, "name": j.name, "parent": j.parent}
                          for j in corpus.jurisdictions],
        "relations": {"contradicts": sorted(corpus.relations.contradicts),
                      "refines": sorted(corpus.relations.refines)},
        "requirements": _Laid(layouts.get(id(r)) or layouts.setdefault(id(r),
            f'{{\n      "conceptKey": {_str(r.concept_key)}{_FIELD}"contentHash": {_str(r.content_hash)}{_FIELD}'
            f'"derivedFrom": {_array(map(_str, sorted(r.derived_from)), _PAD)}{_FIELD}'
            f'"id": {_str(r.id)}{_FIELD}"jurisdiction": {_str(r.jurisdiction)}{_FIELD}"kind": {_str(r.kind)}{_FIELD}'
            f'"text": {_str(r.text)}\n    }}') for r in corpus.requirements),
        "sources": _Laid(layouts.get(id(s)) or layouts.setdefault(id(s),
            f'{{\n      "conceptKey": {_str(s.concept_key)}{_FIELD}"contentHash": {_str(s.content_hash)}{_FIELD}'
            f'"id": {_str(s.id)}{_FIELD}"isStatic": {"true" if s.is_static else "false"}{_FIELD}'
            f'"jurisdiction": {_str(s.jurisdiction)}{_FIELD}"kind": {_str(s.kind)}{_FIELD}"text": {_str(s.text)}\n    }}')
            for s in corpus.sources),
    }, "\n", out)
    out.append("\n")
    return ("".join(out[i:i + _CHUNK]).encode("utf-8") for i in range(0, len(out), _CHUNK))


def canonical_bytes(corpus: Corpus, layouts: dict[int, str] | None = None) -> bytes:
    """canonical_json of the corpus's document (tests/oracles.py), joined from corpus_chunks."""
    return b"".join(corpus_chunks(corpus, layouts))


def save_corpus(corpus: Corpus, path: str | Path, layouts: dict[int, str] | None = None) -> str:
    """Write corpus_chunks(corpus, layouts) to ``path``, rendered before the file opens; return the bytes' sha256."""
    chunks = corpus_chunks(corpus, layouts)
    digest = model.sha256()
    try:
        with open(path, "wb") as file:
            for chunk in chunks:
                file.write(chunk)
                digest.update(chunk)
    except OSError as exc:
        raise IOFailure(str(path), exc) from exc
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# change sets

class ChangePayload(NamedTuple):
    """New content for a modify op; unset fields keep the old value."""

    text: str | None = None
    concept_key: str | None = None


class ChangeOp(NamedTuple):
    op: str  # "add" | "remove" | "modify"
    target: str
    # the new item for an add op (its id is ``target``), new content for a modify
    payload: ChangePayload | SourceItem | Requirement | None = None
    adopted_by: frozenset[str] | None = None


class ChangeSet(NamedTuple):
    label: str
    ops: tuple[ChangeOp, ...]


#: the fields each op kind takes besides ``op`` and ``target``; a payload is
#: required wherever it is allowed
_OP_FIELDS = {"add": {"payload"}, "modify": {"payload", "adoptedBy"}, "remove": set()}
_CHANGE_SET = _schema({"formatVersion": int, "label": str, "ops": list}, {})
_CHANGE_OP = _schema({"op": str, "target": str}, {"payload": dict, "adoptedBy": list})
_MODIFY_PAYLOAD = _schema({}, {"text": str, "conceptKey": str})


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
    top = _take(doc, "change set", _CHANGE_SET)
    _check_version(top, "change set")
    ops: list[ChangeOp] = []
    targets: set[str] = set()
    for raw in top["ops"]:
        o = _take(raw, "change op", _CHANGE_OP)
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
            p = _take(o["payload"], f"payload of {o['target']!r}", _MODIFY_PAYLOAD)
            if not p:
                raise ValidationError("MISSING_FIELD", f"modify op on {o['target']!r} needs a text or conceptKey")
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
    known = corpus.by_id
    jids = corpus.ancestor_chains.keys()  # every jurisdiction id
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

class Alternative(NamedTuple):
    id: str
    satisfies: dict[str, float]


class AlternativesFile(NamedTuple):
    alternatives: tuple[Alternative, ...]
    weights: dict[str, float]  # criterion id -> raw weight; may be empty


_ALTERNATIVES_FILE = _schema({"formatVersion": int, "alternatives": list}, {"weights": dict})
_ALTERNATIVE = _schema({"id": str, "satisfies": dict}, {})


def parse_alternatives(doc: Any) -> AlternativesFile:
    top = _take(doc, "alternatives file", _ALTERNATIVES_FILE)
    _check_version(top, "alternatives file")
    alts = []
    seen: set[str] = set()
    for raw in top["alternatives"]:
        a = _take(raw, "alternative", _ALTERNATIVE)
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

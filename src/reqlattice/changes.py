"""Change application and impact classification.

Each modify of a requirement lands in exactly one of four cases:

* ``1a`` — a jurisdiction-specific requirement changes and stays specific;
* ``1b`` — a specific requirement becomes identical to every other
  jurisdiction's counterpart and the concept is promoted to the general set;
* ``2a`` — a general requirement changes and every jurisdiction adopts the
  new version, so it stays general;
* ``2b`` — only some jurisdictions adopt the new version of a general
  requirement: the concept splits out of the general set, adopters get the
  new content (their components must change), keepers stay on the old one
  (their components are untouched).

Ops are applied sequentially. A requirement modify recomputes only the
partition of its target's kind, before the op. Ops can only remove
``refines`` pairs, so acyclicity is checked once, on the input corpus. The
whole change set is atomic: any failure leaves the input corpus untouched
(it is immutable) and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from reqlattice import model
from reqlattice.corpus_io import ChangeOp, ChangeSet, validate_change_set
from reqlattice.errors import MissingAdoptedByError, UnknownTargetError, ValidationError
from reqlattice.model import Component, Corpus, RelationSet, Requirement, SourceItem
from reqlattice.partition import Partition, partition_requirements

CASE_SPEC_STAYS_SPEC = "1a"
CASE_SPEC_TO_GENERAL = "1b"
CASE_GEN_STAYS_GEN = "2a"
CASE_GEN_SPLITS = "2b"
CASE_ADD = "ADD"
CASE_REMOVE = "REMOVE"
CASE_SOURCE_CHANGE = "SOURCE_CHANGE"


@dataclass(frozen=True)
class Migration:
    item_id: str
    from_set: str  # "general" | "specific:<jid>" | "-"
    to_set: str


@dataclass(frozen=True)
class OpRecord:
    op: str
    target: str
    case_code: str
    migrations: tuple[Migration, ...]
    affected: frozenset[str]
    component_impact: tuple[tuple[str, str], ...]  # (component id, mustChange|unchanged|reusable)
    counterparts: tuple[str, ...] = ()  # other-jurisdiction ids merged by a 1b promotion


@dataclass(frozen=True)
class ImpactReport:
    label: str
    per_op: tuple[OpRecord, ...]
    before: Corpus = field(repr=False)
    after: Corpus = field(repr=False)

    # read on demand: a caller that saves ``after`` first (corpus_io.save_corpus
    # records the digest of what it writes) serialises the new corpus once
    @property
    def before_fingerprint(self) -> str:
        return self.before.fingerprint

    @property
    def after_fingerprint(self) -> str:
        return self.after.fingerprint


@dataclass(frozen=True)
class ReuseHint:
    component_id: str
    owner_jurisdiction: str
    for_jurisdiction: str
    via_requirement: str


def _components_implementing(corpus: Corpus, rid: str) -> list[Component]:
    return [c for c in corpus.components if rid in c.implements]  # id order


def _set_name(part: Partition, rid: str) -> str:
    owner = part.owner_of(rid)
    return "general" if owner is None else f"specific:{owner}"


#: the corpus member that holds the items of each role
_MEMBER = {"source": "sources", "requirement": "requirements"}


def _with_items(corpus: Corpus, role: str, *updated: SourceItem | Requirement) -> Corpus:
    """Swap in the updated items of ``role`` in a single pass."""
    name = _MEMBER[role]
    by_id = {item.id: item for item in updated}
    return replace(corpus, **{name: tuple(by_id.get(x.id, x) for x in getattr(corpus, name))})


def _reject_adopted_by(op: ChangeOp) -> None:
    if op.adopted_by is not None:
        raise ValidationError(
            "UNKNOWN_FIELD", f"modify op on {op.target!r} takes adoptedBy only for a general-set requirement")


def _apply_payload(item: SourceItem | Requirement, payload) -> SourceItem | Requirement:
    text = payload.text if payload.text is not None else item.text
    concept = payload.concept_key if payload.concept_key is not None else item.concept_key
    return replace(item, text=text, concept_key=concept, content_hash=model.content_hash(text))


def classify_change(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    """Classify and apply one modify op targeting a requirement.

    Returns the updated corpus (not yet revalidated) and the per-op record.
    """
    rmap = corpus.requirement_map()
    target = rmap.get(op.target)
    if target is None:
        raise UnknownTargetError(op.target)
    part = partition_requirements(corpus, target.kind)
    all_jids = frozenset(j.id for j in corpus.jurisdictions)
    new_target = _apply_payload(target, op.payload)

    if op.target in part.general:
        if op.adopted_by is None:
            raise MissingAdoptedByError(op.target)
        group = sorted(part.general_concepts[target.concept_key])
        by_jur = {rmap[rid].jurisdiction: rid for rid in group}

        if op.adopted_by == all_jids:
            # 2a: the new version stays general, every counterpart is updated
            out = _with_items(corpus, target.role, *(_apply_payload(rmap[rid], op.payload) for rid in group))
            impact = tuple(
                (c.id, "mustChange")
                for rid in group for c in _components_implementing(corpus, rid)
            )
            record = OpRecord(
                op="modify", target=op.target, case_code=CASE_GEN_STAYS_GEN,
                migrations=(), affected=all_jids, component_impact=impact,
            )
            return out, record

        # 2b: the concept leaves the general set; adopters switch to the new
        # content, keepers stay on the old version untouched
        adopters = []
        migrations = []
        impact = []
        for jid in sorted(all_jids):
            rid = by_jur[jid]
            if jid in op.adopted_by:
                adopters.append(_apply_payload(rmap[rid], op.payload))
                impact.extend((c.id, "mustChange") for c in _components_implementing(corpus, rid))
            else:
                impact.extend((c.id, "unchanged") for c in _components_implementing(corpus, rid))
            migrations.append(Migration(rid, "general", f"specific:{jid}"))
        record = OpRecord(
            op="modify", target=op.target, case_code=CASE_GEN_SPLITS,
            migrations=tuple(migrations), affected=frozenset(op.adopted_by),
            component_impact=tuple(impact),
        )
        return _with_items(corpus, target.role, *adopters), record

    # target sits in a specific set
    _reject_adopted_by(op)
    owner = part.owner_of(op.target)
    matches: dict[str, str] = {}  # jurisdiction -> its first identical item, in one walk
    for r in corpus.requirements:
        if (r.kind is target.kind and r.concept_key == new_target.concept_key
                and r.content_hash == new_target.content_hash):
            matches.setdefault(r.jurisdiction, r.id)
    others = sorted(all_jids - {owner})  # never empty: with one jurisdiction every requirement is general
    counterparts = [matches[jid] for jid in others] if matches.keys() >= set(others) else None

    out = _with_items(corpus, target.role, new_target)
    own_impact = tuple((c.id, "mustChange") for c in _components_implementing(corpus, op.target))

    if counterparts is None:
        # 1a: still specific to its jurisdiction; nobody else is touched
        record = OpRecord(
            op="modify", target=op.target, case_code=CASE_SPEC_STAYS_SPEC,
            migrations=(), affected=frozenset({owner}), component_impact=own_impact,
        )
        return out, record

    # 1b: now identical everywhere; the concept joins the general set and the
    # counterparts' components become reuse candidates for the promoter. Each
    # jurisdiction holds one item per (concept, kind), so every id moves (a
    # change that breaks that is rejected when the op's result is validated).
    migrations = [
        Migration(rid, _set_name(part, rid), "general")
        for rid in sorted([op.target, *counterparts])
    ]
    reuse = tuple(
        (c.id, "reusable")
        for rid in counterparts for c in _components_implementing(corpus, rid)
    )
    record = OpRecord(
        op="modify", target=op.target, case_code=CASE_SPEC_TO_GENERAL,
        migrations=tuple(migrations), affected=all_jids,
        component_impact=own_impact + reuse, counterparts=tuple(counterparts),
    )
    return out, record


def _apply_add(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    item = op.payload  # parsed by corpus_io as the corpus record of its role
    name = _MEMBER[item.role]
    out = replace(corpus, **{name: (*getattr(corpus, name), item)})
    record = OpRecord(
        op="add", target=op.target, case_code=CASE_ADD, migrations=(),
        affected=frozenset({item.jurisdiction}), component_impact=(),
    )
    return out, record


def _apply_remove(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    """Drop the item plus the relation pairs and component links naming it.

    A requirement still deriving from a removed source is left dangling on
    purpose; revalidation rejects it so authors must update the elaboration.
    """
    rid = op.target
    item = corpus.item(rid)  # validate_change_set found it in the input; no other op targets it
    relations = RelationSet(
        refines=frozenset(p for p in corpus.relations.refines if rid not in p),
        contradicts=frozenset(p for p in corpus.relations.contradicts if rid not in p),
    )
    components = tuple(
        replace(c, implements=frozenset(c.implements - {rid})) for c in corpus.components
    )
    out = replace(
        corpus,
        sources=tuple(s for s in corpus.sources if s.id != rid),
        requirements=tuple(r for r in corpus.requirements if r.id != rid),
        relations=relations,
        components=components,
    )
    impacted = tuple((c.id, "mustChange") for c in _components_implementing(corpus, rid))
    record = OpRecord(
        op="remove", target=rid, case_code=CASE_REMOVE, migrations=(),
        affected=frozenset({item.jurisdiction}), component_impact=impacted,
    )
    return out, record


def _apply_source_modify(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    _reject_adopted_by(op)
    old = corpus.source_map()[op.target]
    out = _with_items(corpus, old.role, _apply_payload(old, op.payload))
    dependents = [r.id for r in corpus.requirements if old.id in r.derived_from]
    impact = tuple(
        (c.id, "mustChange") for rid in dependents for c in _components_implementing(corpus, rid)
    )
    record = OpRecord(
        op="modify", target=op.target, case_code=CASE_SOURCE_CHANGE, migrations=(),
        affected=frozenset({old.jurisdiction}), component_impact=impact,
    )
    return out, record


def apply_change_set(corpus: Corpus, cs: ChangeSet) -> tuple[Corpus, ImpactReport]:
    validate_change_set(cs, corpus)
    # no op adds a refines pair, so an acyclic input stays acyclic
    corpus.relations.refinement_order  # raises CycleError; cached, and kept by every op but remove
    # a modify target exists in the input and no other op targets it, so it
    # keeps the role it has there
    source_ids = corpus.source_map().keys()
    current = corpus
    records: list[OpRecord] = []
    for op in cs.ops:
        if op.op == "add":
            current, record = _apply_add(current, op)
        elif op.op == "remove":
            current, record = _apply_remove(current, op)
        elif op.target in source_ids:
            current, record = _apply_source_modify(current, op)
        else:
            current, record = classify_change(current, op)
        model.validate_corpus(current)
        records.append(record)
    return current, ImpactReport(label=cs.label, per_op=tuple(records), before=corpus, after=current)


def reuse_hints(report: ImpactReport) -> list[ReuseHint]:
    """Component reuse candidates surfaced by 1b promotions.

    The pre-change corpus (``report.before``) supplies component ownership
    for the merged counterparts; a 1b target is a modify target, so it is
    in that corpus.
    """
    corpus = report.before
    rmap = corpus.requirement_map()
    hints: list[ReuseHint] = []
    for record in report.per_op:
        if record.case_code != CASE_SPEC_TO_GENERAL:
            continue
        promoter = rmap[record.target].jurisdiction
        for rid in record.counterparts:
            for comp in _components_implementing(corpus, rid):
                hints.append(ReuseHint(
                    component_id=comp.id,
                    owner_jurisdiction=rmap[rid].jurisdiction,
                    for_jurisdiction=promoter,
                    via_requirement=rid,
                ))
    hints.sort(key=lambda h: (h.component_id, h.via_requirement))
    return hints

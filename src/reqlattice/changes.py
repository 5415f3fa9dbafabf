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

Ops are applied sequentially. A requirement modify partitions only its
target's concept: the old one before the op and the new one after it. Ops
can only remove ``refines`` pairs, so acyclicity is checked once, on the
input corpus. The input is valid, so each op is checked only against the
rules it can break, on the items it touched, and hands its id map,
groupings and ancestor chains to the next corpus. The whole change set is
atomic: any failure leaves the input corpus untouched (it is immutable)
and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter

from reqlattice import model
from reqlattice.corpus_io import ChangeOp, ChangeSet, validate_change_set
from reqlattice.errors import MissingAdoptedByError, UnknownTargetError, ValidationError
from reqlattice.model import Component, Corpus, RelationSet, Requirement, RequirementKind, SourceItem
from reqlattice.partition import ItemView, partition_requirements

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


#: the corpus member that holds the items of each role
_MEMBER = {"source": "sources", "requirement": "requirements"}


def _with_items(corpus: Corpus, *written: SourceItem | Requirement, removed: SourceItem | Requirement | None = None,
                **fields) -> Corpus:
    """``corpus`` after an op that wrote ``written`` (items of one role) or
    dropped ``removed``, with ``fields`` replaced too. It takes over the id
    map and ancestor chains, and the groupings with the touched ones rebuilt.

    Ops keep the jurisdictions and only drop relation pairs and component
    links, and ``_apply_add`` checks an added id, so only the per-item rules
    can newly fail: on the written items, the rest of their (jurisdiction,
    concept, kind) and the requirements deriving from a removed source.
    """
    touched = (*written, removed) if removed else written
    if not touched:  # a 2b split that no jurisdiction adopts
        return corpus
    by_id = {**corpus.by_id, **{item.id: item for item in written}}
    added = [item for item in written if item.id not in corpus.by_id]
    name = _MEMBER[touched[0].role]
    kept = [by_id[x.id] for x in getattr(corpus, name) if x is not removed]
    out = replace(corpus, **{name: (*kept, *added)}, **fields)
    if removed:
        del by_id[removed.id]

    # a modify keeps an item's jurisdiction and kind: its new version takes the old one's place
    members = dict(corpus.members)
    for key in {(item.jurisdiction, item.kind) for item in touched}:
        group = [by_id[x.id] for x in members.pop(key, ()) if x.id in by_id]
        group += [x for x in added if (x.jurisdiction, x.kind) == key]
        if group:
            members[key] = tuple(sorted(group, key=attrgetter("id")))
    vars(out).update(by_id=by_id, members=members, ancestor_chains=corpus.ancestor_chains)

    checked = {x.id: x for item in written for x in members[item.jurisdiction, item.kind]
               if x.concept_key == item.concept_key}
    if isinstance(removed, SourceItem):
        checked.update((r.id, r) for r in out.requirements if removed.id in r.derived_from)
    model.check_items(out, sorted(checked.values(), key=lambda x: (x.role != "source", x.id)), by_id)
    return out


def _reject_adopted_by(op: ChangeOp) -> None:
    if op.adopted_by is not None:
        raise ValidationError(
            "UNKNOWN_FIELD", f"modify op on {op.target!r} takes adoptedBy only for a general-set requirement")


def _apply_payload(item: SourceItem | Requirement, payload) -> SourceItem | Requirement:
    text = payload.text if payload.text is not None else item.text
    concept = payload.concept_key if payload.concept_key is not None else item.concept_key
    return replace(item, text=text, concept_key=concept, content_hash=model.content_hash(text))


def _concept_view(corpus: Corpus, kind: RequirementKind, concept_key: str) -> ItemView:
    """Each jurisdiction's items of ``kind`` for one concept. Generality is
    decided per concept, so its partition agrees with the whole kind's."""
    return {
        j.id: [r for r in corpus.members.get((j.id, kind), ()) if r.concept_key == concept_key]
        for j in corpus.jurisdictions
    }


def classify_change(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    """Classify and apply one modify op targeting a requirement; returns the
    new corpus, checked as ``_with_items`` says, and the op's record."""
    target = corpus.by_id.get(op.target)
    if not isinstance(target, Requirement):
        raise UnknownTargetError(op.target)
    view = _concept_view(corpus, target.kind, target.concept_key)
    all_jids = frozenset(view)

    if op.target in partition_requirements(corpus, target.kind, view).general:
        if op.adopted_by is None:
            raise MissingAdoptedByError(op.target)
        group = [items[0] for items in view.values()]  # one per jurisdiction, in jurisdiction order

        if op.adopted_by == all_jids:
            # 2a: the new version stays general, every counterpart is updated
            out = _with_items(corpus, *(_apply_payload(r, op.payload) for r in group))
            impact = tuple(
                (c.id, "mustChange")
                for r in sorted(group, key=attrgetter("id")) for c in _components_implementing(corpus, r.id)
            )
            return out, OpRecord(
                op="modify", target=op.target, case_code=CASE_GEN_STAYS_GEN,
                migrations=(), affected=all_jids, component_impact=impact,
            )

        # 2b: the concept leaves the general set; adopters switch to the new
        # content, keepers stay on the old version untouched
        adopts = {r.id: r.jurisdiction in op.adopted_by for r in group}
        impact = tuple((c.id, "mustChange" if adopts[r.id] else "unchanged")
                       for r in group for c in _components_implementing(corpus, r.id))
        out = _with_items(corpus, *(_apply_payload(r, op.payload) for r in group if adopts[r.id]))
        return out, OpRecord(
            op="modify", target=op.target, case_code=CASE_GEN_SPLITS,
            migrations=tuple(Migration(r.id, "general", f"specific:{r.jurisdiction}") for r in group),
            affected=frozenset(op.adopted_by), component_impact=impact,
        )

    # target sits in a specific set
    _reject_adopted_by(op)
    new_target = _apply_payload(target, op.payload)
    out = _with_items(corpus, new_target)
    own_impact = tuple((c.id, "mustChange") for c in _components_implementing(corpus, op.target))
    after = _concept_view(out, target.kind, new_target.concept_key)

    if op.target not in partition_requirements(out, target.kind, after).general:
        # 1a: still specific to its jurisdiction; nobody else is touched
        return out, OpRecord(
            op="modify", target=op.target, case_code=CASE_SPEC_STAYS_SPEC,
            migrations=(), affected=frozenset({target.jurisdiction}), component_impact=own_impact,
        )

    # 1b: now identical everywhere; the concept joins the general set and the
    # counterparts' components become reuse candidates for the promoter. A
    # counterpart was specific before the op: were it general, another item of
    # the target's jurisdiction would hold the new content, a repeat that
    # validation rejects.
    counterparts = [r for items in after.values() for r in items if r.id != op.target]  # jurisdiction order
    migrations = [
        Migration(r.id, f"specific:{r.jurisdiction}", "general")
        for r in sorted([new_target, *counterparts], key=attrgetter("id"))
    ]
    reuse = tuple(
        (c.id, "reusable")
        for r in counterparts for c in _components_implementing(corpus, r.id)
    )
    return out, OpRecord(
        op="modify", target=op.target, case_code=CASE_SPEC_TO_GENERAL,
        migrations=tuple(migrations), affected=all_jids,
        component_impact=own_impact + reuse, counterparts=tuple(r.id for r in counterparts),
    )


def _apply_add(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    item = op.payload  # parsed by corpus_io as the corpus record of its role
    # the change set keeps its id off every item; a jurisdiction or component may hold it
    model.check_unique_ids((*corpus.ancestor_chains, *(c.id for c in corpus.components), item.id))
    return _with_items(corpus, item), OpRecord(
        op="add", target=op.target, case_code=CASE_ADD, migrations=(),
        affected=frozenset({item.jurisdiction}), component_impact=(),
    )


def _apply_remove(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    """Drop the item plus the relation pairs and component links naming it.

    A requirement still deriving from a removed source is left dangling on
    purpose; the check rejects it so authors must update the elaboration.
    """
    rid = op.target
    item = corpus.by_id[rid]  # validate_change_set found it in the input; no other op targets it
    relations = RelationSet(
        refines=frozenset(p for p in corpus.relations.refines if rid not in p),
        contradicts=frozenset(p for p in corpus.relations.contradicts if rid not in p),
    )
    components = tuple(  # untouched components stay the same objects, as in _with_items
        replace(c, implements=c.implements - {rid}) if rid in c.implements else c for c in corpus.components
    )
    impacted = tuple((c.id, "mustChange") for c in _components_implementing(corpus, rid))
    return _with_items(corpus, removed=item, relations=relations, components=components), OpRecord(
        op="remove", target=rid, case_code=CASE_REMOVE, migrations=(),
        affected=frozenset({item.jurisdiction}), component_impact=impacted,
    )


def _apply_source_modify(corpus: Corpus, op: ChangeOp) -> tuple[Corpus, OpRecord]:
    _reject_adopted_by(op)
    old = corpus.by_id[op.target]
    impact = tuple((c.id, "mustChange") for r in corpus.requirements if old.id in r.derived_from
                   for c in _components_implementing(corpus, r.id))
    return _with_items(corpus, _apply_payload(old, op.payload)), OpRecord(
        op="modify", target=op.target, case_code=CASE_SOURCE_CHANGE, migrations=(),
        affected=frozenset({old.jurisdiction}), component_impact=impact,
    )


def apply_change_set(corpus: Corpus, cs: ChangeSet) -> tuple[Corpus, ImpactReport]:
    validate_change_set(cs, corpus)
    # no op adds a refines pair, so an acyclic input stays acyclic
    corpus.relations.refinement_order  # raises CycleError; cached, and kept by every op but remove
    # a modify target keeps the role it has in the input: no other op targets it
    current = corpus
    records: list[OpRecord] = []
    for op in cs.ops:
        if op.op == "add":
            current, record = _apply_add(current, op)
        elif op.op == "remove":
            current, record = _apply_remove(current, op)
        elif isinstance(corpus.by_id[op.target], SourceItem):
            current, record = _apply_source_modify(current, op)
        else:
            current, record = classify_change(current, op)
        records.append(record)
    return current, ImpactReport(label=cs.label, per_op=tuple(records), before=corpus, after=current)


def reuse_hints(report: ImpactReport) -> list[ReuseHint]:
    """Component reuse candidates surfaced by 1b promotions.

    The pre-change corpus (``report.before``) supplies component ownership
    for the merged counterparts; a 1b target is a modify target, so it is
    in that corpus.
    """
    corpus = report.before
    items = corpus.by_id
    hints: list[ReuseHint] = []
    for record in report.per_op:
        if record.case_code != CASE_SPEC_TO_GENERAL:
            continue
        promoter = items[record.target].jurisdiction
        for rid in record.counterparts:
            for comp in _components_implementing(corpus, rid):
                hints.append(ReuseHint(
                    component_id=comp.id,
                    owner_jurisdiction=items[rid].jurisdiction,
                    for_jurisdiction=promoter,
                    via_requirement=rid,
                ))
    hints.sort(key=lambda h: (h.component_id, h.via_requirement))
    return hints

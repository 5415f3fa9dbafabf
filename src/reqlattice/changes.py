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
input corpus. The ops edit one working copy of the input's id map and
item groupings in place, and the new corpus is built once, from it, after
the last op. The input is valid, so each op is checked only against the
rules it can break, on the items it touched. The whole change set is
atomic: any failure discards the working copy, leaves the input corpus
untouched (it is immutable) and raises.
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter
from typing import NamedTuple

from reqlattice import model
from reqlattice.corpus_io import ChangeOp, ChangeSet, validate_change_set
from reqlattice.errors import MissingAdoptedByError, ValidationError
from reqlattice.model import Corpus, RelationSet, Requirement, RequirementKind, SourceItem
from reqlattice.partition import ItemView, partition_requirements

CASE_SPEC_STAYS_SPEC = "1a"
CASE_SPEC_TO_GENERAL = "1b"
CASE_GEN_STAYS_GEN = "2a"
CASE_GEN_SPLITS = "2b"
CASE_ADD = "ADD"
CASE_REMOVE = "REMOVE"
CASE_SOURCE_CHANGE = "SOURCE_CHANGE"
_ELABORATED_FROM = {source: kind for kind, source in model.SOURCE_KIND_FOR_REQUIREMENT.items()}


class Migration(NamedTuple):
    item_id: str
    from_set: str  # "general" | "specific:<jid>"
    to_set: str


class ReuseHint(NamedTuple):
    component_id: str
    owner_jurisdiction: str
    for_jurisdiction: str
    via_requirement: str


class OpRecord(NamedTuple):
    op: str
    target: str
    case_code: str
    migrations: tuple[Migration, ...]
    affected: frozenset[str]
    component_impact: tuple[tuple[str, str], ...]  # (component id, mustChange|unchanged|reusable)
    reuse: tuple[ReuseHint, ...] = ()  # a 1b promotion's, one per (component, counterpart)


class ImpactReport(NamedTuple):
    label: str
    per_op: tuple[OpRecord, ...]


def _impact(work: _Draft, changed: set[str], touched: set[str] = frozenset()) -> tuple[tuple[str, str], ...]:
    """Each component implementing a requirement of ``changed`` or ``touched``, once, in id order:
    ``mustChange`` when it implements a changed one, else ``unchanged``."""
    touched = changed | touched
    return tuple((c.id, "unchanged" if c.implements.isdisjoint(changed) else "mustChange")
                 for c in work.components if not c.implements.isdisjoint(touched))


class _Draft:
    """A change set's working copy of the input's id map and (jurisdiction,
    kind) groups, edited in place by each op. Ops keep the jurisdictions,
    so ``base`` (the input) answers for them and their ancestor chains.

    Ops only drop relation pairs and component links, and ``_apply_add``
    checks an added id, so only the per-item rules can newly fail: on the
    written items, the rest of their (jurisdiction, concept, kind) and the
    requirements deriving from a removed source.
    """

    def __init__(self, base: Corpus):
        self.base = base
        self.by_id = dict(base.by_id)
        # a group keeps an item's place when a modify writes its new version
        self.groups = {key: {x.id: x for x in group} for key, group in base.members.items()}
        self.relations = base.relations
        self.components = base.components

    def write(self, *items: SourceItem | Requirement) -> None:
        for item in items:
            self.by_id[item.id] = item
            self.groups.setdefault((item.jurisdiction, item.kind), {})[item.id] = item
        checked = {x.id: x for item in items for x in self.groups[item.jurisdiction, item.kind].values()
                   if x.concept_key == item.concept_key}
        model.check_items(self.base, sorted(checked.values(), key=attrgetter("id")), self.by_id)

    def remove(self, item: SourceItem | Requirement) -> None:
        del self.by_id[item.id], self.groups[item.jurisdiction, item.kind][item.id]
        if isinstance(item, SourceItem):
            model.check_items(self.base, self.deriving_from(item), self.by_id)

    def deriving_from(self, source: SourceItem) -> list[Requirement]:
        """The requirements deriving from ``source``, in id order. Every op leaves the copy valid, so only
        groups of the kind elaborated from its kind, at or below its jurisdiction, can hold them."""
        return sorted((r for jid, chain in self.base.ancestor_chains.items() if source.jurisdiction in (jid, *chain)
                       for r in self.groups.get((jid, _ELABORATED_FROM[source.kind]), {}).values()
                       if source.id in r.derived_from), key=attrgetter("id"))


def _reject_adopted_by(op: ChangeOp) -> None:
    if op.adopted_by is not None:
        raise ValidationError(
            "UNKNOWN_FIELD", f"modify op on {op.target!r} takes adoptedBy only for a general-set requirement")


def _apply_payload(item: SourceItem | Requirement, op: ChangeOp, target: SourceItem | Requirement) -> SourceItem | Requirement:
    """The new version of ``item``: the op's ``target``, or a general target's counterpart, which shares its concept
    key and content hash. The target decides the new hash (no text, or its own, keeps it); keeping both is NO_CHANGE."""
    text = op.payload.text if op.payload.text is not None else item.text
    concept = op.payload.concept_key if op.payload.concept_key is not None else item.concept_key
    digest = item.content_hash if op.payload.text in (None, target.text) else model.content_hash(text)
    new = replace(item, text=text, concept_key=concept, content_hash=digest)
    if (new.concept_key, new.content_hash) == (item.concept_key, item.content_hash):
        raise ValidationError("NO_CHANGE", f"modify op on {op.target!r} keeps its concept key and content")
    return new


def _concept_view(work: _Draft, kind: RequirementKind, concept_key: str) -> ItemView:
    """Each jurisdiction's items of ``kind`` for one concept. Generality is
    decided per concept, so its partition agrees with the whole kind's."""
    return {j.id: [r for r in work.groups.get((j.id, kind), {}).values() if r.concept_key == concept_key]
            for j in work.base.jurisdictions}


def classify_change(work: _Draft, op: ChangeOp) -> OpRecord:
    """Classify and apply one modify op targeting a requirement; writes the
    new versions into ``work``, checked as :class:`_Draft` says, and returns
    the op's record."""
    target = work.by_id[op.target]  # validate_change_set found it in the input; no earlier op removed it
    view = _concept_view(work, target.kind, target.concept_key)
    all_jids = frozenset(view)

    if op.target in partition_requirements(work.base, target.kind, view).general:
        if op.adopted_by is None:
            raise MissingAdoptedByError(op.target)
        group = [items[0] for items in view.values()]  # one per jurisdiction, in jurisdiction order

        if op.adopted_by == all_jids:
            # 2a: the new version stays general, every counterpart is updated
            work.write(*(_apply_payload(r, op, target) for r in group))
            return OpRecord(
                op="modify", target=op.target, case_code=CASE_GEN_STAYS_GEN,
                migrations=(), affected=all_jids, component_impact=_impact(work, {r.id for r in group}),
            )

        # 2b: the concept leaves the general set; adopters switch to the new
        # content, keepers stay on the old version untouched
        adopters = {r.id for r in group if r.jurisdiction in op.adopted_by}
        work.write(*(_apply_payload(r, op, target) for r in group if r.id in adopters))
        return OpRecord(
            op="modify", target=op.target, case_code=CASE_GEN_SPLITS,
            migrations=tuple(Migration(r.id, "general", f"specific:{r.jurisdiction}") for r in group),
            affected=frozenset(op.adopted_by), component_impact=_impact(work, adopters, {r.id for r in group}),
        )

    # target sits in a specific set
    _reject_adopted_by(op)
    new_target = _apply_payload(target, op, target)
    work.write(new_target)
    after = _concept_view(work, target.kind, new_target.concept_key)

    if op.target not in partition_requirements(work.base, target.kind, after).general:
        # 1a: still specific to its jurisdiction; nobody else is touched
        return OpRecord(
            op="modify", target=op.target, case_code=CASE_SPEC_STAYS_SPEC,
            migrations=(), affected=frozenset({target.jurisdiction}), component_impact=_impact(work, {op.target}),
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
    impact = _impact(work, {op.target}, {r.id for r in counterparts})
    return OpRecord(
        op="modify", target=op.target, case_code=CASE_SPEC_TO_GENERAL,
        migrations=tuple(migrations), affected=all_jids,
        component_impact=tuple((cid, "reusable" if status == "unchanged" else status) for cid, status in impact),
        reuse=tuple(ReuseHint(c.id, r.jurisdiction, target.jurisdiction, r.id)
                    for r in counterparts for c in work.components if r.id in c.implements),
    )


def _apply_add(work: _Draft, op: ChangeOp) -> OpRecord:
    item = op.payload  # parsed by corpus_io as the corpus record of its role
    # the change set keeps its id off every item; a jurisdiction or component may hold it
    model.check_unique_ids((*work.base.ancestor_chains, *(c.id for c in work.components), item.id))
    work.write(item)
    return OpRecord(
        op="add", target=op.target, case_code=CASE_ADD, migrations=(),
        affected=frozenset({item.jurisdiction}), component_impact=(),
    )


def _apply_remove(work: _Draft, op: ChangeOp) -> OpRecord:
    """Drop the item plus the relation pairs and component links naming it.

    A requirement still deriving from a removed source is left dangling on
    purpose; the check rejects it so authors must update the elaboration.
    """
    rid = op.target
    item = work.by_id[rid]  # validate_change_set found it in the input; no other op targets it
    impacted = _impact(work, {rid})
    work.relations = RelationSet(
        refines=frozenset(p for p in work.relations.refines if rid not in p),
        contradicts=frozenset(p for p in work.relations.contradicts if rid not in p),
    )
    work.components = tuple(  # untouched components stay the same objects
        replace(c, implements=c.implements - {rid}) if rid in c.implements else c for c in work.components
    )
    work.remove(item)
    return OpRecord(
        op="remove", target=rid, case_code=CASE_REMOVE, migrations=(),
        affected=frozenset({item.jurisdiction}), component_impact=impacted,
    )


def _apply_source_modify(work: _Draft, op: ChangeOp) -> OpRecord:
    _reject_adopted_by(op)
    old = work.by_id[op.target]
    impact = _impact(work, {r.id for r in work.deriving_from(old)})
    work.write(_apply_payload(old, op, old))
    return OpRecord(
        op="modify", target=op.target, case_code=CASE_SOURCE_CHANGE, migrations=(),
        affected=frozenset({old.jurisdiction}), component_impact=impact,
    )


def apply_change_set(corpus: Corpus, cs: ChangeSet) -> tuple[Corpus, ImpactReport]:
    validate_change_set(cs, corpus)
    # no op adds a refines pair, so an acyclic input stays acyclic
    corpus.relations.refinement_order  # raises CycleError; cached, and kept by every op but remove
    work = _Draft(corpus)
    records: list[OpRecord] = []
    for op in cs.ops:
        if op.op in ("add", "remove"):
            apply = _apply_add if op.op == "add" else _apply_remove
        else:  # a modify target keeps the role it has in the input: no other op targets it
            apply = _apply_source_modify if isinstance(corpus.by_id[op.target], SourceItem) else classify_change
        records.append(apply(work, op))
    items = work.by_id.values()
    after = Corpus(corpus.jurisdictions, tuple(x for x in items if x.role == "source"),
                   tuple(x for x in items if x.role == "requirement"), work.relations, work.components)
    return after, ImpactReport(label=cs.label, per_op=tuple(records))


def reuse_hints(report: ImpactReport) -> list[ReuseHint]:
    """Every 1b promotion's component reuse candidates, by component and counterpart."""
    return sorted((h for record in report.per_op for h in record.reuse),
                  key=attrgetter("component_id", "via_requirement"))

"""Random change sets checked against the per-concept partition oracle and
against the from-scratch change path.

Each example draws a random corpus with components and derivations, flat
or, half the time, a national/state/org forest whose requirements derive
from their ancestors' sources too, and a sequence of ops on distinct
targets: requirement modifies (new text and/or concept key, with
``adoptedBy`` drawn mostly for general targets), adds
(some deriving from sources), removes (some of a source that requirements
derive from) and source modifies. Some ops must fail: a modify or remove of
an unknown id, an add over an existing item, jurisdiction or component id, an
add deriving from an unknown source, from one of the wrong kind or
jurisdiction or at all for a functional requirement, a repeated target, an
unknown adopting jurisdiction.

A failing set raises ``ReqLatticeError`` and exits 1 through the CLI with
one stderr line. A successful set yields a valid corpus that reloads as the
same value, and its fingerprint is the digest of the saved bytes. The case
of each requirement modify is recomputed by ``oracles.per_concept_partition``
on the corpora before and after the op, each built from the ops before it.
``oracles.scratch_apply_change_set`` gives the same outcome, record for
record, or the same error. On change sets drawn to apply, the whole JSON
body of ``change`` equals ``oracles.scratch_impact_body``. A last draw
builds promotions (1b) whose counterparts have components, so that every
example reports reuse hints and checks them against the oracle.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    corpus_to_doc,
    dumps_layout,
    lineage,
    per_concept_partition,
    random_corpus,
    random_forest,
    scratch_apply_change_set,
    scratch_impact_body,
    scratch_members,
)
from reqlattice import cli, corpus_io, model
from reqlattice.changes import apply_change_set
from reqlattice.corpus_io import ChangeSet
from reqlattice.errors import ReqLatticeError
from reqlattice.model import SOURCE_KIND_FOR_REQUIREMENT, Component, Corpus, Requirement, RequirementKind, SourceKind


def _general(corpus, kind):
    """The general requirement ids of ``kind`` in the flat corpus."""
    view = {j.id: [r for r in corpus.requirements if r.jurisdiction == j.id and r.kind is kind]
            for j in corpus.jurisdictions}
    return per_concept_partition(view)[0]


def _rarely(data):
    # a middle value: hypothesis draws the bounds of a range more often
    return data.draw(st.integers(0, 11)) == 6


def _text(data, items, concept, target):
    """A text for ``concept``: half the time one that another item of the
    concept has, so an edit can meet its counterparts' content."""
    fresh = st.sampled_from([f"{concept} variant {k}" for k in range(4)])
    held = sorted({i.text for i in items.values() if i.concept_key == concept and i.id != target})
    return data.draw(st.one_of(st.sampled_from(held), fresh) if held else fresh)


def _draw_op(data, corpus, i, used, general_ids):
    """The ``i``-th op, on a target not in ``used``, and whether it must fail
    whatever precedes it; None when no target is left."""
    items = corpus.by_id
    jids = [j.id for j in corpus.jurisdictions]
    concepts = sorted({item.concept_key for item in items.values()} | {"c-new"})
    op = data.draw(st.sampled_from(["modify", "modify", "modify", "remove", "add"]))
    free = sorted(items.keys() - used)
    free_requirements = sorted(corpus.requirement_map().keys() - used)
    derived_sources = sorted({sid for r in corpus.requirements for sid in r.derived_from} - used)
    clashes = [*jids, *(c.id for c in corpus.components)]
    if op == "add" and _rarely(data):
        target = data.draw(st.sampled_from(clashes))
    elif (op == "add") != _rarely(data):
        target = f"new-{i}"
    elif op == "remove" and derived_sources and data.draw(st.booleans()):
        target = data.draw(st.sampled_from(derived_sources))
    elif free_requirements and data.draw(st.booleans()):
        target = data.draw(st.sampled_from(free_requirements))
    elif free:
        target = data.draw(st.sampled_from(free))
    else:
        return None
    doomed = (op == "add") == (target in items) or target in clashes
    if op == "remove":
        return {"op": "remove", "target": target}, doomed
    if op == "add":
        role = data.draw(st.sampled_from(["requirement", "source"]))
        kinds = RequirementKind if role == "requirement" else SourceKind
        kind = data.draw(st.sampled_from(list(kinds)))
        concept = data.draw(st.sampled_from(concepts))
        jurisdiction = "atlantis" if _rarely(data) else data.draw(st.sampled_from(jids))
        payload = {"role": role, "kind": kind.value, "jurisdiction": jurisdiction, "conceptKey": concept,
                   "text": _text(data, items, concept, target)}
        if role == "requirement" and data.draw(st.booleans()):
            payload["derivedFrom"], fails = _derived_from(data, corpus, kind, jurisdiction)
            doomed |= fails
        return {"op": "add", "target": target, "payload": payload}, doomed or jurisdiction == "atlantis"

    payload = {}
    if _rarely(data) or _rarely(data):
        payload["conceptKey"] = data.draw(st.sampled_from(concepts))
    if not payload or data.draw(st.booleans()):
        concept = payload.get("conceptKey", items[target].concept_key if target in items else "c-new")
        payload["text"] = _text(data, items, concept, target)
    out = {"op": "modify", "target": target, "payload": payload}
    # adoptedBy belongs to a general target; now and then draw it the other way
    if (target in general_ids) != _rarely(data):
        adopted = set(jids) if data.draw(st.booleans()) else data.draw(
            st.sets(st.sampled_from(jids), min_size=1, max_size=max(1, len(jids) - 1)))
        if _rarely(data):
            adopted.add("atlantis")
            doomed = True
        out["adoptedBy"] = sorted(adopted)
    return out, doomed


def _derived_from(data, corpus, kind, jurisdiction):
    """Up to two source ids for an added requirement, mostly ones its kind
    and jurisdiction allow; and whether they must fail: an unknown id, a
    source of the wrong kind or of another jurisdiction, or any source for a
    functional requirement. The jurisdiction's ancestors' sources are
    allowed too. An allowed source may still be gone, removed by an earlier
    op."""
    allowed = SOURCE_KIND_FOR_REQUIREMENT.get(kind)
    chain = lineage(corpus, jurisdiction)
    fitting = [s.id for s in corpus.sources if s.jurisdiction in chain and s.kind is allowed]
    wrong_kind = [s.id for s in corpus.sources if s.kind is not allowed]
    elsewhere = [s.id for s in corpus.sources if s.jurisdiction not in chain and s.kind is allowed]
    pools = [st.sampled_from(ids) for ids in (fitting, fitting, wrong_kind, elsewhere, ["unknown-source"]) if ids]
    ids = data.draw(st.lists(st.one_of(pools), max_size=2, unique=True))
    return ids, bool(ids) and (kind is RequirementKind.FUNCTIONAL or not set(ids) <= set(fitting))


def _draw_change_set(data) -> tuple[Corpus, dict, bool]:
    """A random corpus, a change-set document for it, and whether the set
    must fail. The corpus is flat, or half the time a national/state/org
    forest whose requirements derive from their ancestors' sources too."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        corpus = random_forest(rng)
    else:
        # one variant per concept makes general requirements, and so 2a/2b, common
        corpus = random_corpus(rng, max_jurisdictions=3, max_concepts=8, hash_alphabet=data.draw(st.integers(1, 3)),
                               with_relations=True, with_components=True, with_derivations=True)
    general_ids = set().union(*(_general(corpus, kind) for kind in RequirementKind))
    ops, doomed, used = [], False, set()
    for i in range(data.draw(st.integers(1, 6))):
        drawn = _draw_op(data, corpus, i, used, general_ids)
        if drawn is None:
            break
        ops.append(drawn[0])
        doomed |= drawn[1]
        used.add(drawn[0]["target"])
    if ops and _rarely(data):  # a second op on a target
        ops.append(dict(data.draw(st.sampled_from(ops))))
        doomed = True
    return corpus, {"formatVersion": 1, "label": "oracle", "ops": ops}, doomed


def _run_cli(corpus, doc):
    """Run ``change`` on the saved corpus and change set; returns the exit
    code, stdout, stderr and the bytes written to ``--out``, if any."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path, changes_path, out_path = (Path(tmp) / name for name in ("c.json", "cs.json", "after.json"))
        corpus_io.save_corpus(corpus, corpus_path)
        changes_path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["change", "--corpus", str(corpus_path), "--changes", str(changes_path),
                            "--out", str(out_path), "--format", "json"])
        written = out_path.read_bytes() if out_path.exists() else None
    return code, out.getvalue(), err.getvalue(), written


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_change_sets_match_the_partition_oracle(data):
    corpus, doc, doomed = _draw_change_set(data)
    ops = doc["ops"]
    try:
        cs = corpus_io.parse_change_set(doc)
        after, report = apply_change_set(corpus, cs)
    except ReqLatticeError as exc:
        code, out, err, written = _run_cli(corpus, doc)
        assert (code, out, err, written) == (1, "", f"reqlattice: {exc}\n", None)
        return
    assert not doomed, ops

    model.validate_corpus(after)
    fingerprint = model.corpus_fingerprint(after)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "after.json"
        assert corpus_io.save_corpus(after, path) == fingerprint
        saved = path.read_bytes()
        assert corpus_io.load_corpus(path) == after
    assert fingerprint == hashlib.sha256(saved).hexdigest()
    code, out, err, written = _run_cli(corpus, doc)
    assert (code, err, written) == (0, "", saved)
    assert json.loads(out)["body"]["after"] == fingerprint

    prefixes = [apply_change_set(corpus, ChangeSet("prefix", cs.ops[:k]))[0] for k in range(len(cs.ops) + 1)]
    for k, (op, record) in enumerate(zip(cs.ops, report.per_op, strict=True)):
        assert (record.op, record.target) == (op.op, op.target)
        before, after_op = prefixes[k], prefixes[k + 1]
        target = before.requirement_map().get(op.target)
        if op.op != "modify" or target is None:
            continue
        general_after = _general(after_op, target.kind)
        if op.target in _general(before, target.kind):
            expected = "2a" if op.adopted_by == {j.id for j in before.jurisdictions} else "2b"
        else:
            expected = "1b" if op.target in general_after else "1a"
        assert record.case_code == expected
        if expected == "2b":
            assert op.target not in general_after
        if expected == "1b":
            rmap = after_op.requirement_map()
            group = {rid for rid in general_after if rmap[rid].concept_key == rmap[op.target].concept_key}
            assert sorted(m.item_id for m in record.migrations) == sorted(group)


def _outcome(apply, corpus, cs):
    try:
        return apply(corpus, cs)
    except ReqLatticeError as exc:
        return exc


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_incremental_path_matches_the_from_scratch_path(data):
    corpus, doc, _ = _draw_change_set(data)
    try:
        cs = corpus_io.parse_change_set(doc)
    except ReqLatticeError:
        return  # both paths take the parsed set
    # the reference gets an equal corpus with nothing cached on it
    want = _outcome(scratch_apply_change_set, Corpus(corpus.jurisdictions, corpus.sources, corpus.requirements,
                                                      corpus.relations, corpus.components), cs)
    got = _outcome(apply_change_set, corpus, cs)
    # the change path edits copies: whether it returns or raises, the input's facts stay as built
    fresh = Corpus(corpus.jurisdictions, corpus.sources, corpus.requirements, corpus.relations, corpus.components)
    assert corpus.by_id == fresh.by_id and corpus.members == scratch_members(corpus)
    if isinstance(want, ReqLatticeError) or isinstance(got, ReqLatticeError):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    (after, report), (want_after, want_report) = got, want
    assert after == want_after and report == want_report
    assert report.per_op == want_report.per_op
    assert (after.members, after.by_id, after.ancestor_chains) == (
        want_after.members, want_after.by_id, want_after.ancestor_chains)
    assert corpus_io.canonical_bytes(after) == corpus_io.canonical_bytes(want_after)


def _draw_applicable_change_set(data) -> tuple[Corpus, dict]:
    """A random corpus with components, and a change set that applies: each
    op takes its own (role, kind, concept), so no op changes another's case.
    A specific target takes another item's text where the concept has one,
    which promotes it (1b) when every other jurisdiction holds that text;
    with one jurisdiction no concept is specific, so there are at least two."""
    corpus = random_corpus(random.Random(data.draw(st.integers(0, 2**32 - 1))), max_jurisdictions=3,
                           max_concepts=8, hash_alphabet=2, with_relations=True, with_components=True,
                           with_derivations=True, min_jurisdictions=2)
    general = set().union(*(_general(corpus, kind) for kind in RequirementKind))
    jids = [j.id for j in corpus.jurisdictions]
    groups: dict = {}
    for item in (*corpus.sources, *corpus.requirements):
        groups.setdefault((item.role, item.kind.value, item.concept_key), []).append(item)
    ops = []
    for i in range(data.draw(st.integers(1, 5))):
        op = data.draw(st.sampled_from(["modify", "modify", "modify", "modify", "remove", "source", "add"]))
        free = sorted(key for key in groups if key[0] == "source") if op == "source" else []
        free = free or sorted(key for key in groups if key[0] == "requirement")
        if op == "add" or not free:
            ops.append({"op": "add", "target": f"new-{i}", "payload": {
                "role": "requirement", "kind": "functional", "jurisdiction": data.draw(st.sampled_from(jids)),
                "conceptKey": f"c-new-{i}", "text": f"new {i}"}})
            continue
        group = groups.pop(data.draw(st.sampled_from(free)))
        target = data.draw(st.sampled_from(group))
        if op == "remove":
            ops.append({"op": "remove", "target": target.id})
            continue
        held = sorted({r.text for r in group if r.content_hash != target.content_hash})
        text = data.draw(st.sampled_from(held)) if held and target.id not in general else f"{target.concept_key} new"
        ops.append({"op": "modify", "target": target.id, "payload": {"text": text}})
        if target.id in general:
            ops[-1]["adoptedBy"] = sorted(data.draw(st.sets(st.sampled_from(jids), min_size=1)))
    return corpus, {"formatVersion": 1, "label": "oracle", "ops": ops}


def _draw_promotion(data) -> tuple[Corpus, dict]:
    """A random corpus with two or more jurisdictions, and a modify that
    promotes its target (1b) with reuse hints. One requirement concept,
    drawn from the corpus or new, is rewritten so that its versions differ
    only in the target's jurisdiction: every jurisdiction holds it, and all
    but the target's with one text. New components implement one or more of
    those counterparts, and the modify gives the target their text."""
    corpus = random_corpus(random.Random(data.draw(st.integers(0, 2**32 - 1))), max_jurisdictions=3,
                           max_concepts=8, hash_alphabet=2, with_relations=True, with_components=True,
                           with_derivations=True, min_jurisdictions=2)
    jids = [j.id for j in corpus.jurisdictions]
    concepts = sorted({(r.kind, r.concept_key) for r in corpus.requirements})
    if concepts and data.draw(st.booleans()):
        kind, concept = data.draw(st.sampled_from(concepts))
    else:
        kind, concept = data.draw(st.sampled_from(list(RequirementKind))), "c-promoted"
    held = {r.jurisdiction: r for r in corpus.requirements if (r.kind, r.concept_key) == (kind, concept)}
    target_jid = data.draw(st.sampled_from(jids))
    shared = f"{concept} shared"
    versions = {}
    for jid in jids:
        text = f"{concept} own" if jid == target_jid else shared
        version = held.get(jid) or Requirement(id=f"req-{jid}-{concept}", kind=kind, jurisdiction=jid,
                                               concept_key=concept, text="", content_hash="")
        versions[jid] = version._replace(text=text, content_hash=model.content_hash(text))
    counterparts = sorted(r.id for jid, r in versions.items() if jid != target_jid)
    requirements = {**{r.id: r for r in corpus.requirements}, **{r.id: r for r in versions.values()}}
    components = []
    for i in range(data.draw(st.integers(1, 3))):
        implements = (data.draw(st.sets(st.sampled_from(counterparts), min_size=1))
                      | data.draw(st.sets(st.sampled_from(sorted(requirements)), max_size=2)))
        components.append(Component(id=f"comp-reuse-{i}", implements=frozenset(implements),
                                    jurisdiction=data.draw(st.none() | st.sampled_from(jids))))
    corpus = Corpus(corpus.jurisdictions, corpus.sources, tuple(requirements.values()), corpus.relations,
                    (*corpus.components, *components))
    model.validate_corpus(corpus)
    op = {"op": "modify", "target": versions[target_jid].id, "payload": {"text": shared}}
    return corpus, {"formatVersion": 1, "label": "promotion", "ops": [op]}


def _change_body(corpus, doc) -> dict:
    """The JSON body of ``change``, the same with and without ``--out``,
    after checking that it equals ``oracles.scratch_impact_body``. The input
    file is the reference layout of the corpus, and ``after`` is the digest
    of the file ``--out`` writes."""
    want = scratch_impact_body(corpus, corpus_io.parse_change_set(doc))
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path, changes_path, out_path = (Path(tmp) / name for name in ("c.json", "cs.json", "after.json"))
        corpus_path.write_text(dumps_layout(corpus_to_doc(corpus)), encoding="utf-8")
        changes_path.write_text(json.dumps(doc), encoding="utf-8")
        for out_args in ([], ["--out", str(out_path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(["change", "--corpus", str(corpus_path), "--changes", str(changes_path),
                                "--format", "json", *out_args])
            assert (code, err.getvalue()) == (0, "")
            assert json.loads(out.getvalue())["body"] == want
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == want["after"]
    return want


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_change_command_body_matches_the_oracle_body(data):
    """The whole JSON body of ``change`` equals ``oracles.scratch_impact_body``."""
    _change_body(*_draw_applicable_change_set(data))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_promotion_lists_the_counterparts_components_as_reuse_hints(data):
    """A 1b modify whose counterparts have components reports reuse hints,
    and the whole body equals the oracle's."""
    body = _change_body(*_draw_promotion(data))
    assert [op["case"] for op in body["ops"]] == ["1b"]
    assert body["reuseHints"]

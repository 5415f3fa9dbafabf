"""Acceptance gate: one test per criterion, one PASS line each (run with -s
or check the captured output). Every tolerance is pinned here."""

import json
import random
import time

import numpy as np
import pytest

from oracles import (
    brute_force_maximal,
    brute_force_minimal,
    fixpoint_contradictions,
    per_concept_partition,
    random_corpus,
    random_dag,
)
from reqlattice import cli, corpus_io, model, partition
from reqlattice.changes import apply_change_set
from reqlattice.corpus_io import ChangeOp, ChangePayload, ChangeSet
from reqlattice.errors import ValidationError
from reqlattice.model import (
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
    SourceItem,
    SourceKind,
)
from reqlattice.optimize import optimize
from reqlattice.partition import (
    ScenarioOption,
    classify_scenario,
    partition_requirements,
    partition_sources,
)
from reqlattice.relations import derive_contradictions, refinement_closure
from reqlattice.topsis import make_matrix, rank_alternatives


def _report(name):
    print(f"PASS: {name}")


def test_criterion_1_partition_soundness():
    rng = random.Random(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        corpus = random_corpus(rng, max_jurisdictions=5, max_concepts=30)
        for skind in SourceKind:
            part = partition_sources(corpus, skind)
            view = partition.flat_view(corpus, skind)
            general, specific = per_concept_partition(view)
            if set(part.general) != general or {j: set(v) for j, v in part.specific.items()} != specific:
                mismatches += 1
            _assert_disjoint_cover(part, {s.id for s in corpus.sources if s.kind is skind})
        for rkind in RequirementKind:
            part = partition_requirements(corpus, rkind)
            view = partition.flat_view(corpus, rkind)
            general, specific = per_concept_partition(view)
            if set(part.general) != general or {j: set(v) for j, v in part.specific.items()} != specific:
                mismatches += 1
            _assert_disjoint_cover(part, {r.id for r in corpus.requirements if r.kind is rkind})
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(f"criterion 1 partition soundness (200 corpora, 0 mismatches, {elapsed:.2f}s)")


def _assert_disjoint_cover(part, expected):
    union = set()
    for bucket in (part.general, *part.specific.values()):
        assert not union & bucket
        union |= bucket
    assert union == expected


def test_criterion_2_redundant_weaker_version_removed():
    r1 = Requirement(id="r1", kind=RequirementKind.CULTURAL_BASED, jurisdiction="s1",
                     concept_key="c-strong", text="strong version",
                     content_hash=model.content_hash("strong version"))
    r2 = Requirement(id="r2", kind=RequirementKind.CULTURAL_BASED, jurisdiction="s1",
                     concept_key="c-weak", text="weak version",
                     content_hash=model.content_hash("weak version"))
    corpus = Corpus(
        jurisdictions=(Jurisdiction("s1", "S1", Level.NATIONAL),),
        sources=(), requirements=(r1, r2),
        relations=RelationSet(refines=frozenset({("r1", "r2")})),
    )
    model.validate_corpus(corpus)
    view = optimize({"r1", "r2"}, corpus, "")
    assert view.strongest == {"r1"}
    assert view.removed == {"r2": "r1"}
    _report("criterion 2 worked refinement example (r2 removed, witness r1)")


def test_criterion_3_antichain_and_idempotence():
    rng = random.Random(103)
    violations = 0
    for _ in range(200):
        ids, edges = random_dag(rng, rng.randint(1, 15), edge_prob=0.25)
        corpus = _poset_corpus(ids, edges)
        closure = set(refinement_closure(corpus.relations, ids))
        view = optimize(ids, corpus, "")
        strongest, baseline = view.strongest, view.baseline
        if set(strongest) != brute_force_maximal(ids, closure):
            violations += 1
        if set(baseline) != brute_force_minimal(ids, closure):
            violations += 1
        # antichain: no closure pair inside the output
        if any((a, b) in closure for a in strongest for b in strongest):
            violations += 1
        if any((a, b) in closure for a in baseline for b in baseline):
            violations += 1
        # fixed points
        again = optimize(strongest, corpus, "")
        if (again.strongest, again.removed) != (strongest, {}):
            violations += 1
        if optimize(baseline, corpus, "").baseline != baseline:
            violations += 1
    assert violations == 0
    _report("criterion 3 antichain/idempotence (200 posets, 0 violations)")


def _poset_corpus(ids, edges):
    reqs = tuple(
        Requirement(id=i, kind=RequirementKind.FUNCTIONAL, jurisdiction="j0",
                    concept_key=f"k-{i}", text=i, content_hash=model.content_hash(i))
        for i in sorted(ids)
    )
    corpus = Corpus(
        jurisdictions=(Jurisdiction("j0", "J0", Level.NATIONAL),),
        sources=(), requirements=reqs,
        relations=RelationSet(refines=frozenset(edges)),
    )
    model.validate_corpus(corpus)
    return corpus


def test_criterion_4_change_case_exhaustiveness():
    rng = random.Random(104)
    checked = 0
    while checked < 500:
        corpus = random_corpus(rng, max_jurisdictions=4, max_concepts=8, hash_alphabet=2)
        if not corpus.requirements:
            continue
        target = rng.choice(corpus.requirements)
        part = partition_requirements(corpus, target.kind)
        new_text = f"{target.concept_key} variant {rng.randrange(2)}"
        adopted = None
        if target.id in part.general:
            jids = sorted(j.id for j in corpus.jurisdictions)
            adopted = frozenset(rng.sample(jids, rng.randint(1, len(jids))))
        op = ChangeOp(op="modify", target=target.id,
                      payload=ChangePayload(text=new_text), adopted_by=adopted)
        if model.content_hash(new_text) == target.content_hash:
            # a modify to the same concept key and content changes nothing, in every case
            with pytest.raises(ValidationError) as rejected:
                apply_change_set(corpus, ChangeSet(label="x", ops=(op,)))
            assert rejected.value.code == "NO_CHANGE"
            checked += 1
            continue
        new_corpus, report = apply_change_set(corpus, ChangeSet(label="x", ops=(op,)))
        rec = report.per_op[0]
        assert rec.case_code in {"1a", "1b", "2a", "2b"}, rec.case_code
        if rec.case_code == "1b":
            after = partition_requirements(new_corpus, target.kind)
            assert target.concept_key in after.general_concepts
        if rec.case_code == "2b":
            keep = frozenset(j.id for j in corpus.jurisdictions) - adopted
            assert rec.affected == adopted
            assert adopted and keep
            assert not adopted & keep
            assert adopted | keep == frozenset(j.id for j in corpus.jurisdictions)
        checked += 1
    _report("criterion 4 change-case exhaustiveness (500 ops, 0 violations)")


def test_criterion_5_scenario_fixtures():
    def jur(i):
        return Jurisdiction(i, i, Level.NATIONAL)

    def src(i, j, key, text):
        return SourceItem(id=i, kind=SourceKind.LEGAL, jurisdiction=j, concept_key=key,
                          text=text, content_hash=model.content_hash(text), is_static=False)

    all_specific = Corpus(jurisdictions=(jur("a"), jur("b")), requirements=(),
                          sources=(src("s1", "a", "k1", "t1"), src("s2", "b", "k2", "t2")))
    all_general = Corpus(jurisdictions=(jur("a"), jur("b")), requirements=(),
                         sources=(src("s1", "a", "k", "t"), src("s2", "b", "k", "t")))
    mixed = Corpus(jurisdictions=(jur("a"), jur("b")), requirements=(),
                   sources=(src("s1", "a", "k", "t"), src("s2", "b", "k", "t"),
                            src("s3", "a", "k2", "t2")))
    expect = [
        (all_specific, ScenarioOption.DISJOINT),
        (all_general, ScenarioOption.IDENTICAL_GENERAL),
        (mixed, ScenarioOption.PARTIAL_OVERLAP),
    ]
    for corpus, option in expect:
        model.validate_corpus(corpus)
        got = classify_scenario(partition_sources(corpus, SourceKind.LEGAL))
        assert got is option
    _report("criterion 5 scenario classifier (3 fixtures exact)")


def test_criterion_6_topsis_oracle():
    from test_topsis import FIXTURE_CLOSENESS, FIXTURE_CRITERIA, FIXTURE_VALUES

    m = make_matrix(["a1", "a2", "a3"], FIXTURE_CRITERIA, FIXTURE_VALUES)
    scores = dict(rank_alternatives(m).entries)
    for aid, expected in FIXTURE_CLOSENESS.items():
        assert scores[aid] == pytest.approx(expected, abs=1e-9)

    # the alternative coinciding with the ideal point scores exactly 1.0
    dominant = make_matrix(
        ["best", "mid", "worst"],
        [("b", 0.6, "benefit"), ("c", 0.4, "cost")],
        [[9.0, 1.0], [5.0, 5.0], [1.0, 9.0]],
    )
    assert dict(rank_alternatives(dominant).entries)["best"] == 1.0

    rng = random.Random(106)
    for _ in range(100):
        n, m_ = rng.randint(2, 6), rng.randint(2, 5)
        values = np.array([[rng.uniform(1, 10) for _ in range(m_)] for _ in range(n)])
        crits = [(f"c{j}", rng.uniform(0.1, 1.0), rng.choice(["benefit", "cost"]))
                 for j in range(m_)]
        alt_ids = [f"a{i}" for i in range(n)]
        base = rank_alternatives(make_matrix(alt_ids, crits, values))
        scaled = values.copy()
        scaled[:, rng.randrange(m_)] *= rng.uniform(0.01, 100.0)
        other = rank_alternatives(make_matrix(alt_ids, crits, scaled))
        for (aid1, c1), (aid2, c2) in zip(base.entries, other.entries):
            assert aid1 == aid2
            assert c1 == pytest.approx(c2, abs=1e-12)
    _report("criterion 6 TOPSIS oracle (1e-9 fixture, exact ideal, 1e-12 scaling x100)")


def test_criterion_7_round_trip_and_determinism(tmp_path, worked_example_path,
                                                change_set_path, alts_path, capsys):
    rng = random.Random(107)
    for i in range(100):
        corpus = random_corpus(rng, with_relations=True)
        path = tmp_path / f"c{i}.json"
        corpus_io.save_corpus(corpus, path)
        assert corpus_io.load_corpus(path) == corpus

    corpus_arg = ["--corpus", str(worked_example_path), "--format", "json"]
    invocations = [
        ["validate", *corpus_arg],
        ["partition", *corpus_arg],
        ["scenario", *corpus_arg],
        ["optimize", *corpus_arg],
        ["conflicts", *corpus_arg],
        ["hierarchy", *corpus_arg],
        ["change", *corpus_arg, "--changes", str(change_set_path)],
        ["rank", *corpus_arg, "--alts", str(alts_path)],
    ]
    for argv in invocations:
        cli.run(list(argv))
        out1 = capsys.readouterr().out
        cli.run(list(argv))
        out2 = capsys.readouterr().out
        assert out1 == out2, f"non-deterministic output for {argv[0]}"
        json.loads(out1)
    _report("criterion 7 round-trip (100 corpora) and CLI determinism (8 subcommands)")


def test_criterion_8_derived_contradiction_fixpoint():
    rng = random.Random(108)
    mismatches = 0
    for _ in range(100):
        ids, refines = random_dag(rng, rng.randint(2, 20), edge_prob=0.15)
        nodes = sorted(ids)
        contradicts = set()
        for _ in range(rng.randint(0, 8)):
            a, b = rng.sample(nodes, 2)
            contradicts.add((a, b))
        got = derive_contradictions(RelationSet(refines=frozenset(refines),
                                                contradicts=frozenset(contradicts)))
        if got != fixpoint_contradictions(refines, contradicts):
            mismatches += 1
    assert mismatches == 0
    _report("criterion 8 contradiction fixpoint (100 relation sets, 0 mismatches)")

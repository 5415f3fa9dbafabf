"""The benchmark workloads: their inputs, their CLI commands and the checks
that each command's output is correct.

Every check recomputes the expected report from the generated documents with
small brute-force code of its own (per-concept partition, per-node
reachability, pairwise contradiction inheritance, textbook TOPSIS), so a
wrong answer fails on any seed, not only on the seed whose digests are stored
in ``expected.json``.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpora

# Corpus shapes follow the 20k-requirement analysis corpus and the 84-node
# tree named in the roadmap, scaled down so that one pass of a workload's
# commands takes a few seconds on two cores and a run holds several passes.
# Ratios between the sections are kept.
SIZES = {
    "analyze-flat": dict(jurisdictions=20, req_concepts=200, src_concepts=200,
                         refines=200, contradicts=100, components=40, near_general=2),
    "hierarchy-deep": dict(nationals=4, states=4, orgs=4, common=40, local=4,
                           chains=4, depth=240, contradicts=30, stem=24),
    "change-stream": dict(jurisdictions=10, req_concepts=100, src_concepts=100,
                          refines=50, contradicts=25, components=10, near_general=3),
}
# ops per change case in the change-stream change set: every case, the
# commonest (a jurisdiction-specific modify) most often
CHANGE_MIX = {"1a": 6, "1b": 3, "2a": 3, "2b": 3, "ADD": 4, "REMOVE": 4, "SOURCE_CHANGE": 3}
PROBE_DEPTH = 3000  # the depth the roadmap's deep-chain defect is stated at; never lower it
PROBE_COUNTS = {"jurisdictions": 1, "sources": 0, "requirements": PROBE_DEPTH,
                "refines": PROBE_DEPTH - 1, "contradicts": 0, "components": 0}


def expected_counts(name: str) -> dict[str, int]:
    s = SIZES[name]
    if name == "hierarchy-deep":
        nodes = s["nationals"] * (1 + s["states"] * (1 + s["orgs"]))
        return {"jurisdictions": nodes,
                "sources": s["common"] * s["nationals"] + 2 * nodes,
                "requirements": s["common"] * s["nationals"] + s["local"] * nodes
                + s["chains"] * s["depth"],
                "refines": s["chains"] * (s["depth"] - 1),
                "contradicts": s["contradicts"], "components": s["nationals"]}
    j = s["jurisdictions"]
    return {"jurisdictions": j, "sources": s["src_concepts"] * j,
            "requirements": s["req_concepts"] * j, "refines": s["refines"],
            "contradicts": s["contradicts"], "components": s["components"]}


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[dict], str | None]  # envelope -> problem, or None when correct
    units: int = 1  # change ops carried by the command
    out_file: Path | None = None  # corpus written by the command, digested too


@dataclass
class Workload:
    ops: list[Op]
    probe: Op | None = None
    files: dict[str, str] = field(default_factory=dict)  # file name -> text
    counts: dict[str, tuple[dict, dict]] = field(default_factory=dict)  # corpus -> (held, stated)


# ---------------------------------------------------------------------------
# brute-force expectations

def _reach(ids, refines) -> dict[str, set[str]]:
    """Weaker ids reachable from each id, through ``ids`` only."""
    adj = defaultdict(list)
    for a, b in refines:
        if a in ids and b in ids:
            adj[a].append(b)
    out = {}
    for start in ids:
        seen, todo = set(), list(adj[start])
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(adj[node])
        out[start] = seen
    return out


def _view_body(ids, refines, scope):
    reach = _reach(ids, refines)
    witnesses = defaultdict(list)
    for strong, weaker in reach.items():
        for weak in weaker:
            witnesses[weak].append(strong)
    removed = {weak: min(strongs) for weak, strongs in witnesses.items()}
    return {"scope": scope,
            "strongest": sorted(i for i in ids if i not in removed),
            "removed": dict(sorted(removed.items())),
            "baseline": sorted(i for i in ids if not reach[i])}


def _conflicts_body(doc):
    rel = doc["relations"]
    explicit = {frozenset(p) for p in rel["contradicts"]}
    pairs = sorted(sorted(p) for p in corpora.derived_conflicts(rel["refines"], rel["contradicts"]))
    return [{"pair": p, "origin": "explicit" if frozenset(p) in explicit else "derived"}
            for p in pairs]


def _optimize_body(doc):
    refines = doc["relations"]["refines"]
    reqs = doc["requirements"]
    per_jur = {}
    for j in doc["jurisdictions"]:
        per_jur[j["id"]] = {
            kind: _view_body({r["id"] for r in reqs if r["jurisdiction"] == j["id"] and r["kind"] == kind},
                             refines, f"{kind}@{j['id']}")
            for kind in corpora.REQ_KINDS}
    return {"perJurisdiction": per_jur,
            "globalPerKind": {kind: _view_body({r["id"] for r in reqs if r["kind"] == kind},
                                               refines, f"{kind}@global")
                              for kind in corpora.REQ_KINDS},
            "global": _view_body({r["id"] for r in reqs}, refines, "all@global"),
            "conflicts": _conflicts_body(doc)}


def _partition_body(role, view):
    """Literal per-concept rule: general when every node holds the concept
    and all its copies share one content hash."""
    holders, hashes = defaultdict(set), defaultdict(set)
    for jid, items in view.items():
        for item in items:
            holders[item["conceptKey"]].add(jid)
            hashes[item["conceptKey"]].add(item["contentHash"])
    general, specific = defaultdict(set), {jid: set() for jid in view}
    for jid, items in view.items():
        for item in items:
            key = item["conceptKey"]
            if holders[key] == set(view) and len(hashes[key]) == 1:
                general[key].add(item["id"])
            else:
                specific[jid].add(item["id"])
    return {"role": role, "general": {k: sorted(v) for k, v in general.items()},
            "specific": {k: sorted(v) for k, v in specific.items()}}


def _scenario_option(part):
    if not part["general"]:
        return "Disjoint"
    if not any(part["specific"].values()):
        return "IdenticalGeneral"
    return "PartialOverlap"


def _source_kinds(doc):
    return sorted({s["kind"] for s in doc["sources"]})


def _flat_views(doc):
    jids = [j["id"] for j in doc["jurisdictions"]]
    views = {}
    for role, section in (("sources", "sources"), ("requirements", "requirements")):
        for item in doc[section]:
            views.setdefault((role, item["kind"]), {j: [] for j in jids})[item["jurisdiction"]].append(item)
    return views


class _Tree:
    """Ancestor chains and effective requirement sets of a tree corpus."""

    def __init__(self, doc):
        self.doc = doc
        self.parent = {j["id"]: j.get("parent") for j in doc["jurisdictions"]}
        self.level = {j["id"]: j["level"] for j in doc["jurisdictions"]}
        self._effective = {}

    def lineage(self, node):
        out = []
        while node is not None:
            out.append(node)
            node = self.parent[node]
        return out

    def effective(self, node):
        if node not in self._effective:
            depth = {jid: i for i, jid in enumerate(self.lineage(node))}
            pool = {r["id"]: r for r in self.doc["requirements"] if r["jurisdiction"] in depth}
            reach = _reach(set(pool), self.doc["relations"]["refines"])
            shadowed = {weak for strong, weaker in reach.items() for weak in weaker
                        if depth[pool[strong]["jurisdiction"]] < depth[pool[weak]["jurisdiction"]]}
            self._effective[node] = sorted(set(pool) - shadowed)
        return self._effective[node]

    def level_views(self, level):
        frontier = sorted(j for j, lv in self.level.items() if lv == level)
        rmap = {r["id"]: r for r in self.doc["requirements"]}
        views = {}
        for node in frontier:
            lineage = set(self.lineage(node))
            for s in self.doc["sources"]:
                if s["jurisdiction"] in lineage:
                    views.setdefault(("sources", s["kind"]), {n: [] for n in frontier})[node].append(s)
            for rid in self.effective(node):
                r = rmap[rid]
                views.setdefault(("requirements", r["kind"]), {n: [] for n in frontier})[node].append(r)
        return views


def _per_kind(views):
    return {kind: _partition_body(role, view) for (role, kind), view in views.items()}


def _elaboration(doc, per_kind):
    """(code, id) of every elaboration finding, in report order: general
    requirements may derive only from general sources; a specific one only
    from general sources or sources specific to its owner, and should use at
    least one of the latter. The owner is the first node, in id order, whose
    specific bucket holds the requirement."""
    out = []
    for req_kind, src_kind in corpora.SOURCE_KIND_FOR.items():
        rp, sp = per_kind[req_kind], per_kind[src_kind]
        req_general = {i for ids in rp["general"].values() for i in ids}
        src_general = {i for ids in sp["general"].values() for i in ids}
        for r in sorted(doc["requirements"], key=lambda r: r["id"]):
            if r["kind"] != req_kind:
                continue
            sources = sorted(r["derivedFrom"])
            if r["id"] in req_general:
                out += [("GENERAL_REQ_SPECIFIC_SOURCE", r["id"]) for s in sources if s not in src_general]
                continue
            owner = next((j for j, ids in sorted(rp["specific"].items()) if r["id"] in ids), None)
            own = set(sp["specific"].get(owner, ()))
            out += [("SPECIFIC_REQ_FOREIGN_SOURCE", r["id"]) for s in sources
                    if s not in src_general and s not in own]
            if not own.intersection(sources):
                out.append(("SPECIFIC_REQ_NO_SPECIFIC_SOURCE", r["id"]))
    return out


def _contradiction_condition(doc, per_kind):
    """Ids of the specific sources, node by node, that contradict no item
    specific to another node."""
    partners = defaultdict(set)
    for pair in corpora.derived_conflicts(doc["relations"]["refines"], doc["relations"]["contradicts"]):
        a, b = sorted(pair)
        partners[a].add(b)
        partners[b].add(a)
    out = []
    for src_kind in corpora.SOURCE_KIND_FOR.values():
        specific = per_kind[src_kind]["specific"]
        for jid, ids in sorted(specific.items()):
            others = {i for other, o_ids in specific.items() if other != jid for i in o_ids}
            out += [i for i in ids if not partners[i] & others]
    return out


def _check_partition(body, doc, per_kind):
    if [(f["code"], f["id"]) for f in body["elaborationFindings"]] != _elaboration(doc, per_kind):
        return "elaboration findings differ"
    if [f["id"] for f in body["contradictionCondition"]] != _contradiction_condition(doc, per_kind):
        return "contradiction-condition warnings differ"
    return _diff("perKind", body["perKind"], per_kind)


def _diff(what, got, want):
    if got == want:
        return None
    return f"{what} differs from the brute-force expectation"


def _topsis(alts_doc, criteria):
    weights = [alts_doc["weights"].get(c, 1.0) for c in criteria]
    rows = [[a["satisfies"].get(c, 0.0) for c in criteria] for a in alts_doc["alternatives"]]
    cols = [j for j in range(len(criteria)) if max(r[j] for r in rows) > min(r[j] for r in rows)]
    total = sum(weights[j] for j in cols)
    norms = {j: math.sqrt(sum(r[j] ** 2 for r in rows)) for j in cols}
    scaled = [[r[j] / norms[j] * weights[j] / total for j in cols] for r in rows]
    ideal = [max(col) for col in zip(*scaled)]
    anti = [min(col) for col in zip(*scaled)]
    out = []
    for a, row in zip(alts_doc["alternatives"], scaled):
        d_plus = math.dist(row, ideal)
        d_minus = math.dist(row, anti)
        out.append((a["id"], d_minus / (d_plus + d_minus)))
    out.sort(key=lambda e: (-e[1], e[0]))
    return out


# ---------------------------------------------------------------------------
# workloads

def _argv(command, corpus, *extra):
    return [command, "--corpus", str(corpus), "--format", "json", *extra]


def _probe(workdir: Path, wl: Workload) -> Op:
    path = workdir / "chain-3000.reqcorpus.json"
    doc = corpora.chain_corpus(PROBE_DEPTH)
    wl.files[path.name] = corpora.dumps(doc)
    wl.counts[path.name] = (corpora.counts(doc), PROBE_COUNTS)
    return Op("validate chain-3000", _argv("validate", path),
              lambda env: _diff("validate body", env["body"], {"valid": True, "warnings": []}))


def _change_op(rng, doc, plan, workdir, corpus, corpus_text, files) -> Op:
    """``change`` with a seeded change set; checks the planned case of every
    op and matches the impact fingerprints against the input and output files."""
    cs, cases = corpora.change_set(rng, doc, plan, CHANGE_MIX)
    stem = corpus.name.removesuffix(".reqcorpus.json")
    changes, out = workdir / f"{stem}.reqchange.json", workdir / f"{stem}-after.reqcorpus.json"
    files[changes.name] = corpora.dumps(cs)
    jids = sorted(j["id"] for j in doc["jurisdictions"])
    jurisdiction_of = {r["id"]: r["jurisdiction"] for r in doc["requirements"]}
    want_counts = corpora.counts(doc)
    for op in cs["ops"]:
        section = "sources" if op["target"].startswith("s-") else "requirements"
        want_counts[section] += {"add": 1, "remove": -1}.get(op["op"], 0)

    def check(env):
        body = env["body"]
        if [o["case"] for o in body["ops"]] != cases:
            return "change cases differ from the planned mix"
        for op, rec in zip(cs["ops"], body["ops"]):
            want = {"2a": jids, "2b": op.get("adoptedBy"),
                    "1a": [jurisdiction_of.get(op["target"])]}.get(rec["case"])
            if want is not None and rec["affected"] != want:
                return f"affected jurisdictions of {op['target']} differ"
        after = out.read_bytes()
        if body["before"] != corpora.sha256(corpus_text.encode()) or body["after"] != corpora.sha256(after):
            return "impact fingerprints do not match the input and output files"
        got_counts = corpora.counts(json.loads(after))
        if any(got_counts[k] != want_counts[k] for k in ("sources", "requirements")):
            return "output corpus sizes differ"
        return None

    return Op("change", _argv("change", corpus, "--changes", str(changes), "--out", str(out)),
              check, units=len(cases), out_file=out)


def _analyze_flat(rng, workdir):
    doc, plan = corpora.flat_corpus(rng, **SIZES["analyze-flat"])
    criteria = sorted({i for p in corpora.derived_conflicts(doc["relations"]["refines"],
                                                            doc["relations"]["contradicts"]) for i in p})
    alts = corpora.alternatives(rng, criteria)
    corpus, alts_path = workdir / "flat.reqcorpus.json", workdir / "flat.reqalts.json"
    text = corpora.dumps(doc)
    files = {corpus.name: text, alts_path.name: corpora.dumps(alts)}

    per_kind = functools.cache(lambda: _per_kind(_flat_views(doc)))

    def partition(env):
        return _check_partition(env["body"], doc, per_kind())

    def scenario(env):
        want = {k: _scenario_option(per_kind()[k]) for k in _source_kinds(doc)}
        return _diff("scenario", {k: v["option"] for k, v in env["body"].items()}, want)

    def rank(env):
        got = [(e["alternative"], e["closeness"]) for e in env["body"]["ranking"]]
        want = _topsis(alts, criteria)
        if env["body"]["droppedCriteria"] or [a for a, _ in got] != [a for a, _ in want]:
            return "ranking order differs"
        if any(abs(g - w) > 1e-9 for (_, g), (_, w) in zip(got, want)):
            return "closeness differs beyond 1e-9"
        return None

    ops = [
        Op("validate", _argv("validate", corpus),
           lambda env: _diff("validate body", env["body"], {"valid": True, "warnings": []})),
        Op("partition", _argv("partition", corpus), partition),
        Op("scenario", _argv("scenario", corpus), scenario),
        Op("optimize", _argv("optimize", corpus),
           lambda env: _diff("optimize body", env["body"], _optimize_body(doc))),
        Op("conflicts", _argv("conflicts", corpus),
           lambda env: _diff("conflicts", env["body"], _conflicts_body(doc))),
        Op("rank", _argv("rank", corpus, "--alts", str(alts_path)), rank),
    ]
    return Workload(ops, files=files,
                    counts={corpus.name: (corpora.counts(doc), expected_counts("analyze-flat"))})


def _change_stream(rng, workdir):
    doc, plan = corpora.flat_corpus(rng, **SIZES["change-stream"])
    corpus = workdir / "stream.reqcorpus.json"
    text = corpora.dumps(doc)
    files = {corpus.name: text}
    ops = [_change_op(rng, doc, plan, workdir, corpus, text, files)]
    return Workload(ops, files=files,
                    counts={corpus.name: (corpora.counts(doc), expected_counts("change-stream"))})


def _hierarchy_deep(rng, workdir):
    doc = corpora.tree_corpus(rng, **SIZES["hierarchy-deep"])
    corpus = workdir / "tree.reqcorpus.json"
    files = {corpus.name: corpora.dumps(doc)}
    tree = _Tree(doc)

    def hierarchy(env):
        want = {j: tree.effective(j) for j in tree.parent}
        if env["body"]["findings"]:
            return "unexpected hierarchy findings"
        return _diff("effective requirements", env["body"]["effectiveRequirements"], want)

    def partition(env):
        return _check_partition(env["body"], doc, _per_kind(tree.level_views("organisational")))

    def scenario(env):
        views = tree.level_views("state")
        want = {k: _scenario_option(_partition_body("sources", views["sources", k]))
                for k in _source_kinds(doc)}
        return _diff("scenario at state level", {k: v["option"] for k, v in env["body"].items()}, want)

    ops = [
        Op("hierarchy", _argv("hierarchy", corpus), hierarchy),
        Op("partition --level org", _argv("partition", corpus, "--level", "org"), partition),
        Op("scenario --level state", _argv("scenario", corpus, "--level", "state"), scenario),
        Op("optimize", _argv("optimize", corpus),
           lambda env: _diff("optimize body", env["body"], _optimize_body(doc))),
        Op("conflicts", _argv("conflicts", corpus),
           lambda env: _diff("conflicts", env["body"], _conflicts_body(doc))),
    ]
    wl = Workload(ops, files=files,
                  counts={corpus.name: (corpora.counts(doc), expected_counts("hierarchy-deep"))})
    wl.probe = _probe(workdir, wl)
    return wl


BY_NAME = {"analyze-flat": _analyze_flat, "change-stream": _change_stream,
           "hierarchy-deep": _hierarchy_deep}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's input files under ``workdir`` from ``seed``."""
    workdir.mkdir(parents=True, exist_ok=True)
    wl = BY_NAME[name](random.Random(f"{name}:{seed}"), workdir)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    return wl

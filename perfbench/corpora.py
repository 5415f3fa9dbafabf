"""Seeded synthetic inputs for the benchmark workloads.

Everything here builds plain JSON documents in the on-disk formats; nothing
imports the package under test, so the program only ever sees the files. The
same ``random.Random`` state gives byte-identical documents. Sizes are exact:
``counts()`` reports what a document holds and the runner compares it with
the size table of each workload.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict

REQ_KINDS = ("legalBased", "culturalBased", "functional")
SOURCE_KIND_FOR = {"legalBased": "legal", "culturalBased": "cultural"}
_WORDS = ("record", "retain", "encrypt", "log", "notify", "consent", "delete",
          "audit", "display", "export", "verify", "archive", "report", "mask")


def content_hash(text: str) -> str:
    return hashlib.sha256(" ".join(text.lower().split()).encode("utf-8")).hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def canonical(doc):
    """Order a corpus document the way the program's canonical writer does."""
    for section in ("jurisdictions", "sources", "requirements", "components"):
        doc[section].sort(key=lambda e: e["id"])
    rel = doc["relations"]
    rel["refines"] = sorted([a, b] for a, b in rel["refines"])
    rel["contradicts"] = sorted(sorted(p) for p in rel["contradicts"])
    return doc


def _source(sid, kind, jid, key, text):
    return {"id": sid, "kind": kind, "jurisdiction": jid, "conceptKey": key, "text": text,
            "contentHash": content_hash(text), "isStatic": kind == "cultural"}


def _requirement(rid, kind, jid, key, text, derived=()):
    return {"id": rid, "kind": kind, "jurisdiction": jid, "conceptKey": key, "text": text,
            "contentHash": content_hash(text), "derivedFrom": sorted(derived)}


def _phrase(rng) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(3))


def _balanced(rng, values, n):
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _pairs(rng, pool_by_kind, n, accept):
    """``n`` distinct (a, b) pairs of one kind, a before b in a random order."""
    kinds = sorted(pool_by_kind)
    rank = {}
    for kind in kinds:
        order = list(pool_by_kind[kind])
        rng.shuffle(order)
        rank.update((rid, i) for i, rid in enumerate(order))
    out: set[tuple[str, str]] = set()
    while len(out) < n:
        pool = pool_by_kind[rng.choice(kinds)]
        a, b = rng.sample(pool, 2)
        if rank[a] > rank[b]:
            a, b = b, a
        if (a, b) not in out and accept(a, b):
            out.add((a, b))
    return sorted(out)


# ---------------------------------------------------------------------------
# flat corpus: national jurisdictions only

def flat_corpus(rng, *, jurisdictions, req_concepts, src_concepts, refines,
                contradicts, components, near_general=0):
    """Every concept is held by every jurisdiction. Half the concepts are
    general (one text everywhere); the others differ per jurisdiction, and
    ``near_general`` of those differ in one jurisdiction only, so a modify
    of that one can promote the concept (change case 1b)."""
    jids = [f"j{i:02d}" for i in range(jurisdictions)]
    sources, requirements = [], []

    src_kind = _balanced(rng, ("legal", "cultural"), src_concepts)
    src_general = set(rng.sample(range(src_concepts), src_concepts // 2))
    src_pool = defaultdict(list)  # (kind, general) -> concept keys
    for c in range(src_concepts):
        key, kind = f"sc{c:05d}", src_kind[c]
        src_pool[kind, c in src_general].append(key)
        common = f"{kind} source {key} {_phrase(rng)}"
        for j in jids:
            text = common if c in src_general else f"{common} as enacted in {j}"
            sources.append(_source(f"s-{key}-{j}", kind, j, key, text))

    req_kind = _balanced(rng, REQ_KINDS, req_concepts)
    general = set(rng.sample(range(req_concepts), req_concepts // 2))
    specific = sorted(set(range(req_concepts)) - general)
    near = set(rng.sample(specific, near_general))
    used_sources: set[str] = set()
    by_kind = defaultdict(list)
    for c in range(req_concepts):
        key, kind = f"rc{c:05d}", req_kind[c]
        src_key = None
        if kind in SOURCE_KIND_FOR:
            src_key = rng.choice(src_pool[SOURCE_KIND_FOR[kind], c in general])
            used_sources.add(src_key)
        common = f"the system shall {_phrase(rng)} for {key}"
        odd = rng.choice(jids)
        for j in jids:
            if c in general or (c in near and j != odd):
                text = common
            else:
                text = f"{common} under the rules of {j}"
            rid = f"r-{key}-{j}"
            derived = [f"s-{src_key}-{j}"] if src_key else []
            requirements.append(_requirement(rid, kind, j, key, text, derived))
            by_kind[kind].append(rid)

    refine_pairs = _pairs(rng, by_kind, refines, lambda a, b: True)
    refined = set(refine_pairs) | {(b, a) for a, b in refine_pairs}
    contradict_pairs = _pairs(
        rng, by_kind, contradicts,
        lambda a, b: (a, b) not in refined and a.rsplit("-", 1)[1] != b.rsplit("-", 1)[1])

    comps = []
    general_keys = rng.sample(sorted(general), components // 2)
    for i, c in enumerate(general_keys):
        comps.append({"id": f"cg{i:04d}", "scope": "general",
                      "implements": sorted(f"r-rc{c:05d}-{j}" for j in jids)})
    for i in range(components - len(comps)):
        j = rng.choice(jids)
        picks = rng.sample(specific, rng.randint(1, 3))
        comps.append({"id": f"cs{i:04d}", "scope": "specific", "jurisdiction": j,
                      "implements": sorted(f"r-rc{c:05d}-{j}" for c in picks)})

    doc = canonical({
        "formatVersion": 1,
        "jurisdictions": [{"id": j, "name": f"Nation {j}", "level": "national"} for j in jids],
        "sources": sources,
        "requirements": requirements,
        "relations": {"refines": refine_pairs, "contradicts": contradict_pairs},
        "components": comps,
    })
    plan = {
        "general": sorted(f"rc{c:05d}" for c in general),
        "near_general": sorted(f"rc{c:05d}" for c in near),
        "unused_sources": sorted(k for ks in src_pool.values() for k in ks if k not in used_sources),
    }
    return doc, plan


# ---------------------------------------------------------------------------
# jurisdiction tree with deep cross-level refinement chains

def tree_corpus(rng, *, nationals, states, orgs, common, local, chains, depth,
                contradicts, stem):
    """nationals x states x orgs tree. Each national holds ``common`` concepts
    with one text across nationals, every node holds ``local`` concepts of
    its own, and each of ``chains`` refinement chains runs ``depth`` deep from
    one org through its state to its national (strongest member first).
    Contradictions join members near the strong end (within ``stem``) of two
    chains of one kind, so each inherits a bounded number of derived pairs."""
    jur_docs, nodes, parent = [], [], {}
    for a in range(nationals):
        n = f"n{a}"
        jur_docs.append({"id": n, "name": f"Nation {a}", "level": "national"})
        nodes.append(n)
        for b in range(states):
            s = f"{n}s{b}"
            jur_docs.append({"id": s, "name": f"State {a}.{b}", "level": "state", "parent": n})
            nodes.append(s)
            parent[s] = n
            for c in range(orgs):
                o = f"{s}o{c}"
                jur_docs.append({"id": o, "name": f"Org {a}.{b}.{c}", "level": "organisational",
                                 "parent": s})
                nodes.append(o)
                parent[o] = s
    nationals_ids = [n for n in nodes if n not in parent]
    org_ids = [n for n in nodes if parent.get(n) in parent]

    def national_of(node):
        while node in parent:
            node = parent[node]
        return node

    sources, requirements = [], []
    for i in range(common):
        kind = ("legal", "cultural")[i % 2]
        key, text = f"tsc{i:04d}", f"{kind} federal source {i} {_phrase(rng)}"
        for n in nationals_ids:
            sources.append(_source(f"s-{key}-{n}", kind, n, key, text))
    for node in nodes:
        for kind in ("legal", "cultural"):
            key = f"tsl-{kind}"
            sources.append(_source(f"s-{key}-{node}", kind, node, key,
                                   f"{kind} source local to {node} {_phrase(rng)}"))

    req_kinds = _balanced(rng, REQ_KINDS, common)
    for i in range(common):
        key, kind = f"trc{i:04d}", req_kinds[i]
        text = f"the system shall {_phrase(rng)} for {key}"
        for n in nationals_ids:
            requirements.append(_requirement(f"r-{key}-{n}", kind, n, key, text))
    local_kinds = _balanced(rng, REQ_KINDS, local)
    for node in nodes:
        for i in range(local):
            key, kind = f"trl{i:03d}", local_kinds[i]
            derived = []
            if kind == "legalBased" and node in parent:
                derived = [f"s-tsl-legal-{national_of(node)}"]
            requirements.append(_requirement(
                f"r-{key}-{node}", kind, node, key,
                f"the system shall {_phrase(rng)} for {key} in {node}", derived))

    # chain k lives in national k (round robin) under a state no other chain
    # uses, and contradiction i joins fixed positions of a fixed chain pair:
    # the seed picks orgs and texts, never how much closure work there is
    chain_kinds = [REQ_KINDS[k // 2 % len(REQ_KINDS)] for k in range(chains)]
    free_states = {n: rng.sample([s for s in parent if parent[s] == n], states) for n in nationals_ids}
    refines, members = [], []
    for k in range(chains):
        state = free_states[nationals_ids[k % nationals]].pop()
        org = rng.choice([o for o in org_ids if parent[o] == state])
        holders = (org, state, parent[state])
        chain = []
        for i in range(depth):
            node = holders[min(3 * i // depth, 2)]
            rid = f"r-ch{k:02d}-{i:04d}"
            chain.append(rid)
            requirements.append(_requirement(
                rid, chain_kinds[k], node, f"ch{k:02d}-{i:04d}",
                f"the system shall {_phrase(rng)} at strength {depth - i} of chain {k}"))
        refines.extend(zip(chain, chain[1:]))
        members.append(chain)

    chain_pairs = [(k, k + 1) for k in range(0, chains - 1, 2)]
    if contradicts > len(chain_pairs) * stem:
        raise ValueError("more contradictions than distinct stem positions")
    pairs = []
    for i in range(contradicts):
        k1, k2 = chain_pairs[i % len(chain_pairs)]
        j = i // len(chain_pairs)
        pairs.append((members[k1][j], members[k2][(7 * j + 3) % stem]))

    doc = canonical({
        "formatVersion": 1,
        "jurisdictions": jur_docs,
        "sources": sources,
        "requirements": requirements,
        "relations": {"refines": refines, "contradicts": pairs},
        "components": [{"id": f"ct-{n}", "scope": "specific", "jurisdiction": n,
                        "implements": [f"r-trl000-{n}"]} for n in nationals_ids],
    })
    return doc


def chain_corpus(depth: int):
    """One national jurisdiction holding a single ``depth``-long refines chain."""
    ids = [f"r-deep-{i:05d}" for i in range(depth)]
    return {
        "formatVersion": 1,
        "jurisdictions": [{"id": "deep", "name": "Deep", "level": "national"}],
        "sources": [],
        "requirements": [_requirement(rid, "functional", "deep", rid, f"link {i} of the chain")
                         for i, rid in enumerate(ids)],
        "relations": {"refines": [[a, b] for a, b in zip(ids, ids[1:])], "contradicts": []},
        "components": [],
    }


# ---------------------------------------------------------------------------
# change sets and alternatives

def change_set(rng, doc, plan, mix):
    """``mix[case]`` ops per change case, hitting distinct concepts in a
    shuffled order, and the case code each must get. Removals pick specific
    requirements and unused sources, so no requirement is left deriving from
    a removed source."""
    jids = [j["id"] for j in doc["jurisdictions"]]
    by_concept = defaultdict(list)
    for r in doc["requirements"]:
        by_concept[r["conceptKey"]].append(r)
    general = set(plan["general"])
    near = set(plan["near_general"])
    specific = sorted(k for k in by_concept if k not in general and k not in near)
    rng.shuffle(specific)
    generals = sorted(general)
    rng.shuffle(generals)
    nears = sorted(near)
    rng.shuffle(nears)
    src_keys = sorted({s["conceptKey"] for s in doc["sources"]} - set(plan["unused_sources"]))
    rng.shuffle(src_keys)
    unused = list(plan["unused_sources"])
    rng.shuffle(unused)

    ops = []
    for i in range(mix["1a"]):
        r = rng.choice(by_concept[specific.pop()])
        ops.append(("1a", {"op": "modify", "target": r["id"],
                           "payload": {"text": f"{r['text']} revised {i}"}}))
    for _ in range(mix["1b"]):
        group = by_concept[nears.pop()]
        texts = [r["text"] for r in group]
        common = max(set(texts), key=texts.count)
        odd = next(r for r in group if r["text"] != common)
        ops.append(("1b", {"op": "modify", "target": odd["id"], "payload": {"text": common}}))
    for case in ("2a", "2b"):
        for i in range(mix[case]):
            r = rng.choice(by_concept[generals.pop()])
            adopters = jids if case == "2a" else sorted(rng.sample(jids, len(jids) // 2))
            ops.append((case, {"op": "modify", "target": r["id"], "adoptedBy": adopters,
                               "payload": {"text": f"{r['text']} amended {case} {i}"}}))
    for i in range(mix["ADD"]):
        j = rng.choice(jids)
        if i % 2:
            ops.append(("ADD", {"op": "add", "target": f"s-new{i:03d}-{j}", "payload": {
                "role": "source", "kind": "legal", "jurisdiction": j,
                "conceptKey": f"new-source-{i}", "text": f"new statute {i} {_phrase(rng)}"}}))
        else:
            ops.append(("ADD", {"op": "add", "target": f"r-new{i:03d}-{j}", "payload": {
                "role": "requirement", "kind": "functional", "jurisdiction": j,
                "conceptKey": f"new-concept-{i}", "text": f"the system shall {_phrase(rng)}"}}))
    for i in range(mix["REMOVE"]):
        if i == 0 and unused:
            target = f"s-{unused.pop()}-{rng.choice(jids)}"
        else:
            target = rng.choice(by_concept[specific.pop()])["id"]
        ops.append(("REMOVE", {"op": "remove", "target": target}))
    for i in range(mix["SOURCE_CHANGE"]):
        ops.append(("SOURCE_CHANGE", {"op": "modify", "target": f"s-{src_keys.pop()}-{rng.choice(jids)}",
                                      "payload": {"text": f"statute text replaced {i} {_phrase(rng)}"}}))
    rng.shuffle(ops)
    doc = {"formatVersion": 1, "label": "benchmark change stream", "ops": [op for _, op in ops]}
    return doc, [case for case, _ in ops]


def derived_conflicts(refines, contradicts) -> set[frozenset]:
    """Contradictions closed under refinement, by reverse reachability."""
    refiners_of = defaultdict(set)
    for a, b in refines:
        refiners_of[b].add(a)
    memo: dict[str, set[str]] = {}

    def stronger(x):
        if x not in memo:
            seen, todo = set(), [x]
            while todo:
                for a in refiners_of[todo.pop()]:
                    if a not in seen:
                        seen.add(a)
                        todo.append(a)
            memo[x] = seen
        return memo[x]

    out = set()
    for x, y in contradicts:
        for a in stronger(x) | {x}:
            for b in stronger(y) | {y}:
                if a != b:
                    out.add(frozenset((a, b)))
    return out


def alternatives(rng, criteria, n=6):
    """``n`` candidate resolutions scoring every criterion, a few reweighted."""
    alts = [{"id": f"alt-{i}", "satisfies": {c: round(rng.uniform(0.05, 1.0), 3) for c in criteria}}
            for i in range(n)]
    weights = {c: round(rng.uniform(0.5, 3.0), 2) for c in rng.sample(criteria, len(criteria) // 10)}
    return {"formatVersion": 1, "alternatives": alts, "weights": weights}


def counts(doc) -> dict[str, int]:
    rel = doc["relations"]
    return {"jurisdictions": len(doc["jurisdictions"]), "sources": len(doc["sources"]),
            "requirements": len(doc["requirements"]), "refines": len(rel["refines"]),
            "contradicts": len(rel["contradicts"]), "components": len(doc["components"])}

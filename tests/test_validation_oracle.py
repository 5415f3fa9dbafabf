"""``validate_corpus``'s first fault against the ordered-scan reference of oracles.py.

One to three structural faults are injected into random flat corpora and
random national/state/org forests, whose requirements also derive from
their ancestors' sources. ``validate_corpus`` must raise exactly the
reference's first fault (code, message and item id), or pass where the
reference finds none.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import first_structural_fault, lineage, random_corpus, random_forest
from reqlattice import model
from reqlattice.errors import ValidationError
from reqlattice.model import (
    SOURCE_KIND_FOR_REQUIREMENT,
    Component,
    Corpus,
    Jurisdiction,
    Level,
    Requirement,
    RequirementKind,
    SourceItem,
    SourceKind,
)


def _source(sid, kind, jurisdiction, concept):
    return SourceItem(id=sid, kind=kind, jurisdiction=jurisdiction, concept_key=concept, text=sid,
                      content_hash=model.content_hash(sid), is_static=False)


def _requirement(rid, kind, jurisdiction, concept, derived=frozenset()):
    return Requirement(id=rid, kind=kind, jurisdiction=jurisdiction, concept_key=concept, text=rid,
                       content_hash=model.content_hash(rid), derived_from=derived)


def base_corpus(rng: random.Random) -> Corpus:
    if rng.random() < 0.5:
        return random_corpus(rng, with_relations=True, with_components=True, with_derivations=True)
    return random_forest(rng)


# ---------------------------------------------------------------------------
# faults: each returns the corpus with one fault added, or unchanged when
# the corpus has nothing to hang it on

def _items(corpus):
    return [*corpus.sources, *corpus.requirements]


def _fresh_id(rng, tag):
    # a leading "a" or "z" puts it before or after the generated ids
    return f"{rng.choice('az')}-{tag}-{rng.randrange(1000)}"


def duplicate_id(rng, corpus):
    taken = [e.id for e in (*corpus.jurisdictions, *_items(corpus), *corpus.components)]
    dup = rng.choice(taken)
    jid = rng.choice(corpus.jurisdictions).id
    section = rng.choice(["jurisdictions", "sources", "requirements", "components"])
    new = {
        "jurisdictions": Jurisdiction(dup, "Twin", Level.NATIONAL),
        "sources": _source(dup, rng.choice(list(SourceKind)), jid, f"twin-{rng.randrange(1000)}"),
        "requirements": _requirement(dup, RequirementKind.FUNCTIONAL, jid, f"twin-{rng.randrange(1000)}"),
        "components": Component(dup, frozenset(), None),
    }[section]
    return replace(corpus, **{section: (*getattr(corpus, section), new)})


def unknown_item_jurisdiction(rng, corpus):
    items = _items(corpus)
    if not items:
        return corpus
    victim = rng.choice(items)
    return _swap(corpus, victim, victim._replace(jurisdiction=rng.choice(["j-nowhere", "comp-0"])))


def repeated_concept(rng, corpus):
    items = _items(corpus)
    if not items:
        return corpus
    return _add(corpus, rng.choice(items)._replace(id=_fresh_id(rng, "twin")))


def functional_with_sources(rng, corpus):
    functional = [r for r in corpus.requirements if r.kind is RequirementKind.FUNCTIONAL]
    if not functional:
        return corpus
    victim = rng.choice(functional)
    sid = rng.choice([s.id for s in corpus.sources] or ["s-nowhere"])
    return _swap(corpus, victim, victim._replace(derived_from=victim.derived_from | {sid}))


def bad_derivation(rng, corpus):
    elaborated = [r for r in corpus.requirements if r.kind is not RequirementKind.FUNCTIONAL]
    if not elaborated:
        return corpus
    victim = rng.choice(elaborated)
    allowed = SOURCE_KIND_FOR_REQUIREMENT[victim.kind]
    chain = lineage(corpus, victim.jurisdiction)
    candidates = {
        "unknown": ["s-nowhere", "a-nowhere"],
        "not a source": [r.id for r in corpus.requirements],
        "wrong kind": [s.id for s in corpus.sources if s.kind is not allowed],
        "unrelated": [s.id for s in corpus.sources if s.kind is allowed and s.jurisdiction not in chain],
    }
    pool = candidates[rng.choice([k for k, ids in candidates.items() if ids])]
    return _swap(corpus, victim, victim._replace(derived_from=victim.derived_from | {rng.choice(pool)}))


def bad_relation_pair(rng, corpus):
    items = _items(corpus)
    if not items:
        return corpus
    a = rng.choice(items)
    others = {
        "dangling": ["x-nowhere", "a-nowhere"],
        "self": [a.id],
        "role": [x.id for x in items if x.role != a.role],
        "kind": [x.id for x in items if x.role == a.role and x.kind is not a.kind],
    }
    b = rng.choice(others[rng.choice([k for k, ids in others.items() if ids])])
    pair = (a.id, b) if rng.random() < 0.5 else (b, a.id)
    name = rng.choice(["refines", "contradicts"])
    relations = replace(corpus.relations, **{name: getattr(corpus.relations, name) | {pair}})
    return replace(corpus, relations=relations)


def bad_component(rng, corpus):
    target = rng.choice([*corpus.components, None])
    if target is None:
        target = Component(_fresh_id(rng, "comp"), frozenset(), None)
    if rng.random() < 0.75:
        wrong = rng.choice(["r-nowhere", *(s.id for s in corpus.sources)])
        new = replace(target, implements=target.implements | {wrong})
    else:
        new = replace(target, jurisdiction="j-nowhere")
    return replace(corpus, components=(*(c for c in corpus.components if c is not target), new))


def bad_parent(rng, corpus):
    victim = rng.choice(corpus.jurisdictions)
    parent = rng.choice(["j-nowhere", *(j.id for j in corpus.jurisdictions)])
    nodes = tuple(replace(j, parent=parent) if j is victim else j for j in corpus.jurisdictions)
    return replace(corpus, jurisdictions=nodes)


def _swap(corpus, old, new):
    section = "sources" if isinstance(old, SourceItem) else "requirements"
    return replace(corpus, **{section: tuple(new if x is old else x for x in getattr(corpus, section))})


def _add(corpus, new):
    section = "sources" if isinstance(new, SourceItem) else "requirements"
    return replace(corpus, **{section: (*getattr(corpus, section), new)})


FAULTS = [duplicate_id, unknown_item_jurisdiction, repeated_concept, functional_with_sources,
          bad_derivation, bad_relation_pair, bad_component, bad_parent]


def _raised(corpus):
    try:
        model.validate_corpus(corpus)
    except ValidationError as exc:
        return exc.code, str(exc), exc.item_id
    return None


def _expected(corpus):
    fault = first_structural_fault(corpus)
    return None if fault is None else (fault[0], f"{fault[0]}: {fault[1]}", fault[2])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_generated_corpora_are_valid(seed):
    corpus = base_corpus(random.Random(seed))
    assert first_structural_fault(corpus) is None
    assert _raised(corpus) is None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=800, deadline=None)
def test_validate_corpus_raises_the_reference_first_fault(seed):
    rng = random.Random(seed)
    corpus = base_corpus(rng)
    for _ in range(rng.randint(1, 3)):
        corpus = rng.choice(FAULTS)(rng, corpus)
    assert _raised(corpus) == _expected(corpus)


def test_every_fault_is_reachable():
    """Each rule's fault, injected alone, is the first fault on some draw."""
    codes: dict[str, set[str]] = {}
    rng = random.Random(20261020)
    for _ in range(600):
        fault = rng.choice(FAULTS)
        found = first_structural_fault(fault(rng, base_corpus(rng)))
        codes.setdefault(fault.__name__, set()).add(found and found[0])
    want = {
        "duplicate_id": {"DUPLICATE_ID"},
        "unknown_item_jurisdiction": {"DANGLING_REF"},
        "repeated_concept": {"DUPLICATE_CONCEPT"},
        "functional_with_sources": {"FUNCTIONAL_WITH_SOURCES"},
        "bad_derivation": {"DANGLING_REF", "DERIVED_FROM_KIND", "DERIVED_FROM_JURISDICTION"},
        "bad_relation_pair": {"DANGLING_REF", "RELATION_IRREFLEXIVE", "RELATION_ROLE_MISMATCH",
                              "RELATION_KIND_MISMATCH"},
        "bad_component": {"DANGLING_REF"},
        "bad_parent": {"DANGLING_REF", "LEVEL_VIOLATION"},
    }
    assert all(want[name] <= codes[name] for name in want), codes

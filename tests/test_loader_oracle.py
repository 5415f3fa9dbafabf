"""The loader's first error against the ordered-scan reference of oracles.py.

Records of a valid corpus are mutated (keys dropped, added or reordered,
values retyped, non-string ids, unknown enum values); ``parse_corpus`` must
raise exactly the reference's first fault, or load and round-trip when the
reference finds none. A source or requirement laid out as ``canonical_bytes``
writes it is read by one fetch, any other by ``_take``'s search: both must
give the same record or the same first fault.
"""

import copy
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RECORD_ENUMS, first_record_error, random_corpus
from reqlattice import corpus_io
from reqlattice.errors import ValidationError

BASE = {
    "formatVersion": 1,
    "jurisdictions": [
        {"id": "de", "name": "Germany", "level": "national"},
        {"id": "de-by", "name": "Bavaria", "level": "state", "parent": "de"},
    ],
    "sources": [
        {"id": "s-law", "kind": "legal", "jurisdiction": "de", "conceptKey": "retention",
         "text": "Keep records.", "contentHash": "h1", "isStatic": False},
        {"id": "s-custom", "kind": "cultural", "jurisdiction": "de-by", "conceptKey": "greeting",
         "text": "Greet formally."},
    ],
    "requirements": [
        {"id": "r-keep", "kind": "legalBased", "jurisdiction": "de", "conceptKey": "retention",
         "text": "The system shall keep records.", "derivedFrom": ["s-law"]},
        {"id": "r-log", "kind": "functional", "jurisdiction": "de", "conceptKey": "log",
         "text": "The system shall log.", "contentHash": "h2"},
        # every field present, so the parser reads it by one fetch
        {"id": "r-greet", "kind": "culturalBased", "jurisdiction": "de-by", "conceptKey": "greeting",
         "text": "The system shall greet formally.", "contentHash": "h3", "derivedFrom": ["s-custom"]},
    ],
    "relations": {},
    "components": [
        {"id": "c-core", "implements": ["r-keep", "r-log"], "scope": "general"},
        {"id": "c-by", "implements": ["r-keep"], "scope": "specific", "jurisdiction": "de-by"},
    ],
}
SECTIONS = {"jurisdictions": "jurisdiction", "sources": "source", "requirements": "requirement",
            "components": "component"}
ID_LISTS = {"requirement": "derivedFrom", "component": "implements"}
#: replacement values: a str field always gets a wrong type; a bool or list field may keep its own
RETYPED = [True, False, None, 1.5, 0, [], [1], ["s-law", None], {}, {"a": 1}]
NON_STRING_IDS = [1, None, True, 2.5, ["s-law"], {}]
EXTRA_KEYS = ["zz", "", "ID", "role", "concept_key", "derived_from", "isstatic"]
ENUM_TRIES = ["", "Legal", "legalbased", "LEGAL", "legal", "cultural", "functional", "national",
              "state", "organisational", "org", "general", "specific", "global", "bogus"]


def _drop(draw, record, role):
    if not record:
        return record
    key = draw(st.sampled_from(list(record)))
    return {k: v for k, v in record.items() if k != key}


def _add(draw, record, role):
    # a component's jurisdiction is the one known key a record may gain without a cross-record fault
    keys = EXTRA_KEYS + (["jurisdiction"] if role == "component" else [])
    key = draw(st.sampled_from(keys))
    value = draw(st.sampled_from([*RETYPED, "de-by"]))
    items = [(k, v) for k, v in record.items() if k != key]
    items.insert(draw(st.integers(0, len(items))), (key, value))
    return dict(items)


def _reorder(draw, record, role):
    return dict(draw(st.permutations(list(record.items()))))


def _retype(draw, record, role):
    if not record:
        return record
    key = draw(st.sampled_from(list(record)))
    return {**record, key: draw(st.sampled_from(RETYPED))}


def _non_string_id(draw, record, role):
    field = ID_LISTS.get(role)
    ids = record.get(field)
    if not isinstance(ids, list):
        return _retype(draw, record, role)
    ids = list(ids)
    ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(NON_STRING_IDS)))
    return {**record, field: ids}


def _unknown_enum(draw, record, role):
    field, allowed = RECORD_ENUMS[role]
    return {**record, field: draw(st.sampled_from([v for v in ENUM_TRIES if v not in allowed]))}


EDITS = [_drop, _add, _reorder, _retype, _non_string_id, _unknown_enum]


@st.composite
def mutated_corpora(draw):
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 4))):
        section = draw(st.sampled_from(sorted(SECTIONS)))
        records = doc[section]
        index = draw(st.integers(0, len(records) - 1))
        records[index] = draw(st.sampled_from(EDITS))(draw, records[index], SECTIONS[section])
    return doc


def _reference_error(doc):
    """The first fault of the document, scanning records in the loader's order."""
    for section in ("jurisdictions", "sources", "requirements", "components"):
        for record in doc[section]:
            error = first_record_error(SECTIONS[section], record)
            if error:
                return error
    return None


def test_base_corpus_is_valid():
    assert _reference_error(BASE) is None
    corpus_io.parse_corpus(copy.deepcopy(BASE))


@given(mutated_corpora())
@settings(max_examples=600, deadline=None)
def test_loader_raises_the_reference_first_error(doc):
    want = _reference_error(doc)
    if want is None:
        corpus = corpus_io.parse_corpus(doc)
        data = corpus_io.canonical_bytes(corpus)
        again = corpus_io.parse_corpus(json.loads(data))
        assert again == corpus and corpus_io.canonical_bytes(again) == data
        return
    try:
        corpus_io.parse_corpus(doc)
    except ValidationError as exc:
        assert (exc.code, str(exc)) == (want[0], f"{want[0]}: {want[1]}")
    else:
        raise AssertionError(f"loaded, but the reference finds {want}")


class Sub(dict):
    """A dict subclass fails the one-fetch path's ``type(raw) is dict``, so the parser searches it as ``_take`` does."""


PARSERS = {"sources": corpus_io._source, "requirements": corpus_io._requirement}


def _parsed(parse, raw):
    """The record ``parse`` reads from ``raw``, or its first fault as (code, message)."""
    try:
        return parse(raw)
    except ValidationError as exc:
        return exc.code, str(exc)


def _assert_one_fetch_matches_the_search(doc):
    for section, parse in PARSERS.items():
        for raw in doc[section]:
            assert _parsed(parse, raw) == _parsed(parse, Sub(raw)), raw


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_canonical_records_read_by_one_fetch_as_by_the_search(seed):
    corpus = random_corpus(random.Random(seed), with_relations=True, with_derivations=True)
    doc = json.loads(corpus_io.canonical_bytes(corpus))
    _assert_one_fetch_matches_the_search(doc)
    assert corpus_io.parse_corpus(doc) == corpus


@given(mutated_corpora())
@settings(max_examples=600, deadline=None)
def test_mutated_records_read_by_one_fetch_as_by_the_search(doc):
    _assert_one_fetch_matches_the_search(doc)


def test_a_non_string_id_in_a_record_read_by_one_fetch_gives_the_search_fault():
    greet = BASE["requirements"][2]
    assert len(greet) == 7  # every field present: the one-fetch path reads it first
    want = ("BAD_TYPE", "BAD_TYPE: requirement 'r-greet' derivedFrom must hold ids")
    for bad in NON_STRING_IDS:
        for ids in ([bad], ["s-custom", bad], [bad, "s-custom"]):
            raw = {**greet, "derivedFrom": ids}
            assert _parsed(corpus_io._requirement, raw) == _parsed(corpus_io._requirement, Sub(raw)) == want, ids

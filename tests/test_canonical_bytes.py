"""``corpus_io.canonical_json`` renders every report envelope and, through
``corpus_io.canonical_bytes``, every corpus file. It must equal the
``json.dumps`` layout (``oracles.dumps_layout``) on any JSON value. The
corpus bytes, where each source and requirement is laid out in advance by
one f-string, must equal that layout of the corpus's document
(``oracles.corpus_to_doc``) exactly, since the corpus fingerprint is their
sha256.

The corpora are drawn directly, not loaded, and need not be valid: any
text in any field (quotes, backslashes, control characters, non-ASCII,
U+2028/U+2029, characters outside the BMP), empty and repeated sections,
empty and multi-element id sets, general and specific components,
jurisdictions with and without a parent, and relation pairs given in either
order or both.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import corpus_to_doc, dumps_layout
from reqlattice import corpus_io
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

# characters json escapes or that take more than one UTF-8 byte; other texts
# draw any character but a lone surrogate, which UTF-8 cannot encode
_AWKWARD = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x85\xa0\xe9\u2028\u2029\ufeff\U0001f600\U0010ffff'
_TEXT = st.text(st.sampled_from(_AWKWARD + "ab"), max_size=8) | st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
# few distinct ids, so sorting meets ties and shared prefixes
_ID = st.one_of(st.sampled_from(["a", "a\u2028", "b", "\xe9", "\U0001f600", ""]), _TEXT)
_IDS = st.frozensets(_ID, max_size=4)
_OPTIONAL = st.none() | _ID


def _pairs():
    """A relation's pairs, each given as drawn, reversed or both ways."""
    given_as = st.sampled_from([lambda a, b: {(a, b)}, lambda a, b: {(b, a)}, lambda a, b: {(a, b), (b, a)}])
    return st.lists(st.tuples(_ID, _ID, given_as), max_size=6).map(
        lambda drawn: frozenset(p for a, b, orient in drawn for p in orient(a, b)))


_JURISDICTION = st.builds(Jurisdiction, id=_ID, name=_TEXT, level=st.sampled_from(Level), parent=_OPTIONAL)
_SOURCE = st.builds(SourceItem, id=_ID, kind=st.sampled_from(SourceKind), jurisdiction=_ID, concept_key=_TEXT,
                    text=_TEXT, content_hash=_TEXT, is_static=st.booleans())
_REQUIREMENT = st.builds(Requirement, id=_ID, kind=st.sampled_from(RequirementKind), jurisdiction=_ID,
                         concept_key=_TEXT, text=_TEXT, content_hash=_TEXT, derived_from=_IDS)
_COMPONENT = st.builds(Component, id=_ID, implements=_IDS, jurisdiction=_OPTIONAL)
_CORPUS = st.builds(
    Corpus,
    jurisdictions=st.lists(_JURISDICTION, max_size=4).map(tuple),
    sources=st.lists(_SOURCE, max_size=4).map(tuple),
    requirements=st.lists(_REQUIREMENT, max_size=4).map(tuple),
    relations=st.builds(RelationSet, refines=_pairs(), contradicts=_pairs()),
    components=st.lists(_COMPONENT, max_size=4).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(_CORPUS)
@example(Corpus(jurisdictions=(), sources=(), requirements=()))
def test_canonical_bytes_equal_the_json_dumps_layout(corpus):
    want = dumps_layout(corpus_to_doc(corpus)).encode("utf-8")
    assert corpus_io.canonical_bytes(corpus) == want


# numbers json.dumps writes in a form of its own: signed zero, the smallest
# subnormal, exponent forms, closeness-like fractions and the non-finite ones
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 2 / 3, 0.5857864376269049,
                                         float("nan"), float("inf"), float("-inf")])
_SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200) | _FLOATS
           | _FLOATS.map(np.float64) | _TEXT)
# lists, tuples and objects nest freely, so empty ones meet at every depth
_JSON = st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                     | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_JSON)
@example({"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {"f": []}}})
@example([True, 1, False, 0, 1.0, None, "1"])
@example({"\u2028": "\x00\x1f\"\\/\U0001f600", "": {"\U0010ffff": [float("nan"), float("-inf"), -0.0]}})
def test_canonical_json_equals_the_json_dumps_layout(value):
    assert corpus_io.canonical_json(value) == dumps_layout(value)

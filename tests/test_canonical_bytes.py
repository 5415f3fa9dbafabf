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

``corpus_io.save_corpus`` and ``model.corpus_fingerprint`` take the same
bytes from ``corpus_io.corpus_chunks`` a chunk at a time: what the one
writes and both hash must be ``canonical_bytes``, and neither may hold the
whole document at once.
"""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
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
    corpus_fingerprint,
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


def _requirements(texts) -> tuple[Requirement, ...]:
    """One requirement per text, with distinct ids, built in code and never validated."""
    return tuple(Requirement(f"r-{i:05}", RequirementKind.CULTURAL_BASED, "de", f"c-{i}", text, "h", frozenset({"s"}))
                 for i, text in enumerate(texts))


def _saved_bytes(corpus, path, layouts):
    """What save_corpus writes for ``corpus``, after checking its digest against the file and corpus_fingerprint."""
    digest = corpus_io.save_corpus(corpus, path, layouts)
    data = path.read_bytes()
    assert digest == hashlib.sha256(data).hexdigest() == corpus_fingerprint(corpus, layouts)
    return data


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("save") / "corpus.reqcorpus.json"


@pytest.mark.parametrize("shared", [True, False], ids=["shared-memo", "no-memo"])
@settings(max_examples=100, deadline=None)
@given(corpus=_CORPUS)
def test_save_corpus_writes_and_hashes_the_canonical_bytes(corpus, shared, out_path):
    assert _saved_bytes(corpus, out_path, {} if shared else None) == corpus_io.canonical_bytes(corpus)


def test_thousands_of_awkward_records_cross_chunk_boundaries_intact(tmp_path):
    rng = random.Random(0)
    texts = ["".join(rng.choices(_AWKWARD + "ab", k=rng.randrange(12))) for _ in range(3000)]
    corpus = Corpus(jurisdictions=(), sources=tuple(
        SourceItem(f"s-{i:05}", SourceKind.LEGAL, "\u2028", text, text, "\U0001f600", i % 2 == 0)
        for i, text in enumerate(texts[:1000])), requirements=_requirements(texts))
    want = dumps_layout(corpus_to_doc(corpus)).encode("utf-8")
    assert len(list(corpus_io.corpus_chunks(corpus))) > 100
    assert corpus_io.canonical_bytes(corpus) == want
    for layouts in ({}, None):
        assert _saved_bytes(corpus, tmp_path / "corpus.reqcorpus.json", layouts) == want


def test_save_and_fingerprint_never_hold_the_whole_document(tmp_path):
    path = tmp_path / "corpus.reqcorpus.json"
    corpus = Corpus(jurisdictions=(), sources=(), requirements=_requirements(
        f"{i} requires \xe9\U0001f600 " * 30 for i in range(3000)))
    layouts: dict[int, str] = {}
    size = len(_saved_bytes(corpus, path, layouts))  # fills the memo, as the two digests of one change share it
    assert size >= 2_000_000
    peaks = []
    for call in (lambda: corpus_io.save_corpus(corpus, path, layouts), lambda: corpus_fingerprint(corpus, layouts)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < size / 4, (peaks, size)


def test_a_lone_surrogate_stops_the_write_at_the_chunk_that_holds_it(tmp_path):
    # only a corpus built in code can hold one: the loader rejects an unpaired surrogate escape
    path = tmp_path / "corpus.reqcorpus.json"
    corpus = Corpus(jurisdictions=(), sources=(), requirements=_requirements(["text"] * 2000 + ["\ud800"]))
    with pytest.raises(UnicodeEncodeError):
        corpus_io.save_corpus(corpus, path)
    # the file was opened after every piece was rendered, and keeps the chunks before the surrogate's
    written = path.read_bytes()
    whole = dumps_layout(corpus_to_doc(corpus)).encode("utf-8", "surrogatepass")
    assert 0 < len(written) < len(whole) and whole.startswith(written)


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

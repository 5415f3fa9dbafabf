"""The loader's fast record constructors build the same records as ``__init__``.

``model.new_source`` and ``model.new_requirement`` store each field straight
into its slot; the generated ``__init__`` stays the reference. A record built
either way must compare, hash, print, copy by ``dataclasses.replace`` and
refuse writes alike.
"""

import dataclasses
import inspect
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_corpus, random_tree_corpus
from reqlattice import corpus_io, model
from reqlattice.model import Requirement, SourceItem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MAKERS = {SourceItem: model.new_source, Requirement: model.new_requirement}


def _values(record) -> list:
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_fast_constructor_builds_the_init_record(seed, tree):
    rng = random.Random(seed)
    corpus = random_tree_corpus(rng) if tree else random_corpus(rng, with_derivations=True)
    for record in (*corpus.sources, *corpus.requirements):
        cls = type(record)
        values = _values(record)
        made = MAKERS[cls](*values)
        reference = cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), values)})
        assert type(made) is cls
        assert made == reference and reference == made
        assert hash(made) == hash(reference)
        assert repr(made) == repr(reference)
        assert _values(made) == values
        assert dataclasses.replace(made, text="changed") == dataclasses.replace(reference, text="changed")
        assert dataclasses.replace(made) == reference
        assert not hasattr(made, "__dict__")
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, f.name, getattr(made, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(made, f.name)
        assert made.role == reference.role


@pytest.mark.parametrize("cls", sorted(MAKERS, key=lambda c: c.__name__))
def test_maker_stores_every_field_in_field_order(cls):
    # the maker skips __init__, so it would skip a __post_init__ as well
    assert not hasattr(cls, "__post_init__")
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(MAKERS[cls]).parameters) == names
    assert cls.__slots__ == tuple(names)
    # distinct values, so a value stored in another field's slot shows
    made = MAKERS[cls](*(f"value {i}" for i in range(len(names))))
    assert _values(made) == [f"value {i}" for i in range(len(names))]


def _analyze_flat_corpus(tmp_path: Path) -> Path:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    workloads.build("analyze-flat", 0, tmp_path)
    return tmp_path / "flat.reqcorpus.json"


def test_loader_builds_records_without_init(worked_example_path, tmp_path, monkeypatch):
    expected = {path: corpus_io.load_corpus(path) for path in (worked_example_path, _analyze_flat_corpus(tmp_path))}

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.__init__ called")

    monkeypatch.setattr(SourceItem, "__init__", refuse)
    monkeypatch.setattr(Requirement, "__init__", refuse)
    for path, corpus in expected.items():
        loaded = corpus_io.load_corpus(path)
        assert loaded.sources and loaded.requirements
        assert loaded == corpus

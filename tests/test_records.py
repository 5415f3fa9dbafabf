"""Each slotted record has one handwritten ``__init__``, which stores each
field straight into its slot. It must build the record that a generated
frozen-dataclass ``__init__`` builds: the same field values, ``hash``,
``repr`` and ``dataclasses.replace``, refusing writes alike and keeping no
``__dict__``.
"""

import dataclasses
import inspect
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generated_init_record, random_corpus, random_tree_corpus
from reqlattice.model import Requirement, SourceItem

RECORDS = (Requirement, SourceItem)
REFERENCES = {cls: generated_init_record(cls) for cls in RECORDS}


def _values(record) -> list:
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _behaves_like(record, values: list) -> None:
    """``record`` holds ``values`` and, like a generated-``__init__`` record, is frozen and has no ``__dict__``."""
    assert _values(record) == values
    assert not hasattr(record, "__dict__")
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_init_builds_the_generated_init_record(seed, tree):
    rng = random.Random(seed)
    corpus = random_tree_corpus(rng) if tree else random_corpus(rng, with_derivations=True)
    for record in (*corpus.sources, *corpus.requirements):
        cls = type(record)
        values = _values(record)
        kwargs = {f.name: v for f, v in zip(dataclasses.fields(cls), values)}
        changed = _values(dataclasses.replace(record, text="changed"))
        positional, by_name, reference = cls(*values), cls(**kwargs), REFERENCES[cls](**kwargs)
        assert type(positional) is type(by_name) is cls
        assert positional == by_name == record
        for made in (positional, reference):
            _behaves_like(made, values)
            assert hash(made) == hash(record)
            assert repr(made) == repr(record)
            assert made.role == record.role
            assert _values(dataclasses.replace(made)) == values
            assert _values(dataclasses.replace(made, text="changed")) == changed


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_init_stores_every_field_in_its_own_slot(cls):
    # a handwritten __init__ skips a __post_init__, so there must be none
    assert not hasattr(cls, "__post_init__")
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls.__slots__ == tuple(names)
    # distinct values, so a value stored in another field's slot shows
    values = [f"value {i}" for i in range(len(names))]
    _behaves_like(cls(*values), values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_init_signature_is_the_generated_one(cls):
    def shape(init):
        return [(p.name, p.kind, p.default) for p in inspect.signature(init).parameters.values()]

    assert shape(cls.__init__) == shape(REFERENCES[cls].__init__)
    assert [name for name, _, _ in shape(cls)] == [f.name for f in dataclasses.fields(cls)]
    # a record built from its required fields alone takes the defaults
    required = [name for name, _, default in shape(cls) if default is inspect.Parameter.empty]
    values = [f"value {i}" for i in range(len(required))]
    assert _values(cls(*values)) == _values(REFERENCES[cls](*values))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_the_one_init_is_the_handwritten_one(cls):
    # a generated __init__ is compiled from a string, so its file is "<string>"
    assert REFERENCES[cls].__init__.__code__.co_filename == "<string>"
    assert Path(cls.__init__.__code__.co_filename).name == "model.py"

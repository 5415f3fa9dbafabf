"""Sources and requirements are named tuples with no handwritten ``__init__``:
each field is stored in its own tuple position, and the class call takes the
signature that ``collections.namedtuple`` generates for the same fields and
defaults, so a record is built the same from positions as from keywords and
one built from its required fields alone takes the defaults.
"""

import collections
import inspect

import pytest

from reqlattice.model import Requirement, SourceItem

RECORDS = (Requirement, SourceItem)
REFERENCES = {cls: collections.namedtuple(cls.__name__, cls._fields, defaults=tuple(cls._field_defaults.values()))
              for cls in RECORDS}


def _behaves_like(record, values: list) -> None:
    """``record`` holds ``values``, one to a field in field order, is immutable and has no ``__dict__``."""
    assert [getattr(record, name) for name in record._fields] == values
    assert list(record) == values
    assert not hasattr(record, "__dict__")
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_init_stores_every_field_in_its_own_slot(cls):
    # no handwritten __init__ or __post_init__ runs after tuple.__new__
    assert cls.__init__ is tuple.__init__
    assert not hasattr(cls, "__post_init__")
    assert cls.__slots__ == ()
    names = list(cls._fields)
    assert names == list(REFERENCES[cls]._fields)
    # each field reads its own position of the tuple
    for name in names:
        assert type(cls.__dict__[name]) is type(REFERENCES[cls].__dict__[name])
    # distinct values, so a value stored in another field's position shows
    values = [f"value {i}" for i in range(len(names))]
    _behaves_like(cls(*values), values)
    _behaves_like(cls(**dict(zip(names, values))), values)
    _behaves_like(tuple.__new__(cls, values), values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_init_signature_is_the_generated_one(cls):
    def shape(call):
        return [(p.name, p.kind, p.default) for p in inspect.signature(call).parameters.values()]

    assert shape(cls) == shape(REFERENCES[cls])
    assert [name for name, _, _ in shape(cls)] == list(cls._fields)
    # a record built from its required fields alone takes the defaults, the very objects
    required = [name for name, _, default in shape(cls) if default is inspect.Parameter.empty]
    values = [f"value {i}" for i in range(len(required))]
    made = cls(*values)
    assert list(made) == list(REFERENCES[cls](*values))
    assert all(getattr(made, name) is default for name, default in cls._field_defaults.items())

"""Every function the benchmark tracer wraps by name must still exist.

``perfbench/tracing.py`` swaps each ``TARGETS`` entry for a wrapper through
``owner.__dict__``; a renamed or deleted function would break ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, qualname) for module, names in tracing.TARGETS.items() for qualname in names]


@pytest.mark.parametrize(("module", "qualname"), _targets())
def test_target_resolves_to_callable(module, qualname):
    owner_name, _, attr = qualname.rpartition(".")
    owner = importlib.import_module(f"reqlattice.{module}")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(owner.__dict__.get(attr))

"""Every ``.py`` file of the package and of the tests parses as Python 3.10.

3.10 is the ``requires-python`` floor and the oldest Python that CI runs,
so syntax newer than 3.10 should fail here too when the tests run on a newer
Python. ``ast.parse(feature_version=...)`` is best-effort: it rejects some
grammar it knows is newer (``except*``, for one) but not all of it (a
starred subscript such as ``a[*b]``, new in 3.11, still parses), so CI's
3.10 run stays the final check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


@pytest.mark.parametrize("path", sorted([*(ROOT / "src" / "reqlattice").glob("*.py"), *(ROOT / "tests").glob("*.py")]),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_file_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_the_floor_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)

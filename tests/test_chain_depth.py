"""``refines`` chains up to 3000 deep, open and closed, through the CLI.

An open chain validates, and ``optimize`` keeps its head as the strongest
and its tail as the baseline set, globally and in its one jurisdiction,
and removes every other id with the least id above it as witness. A
closed chain exits 1 from both commands with one ``refinement cycle:``
stderr line that walks the whole loop. The ids are shuffled, so the chain
order is not their sort order.
"""

import contextlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from reqlattice import cli


@st.composite
def chains(draw):
    """The chain's ids, head first, and whether its tail refines its head."""
    closed = draw(st.booleans())
    depth = draw(st.just(3000) | st.integers(2 if closed else 1, 3000))  # the full depth, open and closed
    ids = [f"r{i:04d}" for i in range(depth)]
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(ids)
    return ids, closed


def _run(path: Path, command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([command, "--corpus", str(path), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


@given(chains())
@settings(max_examples=12, deadline=None)
def test_chain_through_validate_and_optimize(chain):
    ids, closed = chain
    refines = [[a, b] for a, b in zip(ids, ids[1:])] + ([[ids[-1], ids[0]]] if closed else [])
    doc = {
        "formatVersion": 1,
        "jurisdictions": [{"id": "nat", "name": "N", "level": "national"}],
        "requirements": [{"id": i, "kind": "functional", "jurisdiction": "nat", "conceptKey": i, "text": i}
                         for i in ids],
        "relations": {"refines": refines},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.reqcorpus.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        validated, optimized = _run(path, "validate"), _run(path, "optimize")

    if closed:
        for code, out, err in (validated, optimized):
            assert (code, out) == (1, "") and err.count("\n") == 1
            assert err.startswith("reqlattice: refinement cycle: ")
            loop = err.removeprefix("reqlattice: refinement cycle: ").rstrip("\n").split(" -> ")
            # every id once, each step a declared pair, back to where it started
            assert loop[0] == loop[-1] and sorted(loop[:-1]) == sorted(ids)
            assert {(a, b) for a, b in zip(loop, loop[1:])} == {tuple(p) for p in refines}
        return

    assert (validated[0], validated[2]) == (0, "")
    assert json.loads(validated[1])["body"] == {"valid": True, "warnings": []}
    code, out, err = optimized
    assert (code, err) == (0, "")
    body = json.loads(out)["body"]
    # each removed id's witness is the least id of those that refine it
    witnesses = dict(zip(ids[1:], itertools.accumulate(ids[:-1], min)))
    for view in (body["global"], body["perJurisdiction"]["nat"]["functional"]):
        assert view["strongest"] == [ids[0]] and view["baseline"] == [ids[-1]]
        assert view["removed"] == witnesses

"""The roadmap's 584-node figures tree: every envelope keeps its digest,
and the org-level partition keeps its memory peak.

The tree is ``perfbench/corpora.py``'s ``tree_corpus`` drawn from a seed-0
``random.Random``: 8 nationals × 8 states × 8 orgs, ``common=200``,
``local=8``, ``chains=8``, ``depth=240``, ``contradicts=30``, ``stem=24``.
The generator file is loaded by path and only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import random
import tracemalloc
from pathlib import Path

import pytest

from reqlattice import cli

CORPORA = Path(__file__).resolve().parent.parent / "perfbench" / "corpora.py"

# the sha256 of each command's JSON stdout, as every earlier version printed it
DIGESTS = [
    ('hierarchy', '1d4fa2644ced8e9c6ded5811426ff784c08d4a0213a7aeaf2f88ac7f4af98091'),
    ('validate', 'a69707b74ae2705baecbf24e3982acb3e836c31c045ca4f5f9a88a61ca1d8857'),
    ('validate --level national', 'a69707b74ae2705baecbf24e3982acb3e836c31c045ca4f5f9a88a61ca1d8857'),
    ('validate --level state', 'a69707b74ae2705baecbf24e3982acb3e836c31c045ca4f5f9a88a61ca1d8857'),
    ('validate --level org', 'a69707b74ae2705baecbf24e3982acb3e836c31c045ca4f5f9a88a61ca1d8857'),
    ('partition', '4fde5c40ad4f7195366c0171c69ce37b95253b6587deb841c50b3d3ac28aeb4e'),
    ('partition --level national', '05401a651487b11c7589d3842da70cd1622a707acbf31aef44c061e3dd53eef3'),
    ('partition --level state', 'd72a87c5071c2b47b3ffa368ce72ee8b133ca9032e8198861c13ed8df6c470c6'),
    ('partition --level org', '20f36965723e080e67579d66c273dbf98ea36b3aa002e2cf37ac7b5af2c9f3a9'),
    ('scenario', '99ac9593de9bef24247a35c94eebf811a37d561a351d82d9a5b6dc7b65f84a2d'),
    ('scenario --level national', '092317e888c5086c97c6d7766804d8872ab1ffa2488ffda0e585f127e0b17e4a'),
    ('scenario --level state', '092317e888c5086c97c6d7766804d8872ab1ffa2488ffda0e585f127e0b17e4a'),
    ('scenario --level org', '092317e888c5086c97c6d7766804d8872ab1ffa2488ffda0e585f127e0b17e4a'),
]

# the tracemalloc peak of partition --level org, in MiB: 28.0 when each org's
# view copied every item it inherits, 23.6 with views built from shared segments
ORG_PARTITION_PEAK_MIB = 26.0


@pytest.fixture(scope="module")
def tree_path(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("perfbench_corpora", CORPORA)
    corpora = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpora)
    doc = corpora.tree_corpus(random.Random(0), nationals=8, states=8, orgs=8, common=200, local=8,
                              chains=8, depth=240, contradicts=30, stem=24)
    path = tmp_path_factory.mktemp("figures") / "tree-584.reqcorpus.json"
    path.write_text(corpora.dumps(doc), encoding="utf-8")
    return path


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == cli.EXIT_OK
    return out.getvalue()


def test_every_envelope_keeps_its_digest(tree_path):
    got = [(command, hashlib.sha256(_stdout([*command.split(), "--corpus", str(tree_path), "--format", "json"])
                                   .encode("utf-8")).hexdigest()) for command, _ in DIGESTS]
    assert got == DIGESTS


def test_org_partition_peak_stays_below_its_bound(tree_path):
    argv = ["partition", "--level", "org", "--corpus", str(tree_path), "--format", "json"]
    _stdout(argv)  # warm: lazily built module state is not the command's
    tracemalloc.start()
    try:
        _stdout(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ORG_PARTITION_PEAK_MIB * 2**20, peak / 2**20

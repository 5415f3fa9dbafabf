"""Mutated worked-example documents never break the exit-code contract.

Each example takes the shipped corpus, change set or alternatives file, with
one fixed national/state/org forest drawn as the corpus in place of the worked
example about half the time, so that mutations also reach ancestor chains and
every ``--level`` frontier. It applies a few random mutations (a dropped field
or element, a retyped or replaced value, every number of a subtree scaled, a
duplicated element, an extra field) and runs one command on it through
``cli.run``. Whatever the input, the command must end in a documented exit
code, print no traceback and never print a NaN. A second family writes what
``json.dumps`` never does (a non-finite number literal, 3000-deep nesting, a
truncated text) or closes a ``refines`` cycle; each must end in exit 1 with
one stderr line.
"""

import contextlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import corpus_to_doc, random_tree_corpus
from reqlattice import cli

CORPORA = Path(__file__).resolve().parent.parent / "corpora"
DOCS = {suffix: json.loads((CORPORA / f"worked-example.{suffix}.json").read_text())
        for suffix in ("reqcorpus", "reqchange", "reqalts")}
# the shipped change set only modifies; these give the fuzz the other op shapes
DOCS["reqchange"]["ops"] += [
    {"op": "add", "target": "req-de-export", "payload": {
        "role": "requirement", "kind": "functional", "jurisdiction": "de", "conceptKey": "data-export",
        "text": "The system shall export personal data on request.", "derivedFrom": []}},
    {"op": "add", "target": "src-fr-holidays", "payload": {
        "role": "source", "kind": "cultural", "jurisdiction": "fr", "conceptKey": "public-holidays",
        "text": "Public holidays are days of rest."}},
    {"op": "remove", "target": "req-fr-salutation"},
]
# two national roots over two states and an org, with refines pairs across the forest and one contradicts pair
TREE = corpus_to_doc(random_tree_corpus(random.Random(5)))

# what a command reads besides the corpus
COMMANDS = {
    "validate": [], "partition": [], "scenario": [], "optimize": [], "conflicts": [],
    "hierarchy": [], "change": ["--changes", "reqchange"], "rank": ["--alts", "reqalts"],
}
FLAGS = {
    "validate": ["--level", "--strict"], "partition": ["--level", "--strict"], "scenario": ["--level"],
    "optimize": ["--strict"], "conflicts": ["--strict"], "hierarchy": ["--strict"],
    "change": [], "rank": [],
}


def _strings(doc) -> set[str]:
    if isinstance(doc, dict):
        return set(doc).union(*map(_strings, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_strings, doc))
    return {doc} if isinstance(doc, str) else set()


WORDS = sorted(set().union(*map(_strings, [*DOCS.values(), TREE]))
               | {"national", "state", "organisational", "legal", "cultural", "legalBased",
                  "culturalBased", "functional", "general", "specific", "add", "remove", "modify",
                  "source", "requirement", "role", "adoptedBy", "payload", "derivedFrom", "isStatic",
                  "contentHash", "parent", "weights", "refines", "contradicts"})
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0, 0.0, 1, -1, 1e308, 5e-324]),
    st.sampled_from(WORDS), st.text(alphabet="xyz-", max_size=3),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.sampled_from(WORDS), inner, max_size=2), max_leaves=4)


def _locations(doc, path=()):
    """The path to every value in ``doc``, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, (*path, key))


def _scaled(doc, factor):
    if isinstance(doc, dict):
        return {k: _scaled(v, factor) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_scaled(v, factor) for v in doc]
    return doc * factor if isinstance(doc, (int, float)) and not isinstance(doc, bool) else doc


def _mutate(data, doc):
    path = data.draw(st.sampled_from(list(_locations(doc))))
    if not path:
        return data.draw(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["drop", "replace", "scale", "duplicate", "extra"]))
    if action == "drop":
        del parent[key]
    elif action == "replace":
        parent[key] = data.draw(VALUES)
    elif action == "scale":  # every number below the location, e.g. all scores of an alternative
        parent[key] = _scaled(parent[key], data.draw(st.sampled_from([1e300, 1e-300, -1.0, 0.0])))
    elif action == "duplicate" and isinstance(parent, list):
        parent.append(json.loads(json.dumps(parent[key])))
    elif isinstance(parent[key], dict):
        parent[key][data.draw(st.sampled_from(WORDS))] = data.draw(VALUES)
    return doc


def _run(data, command, texts):
    """Run ``command`` on the documents ``texts`` (suffix -> file text) with
    drawn flags; returns the exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for suffix, text in texts.items():
            paths[suffix] = str(Path(tmp) / f"fuzz.{suffix}.json")
            Path(paths[suffix]).write_text(text, encoding="utf-8")
        argv = [command, "--corpus", paths["reqcorpus"],
                *(paths.get(a, a) for a in COMMANDS[command]),
                "--format", data.draw(st.sampled_from(["text", "json"]))]
        for flag in FLAGS[command]:
            if data.draw(st.booleans()):
                argv += ["--strict"] if flag == "--strict" else [flag, data.draw(st.sampled_from(
                    ["national", "state", "org"]))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _base(data) -> dict:
    """The shipped documents, with the worked example or the tree as the corpus."""
    return {**DOCS, "reqcorpus": data.draw(st.sampled_from([DOCS["reqcorpus"], TREE]))}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_keep_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    mutated = data.draw(st.sampled_from(["reqcorpus", *COMMANDS[command][1:]]))
    docs = {suffix: json.loads(json.dumps(doc)) for suffix, doc in _base(data).items()}
    for _ in range(data.draw(st.integers(1, 3))):
        docs[mutated] = _mutate(data, docs[mutated])
    code, out, err = _run(data, command, {suffix: json.dumps(doc) for suffix, doc in docs.items()})

    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    assert not re.search(r"\b(NaN|nan)\b", out)
    if code == 1:
        assert err.count("\n") == 1 or err.startswith("usage: ")


# ---------------------------------------------------------------------------
# inputs that json.dumps cannot write

SLOT = "\x00slot\x00"  # a string no document holds, replaced in the dumped text


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _splice(doc, path, raw: str) -> str:
    """``doc`` as JSON text, with ``raw`` in place of the value at ``path``."""
    if not path:
        return raw
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = SLOT
    return json.dumps(doc).replace(json.dumps(SLOT), raw)


def _raw_text(data, doc, action: str) -> str:
    if action == "non-finite":  # formatVersion is a number in every document
        numbers = [path for path in _locations(doc) if path and isinstance(_at(doc, path), (int, float))
                   and not isinstance(_at(doc, path), bool)]
        return _splice(doc, data.draw(st.sampled_from(numbers)),
                       data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"])))
    if action == "nested":
        return _splice(doc, data.draw(st.sampled_from(list(_locations(doc)))), "[" * 3000 + "]" * 3000)
    text = json.dumps(doc)
    return text[:data.draw(st.integers(0, len(text) - 1))]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_raw_text_and_cyclic_documents_exit_1(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    mutated = data.draw(st.sampled_from(["reqcorpus", *COMMANDS[command][1:]]))
    action = data.draw(st.sampled_from(
        ["non-finite", "nested", "truncated", *(["cycle"] if mutated == "reqcorpus" else [])]))
    base = _base(data)
    texts = {suffix: json.dumps(doc) for suffix, doc in base.items()}
    if action == "cycle":  # the reversed copy of a refines pair closes a two-cycle
        doc = json.loads(texts["reqcorpus"])
        pairs = doc["relations"]["refines"]
        pairs.append(data.draw(st.sampled_from(pairs))[::-1])
        texts["reqcorpus"] = json.dumps(doc)
    else:
        texts[mutated] = _raw_text(data, base[mutated], action)
    code, out, err = _run(data, command, texts)

    assert (code, out) == (1, ""), err
    assert err.count("\n") == 1 and err.startswith("reqlattice: ")
    if action == "cycle":
        assert err.startswith("reqlattice: refinement cycle: ")

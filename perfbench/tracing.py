"""Spans and counts around the package's public functions, from outside.

``Tracer.install`` swaps every binding of each traced function for a
wrapper: the defining module's attribute, the copies other modules made with
``from x import f``, and class attributes for methods. ``uninstall`` puts
the originals back, so untraced passes run the unmodified program. Spans are
kept in memory as ``(name, start, end, parent index, op id)`` and written out
once at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> traced functions ("Class.method" for methods)
TARGETS = {
    "corpus_io": ["load_corpus", "parse_corpus", "canonical_bytes", "save_corpus",
                  "load_change_set", "load_alternatives"],
    "model": ["validate_corpus", "corpus_fingerprint", "Corpus.requirement_map",
              "Corpus.ancestors"],
    "relations": ["refinement_closure", "derive_contradictions", "find_conflicts"],
    "partition": ["partition_requirements", "partition_sources", "check_elaboration",
                  "check_specific_contradiction_condition", "Partition.owner_of"],
    "optimize": ["global_view", "optimize"],
    "hierarchy": ["effective_requirements", "level_requirement_view", "level_source_view",
                  "validate_hierarchy"],
    "changes": ["apply_change_set", "classify_change", "reuse_hints"],
    "topsis": ["build_conflict_matrix", "rank_alternatives"],
    "reports": ["envelope_json"],
    "cli": ["_component_scope_warnings", "_level_partitions"],
}

_CASE_NAMES = {"1a": "1a", "1b": "1b", "2a": "2a", "2b": "2b", "ADD": "add",
               "REMOVE": "remove", "SOURCE_CHANGE": "source"}


def _observe(name, args, result, counts, distinct):
    """Layer-specific counts taken from a traced call's arguments and result."""
    if name == "model.corpus_fingerprint":
        distinct[name].add(result)
    elif name == "relations.refinement_closure":
        counts[name + ".pairs"] += len(result)
        distinct[name].add((hash(args[0].refines), hash(frozenset(args[1]))))
    elif name == "relations.derive_contradictions":
        counts[name + ".pairs"] += len(result)
    elif name == "hierarchy.effective_requirements":
        distinct[name].add((id(args[0]), args[1]))
    elif name == "changes.apply_change_set":
        for record in result[1].per_op:
            counts["changes.case." + _CASE_NAMES[record.case_code]] += 1
    elif name == "topsis.build_conflict_matrix":
        counts["topsis.criteria"] += len(result.criteria)
    elif name == "reports.envelope_json":
        counts["reports.bytes"] += len(result.encode("utf-8"))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._op_labels: dict[int, str] = {}
        self._op_wall: dict[int, float] = {}
        self._taken = 0
        self._counts = defaultdict(float)
        self._distinct = defaultdict(set)  # reset per op: re-use within one command is waste
        self._distinct_total = defaultdict(int)
        self._restore: list = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n.startswith("reqlattice.") and m}
        for short, names in TARGETS.items():
            module = mods[f"reqlattice.{short}"]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                wrapper = self._wrap(f"{short}.{qual}", original)
                if owner_name:
                    self._swap(owner, attr, original, wrapper)
                    continue
                for other in mods.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._swap(other, key, original, wrapper)

    def _swap(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts, distinct = self._counts, self._distinct
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            counts[name + ".calls"] += 1
            _observe(name, args, result, counts, distinct)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- ops ----------------------------------------------------------------
    def begin_op(self, label: str) -> None:
        self._op += 1
        self._op_labels[self._op] = label

    def end_op(self, wall_s: float) -> None:
        self._op_wall[self._op] = wall_s
        for name, keys in self._distinct.items():
            self._distinct_total[name] += len(keys)
        self._distinct.clear()

    def take(self) -> tuple[dict[str, float], dict[str, dict[str, int]]]:
        """Per-layer metrics over the spans and counts since the last take,
        and the call count of each traced function per command."""
        first = self._taken
        spans = self.spans[first:]
        self._taken = len(self.spans)
        child = defaultdict(float)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        covered = defaultdict(float)
        per_command = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, parent, op) in enumerate(spans, start=first):
            out[name + ".s"] += end - start - child[i]
            per_command[self._op_labels[op]][name] += 1
            if parent < 0:
                covered[op] += end - start
        out["cli.self_s"] = sum(wall - covered[op] for op, wall in self._op_wall.items())
        out.update(self._counts)
        for name, n in self._distinct_total.items():
            out[name + ".distinct_ratio"] = n / self._counts[name + ".calls"]
        self._op_wall.clear()
        self._counts.clear()
        self._distinct_total.clear()
        return dict(out), {label: dict(calls) for label, calls in per_command.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

"""A fixed reference task that measures how fast the host runs Python now.

On a shared host the speed of the same code swings by up to a factor of two
within seconds and drifts over minutes. The benchmark runs this task before
the first command of a pass and after every command, and divides each
command's wall time by the mean of the two reference times around it: the
ratio is the command's cost in units of the reference task, which the
host's speed at that moment largely cancels out of. Ratios are turned back
into seconds with ``REF_S``, so a reported time reads as seconds on a host
that runs the reference task in ``REF_S`` seconds.

The task uses the same kinds of work as the program (string-keyed dicts and
sets, graph reachability, sorting, JSON encoding and decoding, sha256) and
never calls the program. Its inputs are fixed and do not depend on the
workload seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

REF_S = 0.1  # seconds that one reference task is reported as taking

_N = 2000
_rng = random.Random(20191011)
_IDS = [f"req-{i:05d}" for i in range(_N)]
_EDGES = {x: [_IDS[_rng.randrange(_N)] for _ in range(2)] for x in _IDS}
_DOC = {x: {"text": f"the operator shall keep record {i}", "kind": f"k{i % 17}",
            "refines": _EDGES[x]} for i, x in enumerate(_IDS)}


def _task() -> int:
    reach = 0
    for x in _IDS[:150]:
        seen, stack = {x}, [x]
        while stack:
            for y in _EDGES[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach += len(seen)
    text = json.dumps(_DOC, sort_keys=True)
    back = json.loads(text)
    order = sorted(back, key=lambda k: (back[k]["kind"], k))
    return reach + len(order) + len(hashlib.sha256(text.encode()).hexdigest())


def measure() -> float:
    """Wall seconds of one reference task."""
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start

"""Closeness-to-ideal ranking of candidate conflict resolutions.

Classical variant: vector normalization per criterion, weighted columns,
ideal/anti-ideal points from column extremes, Euclidean distances, closeness
``d- / (d+ + d-)``. Criteria whose column cannot discriminate (zero variance)
are dropped before ranking and reported in ``Ranking.dropped_criteria``.
Each float sum keeps the order numpy gave it, so closeness values keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple

from reqlattice.corpus_io import AlternativesFile
from reqlattice.errors import DegenerateMatrixError, UnknownRequirementError
from reqlattice.model import Corpus
from reqlattice.relations import find_conflicts


def _pairwise_sum(terms: list[float]) -> float:
    """numpy's ``add.reduce`` of a contiguous run: eight strided accumulators, halved above 128 terms."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    r = [reduce(add, terms[j:n - n % 8:8], 0.0) for j in range(8)]
    return reduce(add, terms[n - n % 8:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


class Criterion(NamedTuple):
    id: str
    weight: float
    direction: str  # "benefit" | "cost"


@dataclass(frozen=True)
class DecisionMatrix:
    alternatives: tuple[str, ...]
    criteria: tuple[Criterion, ...]
    values: tuple[tuple[float, ...], ...]  # rows = alternatives, columns = criteria

    def __post_init__(self):
        values = tuple(tuple(float(x) for x in row) for row in self.values)
        if len(values) != len(self.alternatives) or any(len(row) != len(self.criteria) for row in values):
            raise ValueError("matrix shape does not match alternative/criterion counts")
        if not all(math.isfinite(x) for row in values for x in row):
            raise ValueError("matrix values must be finite")
        object.__setattr__(self, "values", values)


def make_matrix(alternatives: list[str], criteria: list[tuple[str, float, str]], values) -> DecisionMatrix:
    """Build a matrix, normalizing weights to sum to 1."""
    raw = [w for _, w, _ in criteria]
    if any(w < 0 for w in raw):
        raise ValueError("criterion weights must be nonnegative")
    # dividing by a power of two near the largest weight is exact, so the
    # normalized weights do not change, but their sum cannot overflow
    scale = math.ldexp(1.0, math.frexp(max(raw, default=0.0))[1] - 1)
    total = reduce(add, (w / scale for w in raw), 0.0)  # left to right: builtin sum compensates from 3.12
    if criteria and total <= 0:  # no criteria at all is rejected at rank time
        raise DegenerateMatrixError("every criterion has weight 0; nothing to rank by")
    crits = tuple(Criterion(cid, w / scale / total, direction) for (cid, w, direction) in criteria)
    for c in crits:
        if c.direction not in ("benefit", "cost"):
            raise ValueError(f"criterion {c.id!r} direction must be benefit or cost")
    return DecisionMatrix(alternatives=tuple(alternatives), criteria=crits, values=values)


class Ranking(NamedTuple):
    entries: tuple[tuple[str, float], ...]  # (alternative id, closeness), best first
    dropped_criteria: tuple[str, ...]


def rank_alternatives(m: DecisionMatrix) -> Ranking:
    if len(m.alternatives) == 0 or len(m.criteria) == 0:
        raise DegenerateMatrixError("matrix has no alternatives or no criteria")
    if len(m.alternatives) == 1:
        # a single candidate is trivially the closest to the ideal
        return Ranking(entries=((m.alternatives[0], 1.0),), dropped_criteria=())

    kept = [(c, column) for c, column in zip(m.criteria, zip(*m.values)) if max(column) > min(column)]
    dropped = tuple(c.id for c, column in zip(m.criteria, zip(*m.values)) if max(column) <= min(column))
    if not kept:
        raise DegenerateMatrixError("every criterion column is constant; nothing discriminates")
    total = _pairwise_sum([c.weight for c, _ in kept])
    if total <= 0:
        raise DegenerateMatrixError("every criterion that discriminates has weight 0; nothing to rank by")

    weighted = []
    for c, column in kept:
        # dividing a column by a power of two near its largest magnitude is exact,
        # so normal-range results do not change, but the squares in the column
        # norm can then neither overflow nor underflow
        scale = math.ldexp(1.0, math.frexp(max(map(abs, column)))[1] - 1)
        column = [x / scale for x in column]
        norm = math.sqrt(_pairwise_sum([x * x for x in column]))
        weighted.append([x / norm * (c.weight / total) for x in column])
    ideal = [max(w) if c.direction == "benefit" else min(w) for (c, _), w in zip(kept, weighted)]
    anti = [min(w) if c.direction == "benefit" else max(w) for (c, _), w in zip(kept, weighted)]
    rows = list(zip(*weighted))
    d_plus = [math.sqrt(reduce(add, [(x - p) * (x - p) for x, p in zip(row, ideal)], 0.0)) for row in rows]
    d_minus = [math.sqrt(reduce(add, [(x - p) * (x - p) for x, p in zip(row, anti)], 0.0)) for row in rows]
    if not all(dp + dm > 0.0 for dp, dm in zip(d_plus, d_minus)):
        # scores a rounding step apart can coincide once normalized and weighted
        raise DegenerateMatrixError("the scores differ too little to rank")
    closeness = [dm / (dp + dm) for dp, dm in zip(d_plus, d_minus)]

    entries = sorted(zip(m.alternatives, closeness), key=lambda entry: (-entry[1], entry[0]))
    return Ranking(entries=tuple(entries), dropped_criteria=dropped)


def build_conflict_matrix(corpus: Corpus, alts: AlternativesFile) -> DecisionMatrix:
    """Decision matrix over the corpus's conflicting requirements.

    Criteria are the requirements in the global conflict set (benefit
    direction; equal weights unless the alternatives file overrides them);
    values are each alternative's satisfaction scores, defaulting to 0.
    """
    conflict_ids = sorted({i for record in find_conflicts(corpus) for i in record.pair})
    conflict_set = set(conflict_ids)
    for rid in (*(rid for alt in alts.alternatives for rid in alt.satisfies), *alts.weights):
        if rid not in conflict_set:
            raise UnknownRequirementError(rid)

    criteria = [(rid, alts.weights.get(rid, 1.0), "benefit") for rid in conflict_ids]
    values = [[alt.satisfies.get(rid, 0.0) for rid in conflict_ids] for alt in alts.alternatives]
    return make_matrix([a.id for a in alts.alternatives], criteria, values)

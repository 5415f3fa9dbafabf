"""Closeness-to-ideal ranking of candidate conflict resolutions.

Classical variant: vector normalization per criterion, weighted columns,
ideal/anti-ideal points from column extremes, Euclidean distances, closeness
``d- / (d+ + d-)``. Criteria whose column cannot discriminate (zero variance)
are dropped before ranking and reported in ``Ranking.dropped_criteria``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from reqlattice.corpus_io import AlternativesFile
from reqlattice.errors import DegenerateMatrixError, UnknownRequirementError
from reqlattice.model import Corpus
from reqlattice.relations import find_conflicts

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Criterion:
    id: str
    weight: float
    direction: str  # "benefit" | "cost"


@dataclass(frozen=True)
class DecisionMatrix:
    alternatives: tuple[str, ...]
    criteria: tuple[Criterion, ...]
    values: np.ndarray  # rows = alternatives, columns = criteria

    def __post_init__(self):
        import numpy as np  # imported where an array is touched, so only `rank` loads numpy
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.alternatives), len(self.criteria)):
            raise ValueError("matrix shape does not match alternative/criterion counts")
        if not np.all(np.isfinite(values)):
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
    total = sum(w / scale for w in raw)
    if criteria and total <= 0:  # no criteria at all is rejected at rank time
        raise DegenerateMatrixError("every criterion has weight 0; nothing to rank by")
    crits = tuple(Criterion(cid, w / scale / total, direction) for (cid, w, direction) in criteria)
    for c in crits:
        if c.direction not in ("benefit", "cost"):
            raise ValueError(f"criterion {c.id!r} direction must be benefit or cost")
    return DecisionMatrix(alternatives=tuple(alternatives), criteria=crits, values=values)


@dataclass(frozen=True)
class Ranking:
    entries: tuple[tuple[str, float], ...]  # (alternative id, closeness), best first
    dropped_criteria: tuple[str, ...]


def rank_alternatives(m: DecisionMatrix) -> Ranking:
    import numpy as np
    if len(m.alternatives) == 0 or len(m.criteria) == 0:
        raise DegenerateMatrixError("matrix has no alternatives or no criteria")
    if len(m.alternatives) == 1:
        # a single candidate is trivially the closest to the ideal
        return Ranking(entries=((m.alternatives[0], 1.0),), dropped_criteria=())

    values = m.values
    keep = [j for j in range(values.shape[1]) if values[:, j].max() > values[:, j].min()]
    dropped = tuple(m.criteria[j].id for j in range(values.shape[1]) if j not in keep)
    if not keep:
        raise DegenerateMatrixError("every criterion column is constant; nothing discriminates")
    weights = np.array([m.criteria[j].weight for j in keep])
    if weights.sum() <= 0:
        raise DegenerateMatrixError("every criterion that discriminates has weight 0; nothing to rank by")

    values = values[:, keep]
    # dividing a column by a power of two near its largest magnitude is exact,
    # so normal-range results do not change, but the squares in the column
    # norm can then neither overflow nor underflow
    values = values / np.ldexp(1.0, np.frexp(np.abs(values).max(axis=0))[1] - 1)
    weights = weights / weights.sum()
    benefit = np.array([m.criteria[j].direction == "benefit" for j in keep])
    weighted = values / np.linalg.norm(values, axis=0) * weights

    ideal = np.where(benefit, weighted.max(axis=0), weighted.min(axis=0))
    anti = np.where(benefit, weighted.min(axis=0), weighted.max(axis=0))
    d_plus = np.linalg.norm(weighted - ideal, axis=1)
    d_minus = np.linalg.norm(weighted - anti, axis=1)
    if not np.all(d_plus + d_minus > 0.0):
        # scores a rounding step apart can coincide once normalized and weighted
        raise DegenerateMatrixError("the scores differ too little to rank")
    closeness = d_minus / (d_plus + d_minus)

    order = sorted(range(len(m.alternatives)), key=lambda i: (-closeness[i], m.alternatives[i]))
    entries = tuple((m.alternatives[i], float(closeness[i])) for i in order)
    return Ranking(entries=entries, dropped_criteria=dropped)


def build_conflict_matrix(corpus: Corpus, alts: AlternativesFile) -> DecisionMatrix:
    """Decision matrix over the corpus's conflicting requirements.

    Criteria are the requirements in the global conflict set (benefit
    direction; equal weights unless the alternatives file overrides them);
    values are each alternative's satisfaction scores, defaulting to 0.
    """
    import numpy as np
    conflict_ids = sorted({i for record in find_conflicts(corpus) for i in record.pair})
    conflict_set = set(conflict_ids)
    for rid in (*(rid for alt in alts.alternatives for rid in alt.satisfies), *alts.weights):
        if rid not in conflict_set:
            raise UnknownRequirementError(rid)

    criteria = [(rid, alts.weights.get(rid, 1.0), "benefit") for rid in conflict_ids]
    # the explicit shape keeps a file without alternatives a 0 x n matrix and a
    # conflict-free corpus an n x 0 one; rank_alternatives rejects both as degenerate
    values = np.array([
        [alt.satisfies.get(rid, 0.0) for rid in conflict_ids]
        for alt in alts.alternatives
    ]).reshape(len(alts.alternatives), len(conflict_ids))
    return make_matrix([a.id for a in alts.alternatives], criteria, values)

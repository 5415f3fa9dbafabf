import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import numpy_topsis
from reqlattice.corpus_io import Alternative, AlternativesFile
from reqlattice.errors import DegenerateMatrixError, ReqLatticeError, UnknownRequirementError
from reqlattice.topsis import build_conflict_matrix, make_matrix, rank_alternatives

# Frozen before the implementation existed: step-by-step arithmetic on the
# 3x3 fixture below (vector normalization, weighting, ideal/anti-ideal,
# Euclidean distances).
FIXTURE_VALUES = [[7.0, 9.0, 9.0],
                  [8.0, 7.0, 8.0],
                  [9.0, 6.0, 8.0]]
FIXTURE_CRITERIA = [("quality", 0.5, "benefit"), ("coverage", 0.3, "benefit"), ("cost", 0.2, "cost")]
FIXTURE_CLOSENESS = {"a1": 0.48858858703256586,
                     "a2": 0.43336083731966374,
                     "a3": 0.511411412967434}


class TestRankAlternatives:
    def test_dominant_alternative(self):
        m = make_matrix(["a1", "a2"], [("c", 1.0, "benefit")], [[2.0], [1.0]])
        ranking = rank_alternatives(m)
        assert ranking.entries == (("a1", 1.0), ("a2", 0.0))

    def test_identical_rows_tie(self):
        m = make_matrix(["a1", "a2", "a3"],
                        [("c1", 0.6, "benefit"), ("c2", 0.4, "cost")],
                        [[1.0, 2.0], [1.0, 2.0], [3.0, 1.0]])
        ranking = rank_alternatives(m)
        scores = dict(ranking.entries)
        assert scores["a1"] == scores["a2"]
        # equal closeness ties break by alternative id
        order = [a for a, _ in ranking.entries]
        assert order.index("a1") < order.index("a2")

    def test_hand_computed_fixture(self):
        m = make_matrix(["a1", "a2", "a3"], FIXTURE_CRITERIA, FIXTURE_VALUES)
        ranking = rank_alternatives(m)
        scores = dict(ranking.entries)
        for aid, expected in FIXTURE_CLOSENESS.items():
            assert scores[aid] == pytest.approx(expected, abs=1e-9)
        assert [a for a, _ in ranking.entries] == ["a3", "a1", "a2"]

    def test_closeness_bounds(self):
        rng = random.Random(20240824)
        for _ in range(50):
            n, m_ = rng.randint(2, 6), rng.randint(1, 4)
            values = [[rng.uniform(0, 10) for _ in range(m_)] for _ in range(n)]
            crits = [(f"c{j}", rng.uniform(0.1, 1.0),
                      rng.choice(["benefit", "cost"])) for j in range(m_)]
            try:
                ranking = rank_alternatives(make_matrix([f"a{i}" for i in range(n)], crits, values))
            except DegenerateMatrixError:
                continue
            assert all(0.0 <= c <= 1.0 for _, c in ranking.entries)

    def test_column_scaling_invariance(self):
        rng = random.Random(20240825)
        for _ in range(50):
            n, m_ = rng.randint(2, 5), rng.randint(2, 4)
            values = np.array([[rng.uniform(1, 10) for _ in range(m_)] for _ in range(n)])
            crits = [(f"c{j}", rng.uniform(0.1, 1.0),
                      rng.choice(["benefit", "cost"])) for j in range(m_)]
            base = rank_alternatives(make_matrix([f"a{i}" for i in range(n)], crits, values))
            scaled = values.copy()
            col = rng.randrange(m_)
            scaled[:, col] *= rng.uniform(0.1, 50)
            other = rank_alternatives(make_matrix([f"a{i}" for i in range(n)], crits, scaled))
            for (aid1, c1), (aid2, c2) in zip(base.entries, other.entries):
                assert aid1 == aid2
                assert c1 == pytest.approx(c2, abs=1e-12)

    def test_row_permutation_equivariance(self):
        m1 = make_matrix(["a1", "a2", "a3"], FIXTURE_CRITERIA, FIXTURE_VALUES)
        m2 = make_matrix(["a3", "a1", "a2"], FIXTURE_CRITERIA,
                         [FIXTURE_VALUES[2], FIXTURE_VALUES[0], FIXTURE_VALUES[1]])
        assert rank_alternatives(m1).entries == rank_alternatives(m2).entries

    def test_single_alternative_scores_one(self):
        m = make_matrix(["only"], [("c", 1.0, "benefit")], [[5.0]])
        assert rank_alternatives(m).entries == (("only", 1.0),)

    def test_all_columns_constant_is_degenerate(self):
        m = make_matrix(["a1", "a2"], [("c", 1.0, "benefit")], [[3.0], [3.0]])
        with pytest.raises(DegenerateMatrixError):
            rank_alternatives(m)

    def test_zero_variance_column_dropped_with_warning(self):
        m = make_matrix(["a1", "a2"],
                        [("flat", 0.5, "benefit"), ("c", 0.5, "benefit")],
                        [[3.0, 1.0], [3.0, 2.0]])
        ranking = rank_alternatives(m)
        assert ranking.dropped_criteria == ("flat",)
        assert [a for a, _ in ranking.entries] == ["a2", "a1"]

    def test_all_weights_zero_is_degenerate(self):
        with pytest.raises(DegenerateMatrixError):
            make_matrix(["a1", "a2"], [("c1", 0.0, "benefit"), ("c2", 0.0, "benefit")],
                        [[1.0, 2.0], [2.0, 1.0]])

    def test_no_criteria_is_degenerate_at_rank_time(self):
        # all-zero weights raise in make_matrix (above); no criteria at all builds and fails to rank
        m = make_matrix(["a1", "a2"], [], np.zeros((2, 0)))
        assert (m.criteria, m.values) == ((), ((), ()))
        with pytest.raises(DegenerateMatrixError, match="no alternatives or no criteria"):
            rank_alternatives(m)

    def test_zero_weight_on_every_varying_criterion_is_degenerate(self):
        m = make_matrix(["a1", "a2"],
                        [("flat", 1.0, "benefit"), ("c", 0.0, "benefit")],
                        [[3.0, 1.0], [3.0, 2.0]])
        with pytest.raises(DegenerateMatrixError):
            rank_alternatives(m)

    @pytest.mark.parametrize("factor", [1e300, 1e-300, 2.0 ** -1070])
    def test_extreme_magnitudes_rank_like_the_fixture(self, factor):
        # the squares in the column norms would overflow or underflow
        m = make_matrix(["a1", "a2", "a3"], FIXTURE_CRITERIA, np.array(FIXTURE_VALUES) * factor)
        assert dict(rank_alternatives(m).entries) == pytest.approx(FIXTURE_CLOSENESS, rel=1e-9)

    def test_scores_a_rounding_step_apart_are_degenerate(self):
        # 0.30000000000000004 is one ulp above 0.3; once normalized the scores
        # coincide, so every row is both the ideal and the anti-ideal point
        args = (["a1", "a2", "a3"], [("c", 1.0, "benefit")], [[0.3], [0.30000000000000004], [0.3]])
        with pytest.raises(DegenerateMatrixError, match="the scores differ too little to rank"):
            rank_alternatives(make_matrix(*args))
        assert outcome(lambda: numpy_topsis(*args)) == (DegenerateMatrixError, "the scores differ too little to rank")

    @pytest.mark.parametrize("scale", [1e308, 1e-320])
    def test_extreme_weights_normalize_like_equal_weights(self, scale):
        # 1e308 + 1e308 overflows a float, so the sum must not be taken raw
        m = make_matrix(["a1", "a2"], [("c1", scale, "benefit"), ("c2", scale, "benefit")],
                        [[1.0, 2.0], [2.0, 1.0]])
        assert [c.weight for c in m.criteria] == [0.5, 0.5]

    def test_normal_range_weights_normalize_bit_for_bit(self):
        m = make_matrix(["a1", "a2", "a3"], FIXTURE_CRITERIA, FIXTURE_VALUES)
        assert [c.weight for c in m.criteria] == [w / (0.5 + 0.3 + 0.2) for _, w, _ in FIXTURE_CRITERIA]

    def test_weights_normalize_left_to_right(self):
        # builtin sum compensates for rounding from Python 3.12 and would total
        # 1.0000000000000002 here; the total taken left to right is 1.0
        m = make_matrix(["a1", "a2"], [("c1", 1.0, "benefit"), ("c2", 1e-16, "benefit"), ("c3", 1e-16, "cost")],
                        [[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
        assert [c.weight for c in m.criteria] == [1.0, 1e-16, 1e-16]

    @pytest.mark.parametrize("values, message", [
        ([[1.0, 2.0], [2.0]], "matrix shape does not match alternative/criterion counts"),
        ([[1.0, 2.0]], "matrix shape does not match alternative/criterion counts"),
        ([[1.0, 2.0], [2.0, math.nan]], "matrix values must be finite"),
        ([[1.0, math.inf], [2.0, -math.inf]], "matrix values must be finite"),
    ], ids=["ragged-rows", "missing-row", "nan", "infinite"])
    def test_malformed_values_are_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            make_matrix(["a1", "a2"], [("c1", 1.0, "benefit"), ("c2", 1.0, "benefit")], values)

    def test_weights_normalized(self):
        m = make_matrix(["a1", "a2"], [("c1", 2.0, "benefit"), ("c2", 2.0, "benefit")],
                        [[1.0, 2.0], [2.0, 1.0]])
        assert sum(c.weight for c in m.criteria) == pytest.approx(1.0)


class TestBuildConflictMatrix:
    def _alts(self, entries, weights=None):
        return AlternativesFile(
            alternatives=tuple(Alternative(id=i, satisfies=s) for i, s in entries),
            weights=weights or {},
        )

    def test_construction(self, worked_example):
        alts = self._alts([("a1", {"req-de-retention": 2.0, "req-fr-retention": 1.0}),
                           ("a2", {"req-de-retention": 1.0, "req-fr-retention": 2.0})])
        m = build_conflict_matrix(worked_example, alts)
        assert m.alternatives == ("a1", "a2")
        assert [c.id for c in m.criteria] == ["req-de-retention", "req-fr-retention"]
        assert [c.weight for c in m.criteria] == [0.5, 0.5]
        assert all(c.direction == "benefit" for c in m.criteria)

    def test_missing_score_defaults_to_zero(self, worked_example):
        alts = self._alts([("a1", {"req-de-retention": 2.0}),
                           ("a2", {"req-fr-retention": 1.0})])
        m = build_conflict_matrix(worked_example, alts)
        assert m.values == ((2.0, 0.0), (0.0, 1.0))

    def test_score_outside_conflict_set(self, worked_example):
        alts = self._alts([("a1", {"req-de-audit": 1.0})])
        with pytest.raises(UnknownRequirementError):
            build_conflict_matrix(worked_example, alts)

    def test_empty_conflict_set_degenerates_at_rank_time(self, worked_example):
        from dataclasses import replace
        from reqlattice.model import RelationSet
        peaceful = replace(worked_example, relations=RelationSet(
            refines=worked_example.relations.refines, contradicts=frozenset()))
        m = build_conflict_matrix(peaceful, self._alts([("a1", {}), ("a2", {})]))
        with pytest.raises(DegenerateMatrixError, match="no alternatives or no criteria"):
            rank_alternatives(m)

    def test_no_alternatives_degenerates_at_rank_time(self, worked_example):
        m = build_conflict_matrix(worked_example, self._alts([]))
        with pytest.raises(DegenerateMatrixError, match="no alternatives or no criteria"):
            rank_alternatives(m)

    def test_weight_override(self, worked_example):
        alts = self._alts(
            [("a1", {"req-de-retention": 1.0})],
            weights={"req-de-retention": 3.0, "req-fr-retention": 1.0},
        )
        m = build_conflict_matrix(worked_example, alts)
        weights = {c.id: c.weight for c in m.criteria}
        assert weights["req-de-retention"] == pytest.approx(0.75)


# the sizes straddle every threshold of numpy's pairwise sum: left to right
# below 8 terms, eight accumulators up to 128, halves above that
SIZES = (1, 2, 7, 8, 9, 127, 128, 129, 257)
# subnormal to huge, so the frexp scaling of weights and columns does the work
MAGNITUDES = (5e-324, 2.0 ** -1070, 1e-300, 1e-9, 1.0, 1e9, 1e300)


def random_column(rng: random.Random, n: int, magnitude: float) -> list:
    kind = rng.choice(["uniform", "signed", "integer", "constant", "ulp", "zeros", "spread"])
    if kind == "uniform":
        return [rng.uniform(0.0, 1.0) * magnitude for _ in range(n)]
    if kind == "signed":
        return [rng.uniform(-1.0, 1.0) * magnitude for _ in range(n)]
    if kind == "integer":
        return [rng.randint(-20, 20) for _ in range(n)]
    if kind == "constant":
        return [rng.uniform(-1.0, 1.0) * magnitude] * n
    if kind == "ulp":  # scores a rounding step apart
        x = rng.uniform(0.1, 1.0) * magnitude
        return [rng.choice([x, math.nextafter(x, math.inf)]) for _ in range(n)]
    if kind == "zeros":
        return [rng.choice([0.0, -0.0, magnitude]) for _ in range(n)]
    return [rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-323.0, 300.0) for _ in range(n)]


def random_topsis_inputs(rng: random.Random, n: int, k: int, magnitude: float, one_kept: bool):
    """Alternatives, criteria and an ``n`` x ``k`` matrix of rows; now and then
    with tied rows, or with one fault that ``make_matrix`` rejects."""
    columns = [random_column(rng, n, magnitude) for _ in range(k)]
    if one_kept:  # every column but one constant
        columns = [column if j == k // 2 else [column[0]] * n for j, column in enumerate(columns)]
    weights = [rng.choice([1.0, 3, 0.0, -0.0, 1e-300, 5e-324, 1e300, rng.uniform(0.0, 3.0)]) for _ in range(k)]
    criteria = [(f"c{j}", w, rng.choice(["benefit", "cost"])) for j, w in enumerate(weights)]
    rows = [list(row) for row in zip(*columns)]
    if n > 1 and rng.random() < 0.2:
        rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
    fault = rng.choice(["negative weight", "direction", "nan", "inf"]) if rng.random() < 0.05 else None
    if fault == "negative weight":
        criteria[rng.randrange(k)] = ("negative", -1.0, "benefit")
    elif fault == "direction":
        criteria[rng.randrange(k)] = ("sideways", 1.0, "gain")
    elif fault:
        rows[rng.randrange(n)][rng.randrange(k)] = float(fault)
    return [f"a{i:03d}" for i in rng.sample(range(1000), n)], criteria, rows


def outcome(rank) -> tuple:
    """A ranking's entries and dropped criteria, or the type and message of the error it raised."""
    try:
        ranking = rank()
    except (ValueError, ReqLatticeError) as exc:
        return type(exc), str(exc)
    return ranking.entries, ranking.dropped_criteria


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from(SIZES), k=st.sampled_from(SIZES), seed=st.integers(0, 2 ** 32 - 1),
       magnitude=st.sampled_from(MAGNITUDES), one_kept=st.booleans())
@example(n=8, k=128, seed=1, magnitude=1.0, one_kept=False)
@example(n=128, k=8, seed=2, magnitude=1e300, one_kept=False)
@example(n=129, k=129, seed=3, magnitude=5e-324, one_kept=False)
@example(n=7, k=9, seed=4, magnitude=1e-300, one_kept=True)
def test_ranking_equals_the_numpy_oracle(n, k, seed, magnitude, one_kept):
    assume(n * k <= 40_000)
    alternatives, criteria, values = random_topsis_inputs(random.Random(seed), n, k, magnitude, one_kept)
    got = outcome(lambda: rank_alternatives(make_matrix(alternatives, criteria, values)))
    assert got == outcome(lambda: numpy_topsis(alternatives, criteria, values))


# x ** 2 goes through the C library's pow, which can round the last bit away
# from x * x; glibc does on these scores, in a column norm, in a distance to
# the anti-ideal point and in one to the ideal point, and the closeness values
# then differ
@pytest.mark.parametrize("values", [
    [[8.627883001001535, 9.737473650339538], [0.7706536917760543, 4.9994189930998125],
     [8.804672713974162, 4.275847678725809]],
    [[8.520499185589182, 4.298025763494804], [8.689849460554909, 3.8460845434744204],
     [7.022181543697261, 0.6149029647973947]],
    [[9.573899757405572, 2.621575972703897], [3.897091993964218, 5.280721927964475],
     [3.3165379549226226, 8.15237542904437]],
])
def test_squares_equal_the_numpy_oracle_to_the_last_bit(values):
    args = (["a1", "a2", "a3"], [("c0", 1.0, "benefit"), ("c1", 0.5, "cost")], values)
    assert rank_alternatives(make_matrix(*args)) == numpy_topsis(*args)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsalign import (
    AlignedTuple,
    ConfigError,
    ConstraintConfig,
    DataError,
    SeriesTable,
    StructuralError,
    WeightParams,
    batch_weights,
    conflicts,
    phi_similarity,
    theta_similarity,
)
from tsalign.core import weight_terms
from conftest import (aligned_tuples, gappy_table, index_spread, pair_count, weight,
                      weight_terms_tensor)


def table_with_timestamps(*rows_per_series):
    cols = [(ts, [0.0] * len(ts)) for ts in rows_per_series]
    return SeriesTable.from_columns(cols)


class TestSeriesTable:
    def test_padding_equalizes_row_counts(self):
        t = SeriesTable.from_columns([([1, 2, 3], [1, 2, 3]), ([1], [5])])
        assert t.n == 3
        assert np.isnan(t.timestamps[1, 2])
        assert t.value_mask[1, 0]

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(DataError):
            table_with_timestamps([3, 2, 5], [1, 2, 3])
        with pytest.raises(DataError):
            table_with_timestamps([1, 1, 5], [1, 2, 3])

    def test_missing_gaps_do_not_break_monotonicity(self):
        t = SeriesTable.from_columns([([1, None, 5], [1, 2, 3]), ([0, 1, 2], [0, 0, 0])])
        assert t.n == 3

    def test_needs_two_series(self):
        with pytest.raises(DataError):
            SeriesTable(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_arrays_are_read_only(self):
        t = table_with_timestamps([1, 2], [1, 2])
        with pytest.raises(ValueError):
            t.values[0, 0] = 9.0

    def test_construction_copies_the_given_arrays(self):
        ts, vs = np.array([[0.0, 1.0], [0.0, 2.0]]), np.ones((2, 2))
        t = SeriesTable(ts, vs)
        ts[0, 0] = vs[0, 0] = 9.0
        assert t.timestamps[0, 0] == 0.0 and t.values[0, 0] == 1.0
        assert ts.flags.writeable


class TestThetaSimilarity:
    def test_max_pairwise_gap(self):
        t = table_with_timestamps([10.0], [13.0], [11.0])
        assert theta_similarity(AlignedTuple((0, 0, 0)), t) == 3

    def test_absent_below_two_present(self):
        t = SeriesTable.from_columns([([5.0], [0.0]), ([None], [0.0]), ([None], [0.0])])
        assert theta_similarity(AlignedTuple((0, 0, 0)), t) is None

    def test_two_points(self):
        t = table_with_timestamps([0.0], [1.0])
        assert theta_similarity(AlignedTuple((0, 0)), t) == 1

    def test_slot_out_of_range(self):
        t = table_with_timestamps([0.0], [1.0])
        with pytest.raises(StructuralError):
            theta_similarity(AlignedTuple((0, 5)), t)

    def test_series_permutation_invariance(self):
        t = table_with_timestamps([1.0, 4.0], [2.0, 9.0], [0.5, 6.0])
        perm = [2, 0, 1]
        t2 = SeriesTable(t.timestamps[perm], t.values[perm])
        r = AlignedTuple((0, 1, 1))
        r2 = AlignedTuple(tuple(r.slots[k] for k in perm))
        assert theta_similarity(r, t) == theta_similarity(r2, t2)


class TestPhiSimilarity:
    @pytest.mark.parametrize("slots,expected", [
        ((5, 5, 5), 0),
        ((2, 4, 3), 2),
        ((0, 1), 1),
    ])
    def test_examples(self, slots, expected):
        assert phi_similarity(AlignedTuple(slots)) == expected

    @given(st.lists(st.integers(0, 30), min_size=2, max_size=5))
    def test_zero_iff_all_equal(self, slots):
        r = AlignedTuple(tuple(slots))
        assert (phi_similarity(r) == 0) == (len(set(slots)) == 1)


class TestWeight:
    def test_both_values_present(self, fig_params):
        t = SeriesTable.from_columns([([0.0], [1.0]), ([0.0], [2.0])])
        assert weight(AlignedTuple((0, 0)), t, fig_params) == 4.0

    def test_one_value_missing(self, fig_params):
        t = SeriesTable.from_columns([([0.0, 1.0], [1.0, None]), ([0.0, 1.0], [2.0, 3.0])])
        assert weight(AlignedTuple((1, 1)), t, fig_params) == 1.0

    def test_three_series_spread(self, fig_params):
        t = SeriesTable.from_columns([
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ])
        assert weight(AlignedTuple((0, 1, 2)), t, fig_params) == pytest.approx(10 / 9)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            WeightParams(k1=-1)
        with pytest.raises(ConfigError):
            WeightParams(b=0)
        with pytest.raises(ConfigError):
            WeightParams(c=-2)

    @pytest.mark.parametrize("name", ["k1", "k2", "b", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ConfigError, match="finite"):
            WeightParams(**{name: value})

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    def test_positive_and_monotone(self, s0, s1, s2):
        t = SeriesTable.from_columns([
            ([0.0, 1.0, 2.0, 3.0], [1.0, None, 1.0, None]),
            ([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, None, None]),
            ([0.0, 1.0, 2.0, 3.0], [None, 1.0, 1.0, None]),
        ])
        w = WeightParams(k1=2, k2=3, b=0.5, c=0.25)
        r = AlignedTuple((s0, s1, s2))
        assert weight(r, t, w) > 0

    def test_non_decreasing_in_present_values_at_fixed_spread(self, fig_params):
        # same slots (d fixed), increasingly many present values
        tables = [
            SeriesTable.from_columns([([0.0], [None]), ([0.0], [None]), ([0.0], [None])]),
            SeriesTable.from_columns([([0.0], [1.0]), ([0.0], [None]), ([0.0], [None])]),
            SeriesTable.from_columns([([0.0], [1.0]), ([0.0], [1.0]), ([0.0], [None])]),
            SeriesTable.from_columns([([0.0], [1.0]), ([0.0], [1.0]), ([0.0], [1.0])]),
        ]
        r = AlignedTuple((0, 0, 0))
        weights = [weight(r, t, fig_params) for t in tables]
        assert weights == sorted(weights)

    def test_non_increasing_in_spread_at_fixed_values(self, fig_params):
        t = SeriesTable.from_columns([
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ])
        spread = [AlignedTuple((0, 0, 0)), AlignedTuple((0, 0, 1)), AlignedTuple((0, 1, 2))]
        weights = [weight(r, t, fig_params) for r in spread]
        assert weights == sorted(weights, reverse=True)

    def test_batch_matches_scalar(self, fig_params):
        rng = np.random.default_rng(5)
        t = SeriesTable(
            np.sort(rng.uniform(0, 50, (3, 6)), axis=1),
            np.where(rng.random((3, 6)) < 0.3, np.nan, rng.normal(size=(3, 6))),
        )
        slot_rows = rng.integers(0, 6, size=(20, 3))
        batched = batch_weights(t, slot_rows, fig_params)
        for row, expected in zip(slot_rows, batched):
            assert weight(AlignedTuple(tuple(row)), t, fig_params) == pytest.approx(expected)


class TestWeightTerms:
    """``weight_terms`` sums one series pair at a time; it must equal the old
    (N, m, m) tensor bit for bit, and the scalar helpers."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_tensor_and_scalar_helpers(self, m):
        rng = np.random.default_rng(60 + m)
        for n in (1, 7, 40):
            t = gappy_table(rng, m, n)
            rows = rng.integers(0, n, size=(50, m))
            p, d = weight_terms(t, rows.astype(np.int32))
            for same in (weight_terms(t, rows), weight_terms(t, rows.tolist()),
                         weight_terms_tensor(t, rows)):
                assert p.dtype == d.dtype == same[0].dtype == same[1].dtype == float
                assert np.array_equal(p, same[0]) and np.array_equal(d, same[1])
            tuples = aligned_tuples(rows)
            assert d.tolist() == [index_spread(r) for r in tuples]
            assert p.tolist() == [pair_count(r, t) for r in tuples]

    def test_empty(self):
        t = SeriesTable(np.tile(np.arange(2.0), (3, 1)), np.zeros((3, 2)))
        for rows in ([], np.zeros((0, 3), dtype=np.int32)):
            p, d = weight_terms(t, rows)
            assert p.size == d.size == 0


class TestConflicts:
    def test_shared_slot(self):
        assert conflicts(AlignedTuple((0, 1)), AlignedTuple((0, 2)))

    def test_disjoint_slots(self):
        assert not conflicts(AlignedTuple((0, 1)), AlignedTuple((1, 0)))

    def test_reflexive(self):
        r = AlignedTuple((3, 7))
        assert conflicts(r, r)

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=4),
           st.lists(st.integers(0, 4), min_size=2, max_size=4))
    def test_symmetric(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        r1, r2 = AlignedTuple(tuple(a)), AlignedTuple(tuple(b))
        assert conflicts(r1, r2) == conflicts(r2, r1)


class TestConstraintConfig:
    def test_defaults_to_unbounded_delta(self):
        cfg = ConstraintConfig(theta=1.0, beta=2)
        assert math.isinf(cfg.delta)

    @pytest.mark.parametrize("kwargs", [
        {"theta": -1, "beta": 0},
        {"theta": 0, "beta": -1},
        {"theta": 0, "beta": 1.5},
        {"theta": 0, "beta": 0, "delta": -0.1},
    ])
    def test_rejects_bad_thresholds(self, kwargs):
        with pytest.raises(ConfigError):
            ConstraintConfig(**kwargs)

    def test_rejects_nan_theta_but_not_infinite(self):
        with pytest.raises(ConfigError, match="theta"):
            ConstraintConfig(theta=math.nan, beta=0)
        assert math.isinf(ConstraintConfig(theta=math.inf, beta=0).theta)

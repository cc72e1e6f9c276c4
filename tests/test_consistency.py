import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    DataError,
    SeriesTable,
    consistency_delta,
    delta_report,
    fit_model,
    generate_synthetic,
    tuple_value_matrix,
)
from conftest import consistency_delta_scan, delta_report_scan, gappy_table, predict_scan


class TestFitModel:
    def test_constant_series_fixed_point(self):
        values = np.full((10, 2), 3.0)
        values[:, 1] = -1.5
        model = fit_model(values)
        assert np.allclose(model.coeff, 0.0, atol=1e-5)
        assert np.allclose(model.intercept, [3.0, -1.5], atol=1e-5)
        assert np.allclose(model.predict(values), values, atol=1e-8)

    def test_recovers_doubling_rule(self):
        # v[i] = 2 * v[i-1], closed-form least squares gives slope 2, no bias
        v = 2.0 ** np.arange(10)
        model = fit_model(v[:, None])
        assert model.coeff[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept[0] == pytest.approx(0.0, abs=1e-6)

    def test_all_missing_falls_back_to_means(self):
        model = fit_model(np.full((8, 2), np.nan))
        assert model.fallback_series == (0, 1)
        assert np.allclose(model.coeff, 0.0)

    def test_too_few_rows_full_fallback(self):
        model = fit_model(np.ones((3, 2)))
        assert model.full_fallback

    def test_cross_series_coupling(self):
        rng = np.random.default_rng(3)
        rows = 200
        a = np.array([[0.5, 0.2], [-0.1, 0.7]])
        b = np.array([1.0, -2.0])
        v = np.zeros((rows, 2))
        for i in range(1, rows):
            v[i] = a @ v[i - 1] + b + 1e-3 * rng.normal(size=2)
        model = fit_model(v)
        assert np.allclose(model.coeff, a, atol=1e-2)
        assert np.allclose(model.intercept, b, atol=1e-2)

    def test_missing_predictors_use_series_means(self):
        v = np.array([[1.0, 1.0], [2.0, 2.0], [np.nan, 3.0], [4.0, 4.0], [5.0, 5.0]])
        model = fit_model(v)
        preds = model.predict(v)
        assert np.all(np.isfinite(preds))


class TestConsistencyDelta:
    def test_exact_predictions_give_zero(self):
        values = np.full((6, 2), 7.0)
        model = fit_model(values)
        report = consistency_delta(values, model)
        assert report.delta == 0.0

    def test_all_missing_flagged(self):
        values = np.full((4, 2), np.nan)
        report = consistency_delta(values, fit_model(values))
        assert report.delta == 0.0
        assert report.all_missing

    def test_hand_computed_single_series(self):
        # values {0, 10}, predictions {1, 10}: F=2, mu=20, delta=0.05
        values = np.array([[0.0], [10.0]])

        class Stub:
            width = 1

            def predict(self, v):
                return np.array([[1.0], [10.0]])

        report = consistency_delta(values, Stub())
        assert report.delta == pytest.approx(0.05)
        assert report.normalizers[0] == pytest.approx(20.0)

    def test_degenerate_normalizer_contributes_zero(self):
        values = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0], [5.0, 4.0]])
        report = consistency_delta(values, fit_model(values))
        assert 0 in report.degenerate_series
        assert report.per_series_loss[0] == 0.0

    def test_missing_cells_contribute_nothing(self):
        # series 0 misses row 1 and series 1 row 2, where the stub predicts far
        # off: |1 - 2| + |3 - 1| + |5 - 5| = 3 over mu_0 = 3 * (5 - 1), and
        # |2 - 2| + |4 - 3| + |8 - 6| = 3 over mu_1 = 3 * (8 - 2)
        values = np.array([[1.0, 2.0], [np.nan, 4.0], [3.0, np.nan], [5.0, 8.0]])

        class Stub:
            width = 2

            def predict(self, v):
                return np.array([[2.0, 2.0], [1e6, 3.0], [1.0, -1e6], [5.0, 6.0]])

        report = consistency_delta(values, Stub())
        assert report.per_series_loss.tolist() == [3 / 12, 3 / 18]
        assert report.normalizers.tolist() == [12.0, 18.0]
        assert report.delta == (3 / 12 + 3 / 18) / 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.integers(1, 3))
    def test_delta_non_negative(self, seed, rows, width):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, width))
        values[rng.random((rows, width)) < 0.3] = np.nan
        report = consistency_delta(values, fit_model(values))
        assert report.delta >= 0.0
        assert np.isfinite(report.delta)

    def test_affine_scaling_leaves_loss_invariant_under_mean_fallback(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(3, 2))  # < m + 2 rows forces the mean predictor
        scaled = values * np.array([3.0, -0.5]) + np.array([10.0, 2.0])
        r1 = consistency_delta(values, fit_model(values))
        r2 = consistency_delta(scaled, fit_model(scaled))
        assert r1.delta == pytest.approx(r2.delta)

    def test_row_permutation_invariance_for_mean_predictor(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(3, 3))
        model = fit_model(values)
        assert model.full_fallback
        perm = values[[2, 0, 1]]
        assert consistency_delta(values, model).delta == pytest.approx(
            consistency_delta(perm, fit_model(perm)).delta)


class TestTupleValueMatrix:
    def test_extracts_values_by_slot(self, staggered_table):
        m = tuple_value_matrix([[0, 0], [1, 1]], staggered_table)
        assert m[0, 0] == 1.0 and m[0, 1] == 2.0
        assert np.isnan(m[1, 0]) and m[1, 1] == 2.5

    def test_delta_report_carries_the_model_flags(self):
        table, _ = generate_synthetic(12, 3, 0.5, seed=6)
        vs = np.array(table.values)
        # series 2 has values in even rows only: no row before one of them is
        # complete, so it alone falls back to its mean
        vs[1, 1::2] = np.nan
        gappy = type(table)(table.timestamps, vs)
        vs = np.array(vs)
        vs[1] = np.nan  # no value at all: no complete row, no normalizer
        empty_series = type(table)(table.timestamps, vs)
        for t, rows, fallback, full, degenerate in (
                (gappy, 12, (1,), False, ()),
                (gappy, 3, (0, 1, 2), True, ()),
                (empty_series, 12, (0, 1, 2), False, (1,))):
            slots = np.tile(np.arange(rows)[:, None], (1, 3))
            model = fit_model(tuple_value_matrix(slots, t))
            assert (model.fallback_series, model.full_fallback) == (fallback, full)
            report = delta_report(slots, t)
            assert (report.fallback_series, report.full_fallback) == (fallback, full)
            assert (report.degenerate_series, report.all_missing) == (degenerate, False)
        empty = delta_report(np.zeros((0, 3), dtype=int), table)
        assert empty.full_fallback and empty.all_missing

    def test_delta_report_sorts_rows(self, staggered_table):
        a = delta_report([[1, 1], [0, 0]], staggered_table)
        b = delta_report([[0, 0], [1, 1]], staggered_table)
        assert a.delta == b.delta

    def test_delta_report_reads_arrays_in_lexicographic_order(self):
        # enough rows for a fitted AR(1), whose score depends on the row order
        table, _ = generate_synthetic(12, 2, 0.5, seed=6)
        slots = np.stack([np.arange(12), np.arange(12)], axis=1)
        shuffled = slots[np.random.default_rng(1).permutation(12)]
        expected = delta_report(slots.tolist(), table)
        assert delta_report(shuffled, table).delta == expected.delta
        assert delta_report(shuffled.astype(np.int32).tolist(), table).delta == expected.delta
        unsorted = tuple_value_matrix(shuffled, table)
        assert consistency_delta(unsorted, fit_model(unsorted)).delta != expected.delta


def assert_same_report(a, b):
    """Every field equal: arrays by value and dtype (NaN matching NaN), delta and flags."""
    for name in ("per_series_loss", "normalizers"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name
    assert a.delta == b.delta
    assert (a.degenerate_series, a.all_missing, a.fallback_series, a.full_fallback) == \
        (b.degenerate_series, b.all_missing, b.fallback_series, b.full_fallback)


class TestInPlaceReportMatchesScan:
    """The in-place prediction, errors and column extremes against the copying ones."""

    @staticmethod
    def gappy_matrix(rng, rows, width, rate):
        values = rng.normal(size=(rows, width)) * rng.uniform(0.1, 100.0, size=width)
        return np.where(rng.random((rows, width)) < rate, np.nan, values)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30), st.integers(1, 5),
           st.floats(0.0, 1.0))
    def test_random_matrices(self, seed, rows, width, rate):
        values = self.gappy_matrix(np.random.default_rng(seed), rows, width, rate)
        model = fit_model(values)
        assert np.array_equal(model.predict(values), predict_scan(model, values),
                              equal_nan=True)
        assert_same_report(consistency_delta(values, model),
                           consistency_delta_scan(values, model))

    @pytest.mark.parametrize("case", ["degenerate", "all_missing", "few_rows", "one_value"])
    def test_edge_matrices(self, case):
        rng = np.random.default_rng(3)
        values = self.gappy_matrix(rng, 12, 3, 0.2)
        if case == "degenerate":
            values[:, 1] = 4.0
        elif case == "all_missing":
            values[:] = np.nan
        elif case == "few_rows":
            values = values[:4]  # fewer than m + 2 rows: the mean predictor
        else:
            values[:, 2] = np.nan
            values[5, 2] = 1.5
        model = fit_model(values)
        report = consistency_delta(values, model)
        assert_same_report(report, consistency_delta_scan(values, model))
        if case == "degenerate":
            assert report.degenerate_series == (1,)
        if case == "all_missing":
            assert report.all_missing
        if case == "few_rows":
            assert model.full_fallback

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m, n", [(2, 1), (2, 5), (3, 12), (4, 40)])
    def test_delta_report_on_slot_arrays(self, seed, m, n):
        rng = np.random.default_rng(seed)
        t = gappy_table(rng, m, n)
        slots = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), m))
        for given in (slots, slots.astype(np.int32), slots.tolist()):
            assert_same_report(delta_report(given, t), delta_report_scan(given, t))

    def test_delta_report_on_no_tuples(self):
        t = gappy_table(np.random.default_rng(0), 3, 6)
        for given in ([], np.zeros((0, 3), dtype=np.int32)):
            report = delta_report(given, t)
            assert_same_report(report, delta_report_scan(given, t))
            assert report.all_missing and report.full_fallback

    def test_overflow_is_the_same_data_error(self):
        vs = np.array([[1e308, -1e308, 1e308, -1e308], [-1e308, 1e308, -1e308, 1e308]])
        t = SeriesTable(np.tile(np.arange(4.0), (2, 1)), vs)
        slots = np.tile(np.arange(4, dtype=np.int32)[:, None], (1, 2))
        for f in (delta_report, delta_report_scan):
            with pytest.raises(DataError, match="the consistency score overflowed"):
                f(slots, t)

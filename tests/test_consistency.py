import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    consistency_delta,
    delta_report,
    fit_model,
    generate_synthetic,
    tuple_value_matrix,
)


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
        values = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan], [4.0, np.nan]])
        report = consistency_delta(values, fit_model(values))
        assert np.all(report.abs_errors[:, 1] == 0.0)

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

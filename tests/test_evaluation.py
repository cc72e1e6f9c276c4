import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    AlignedTuple,
    Alignment,
    ConfigError,
    GroundTruth,
    SeriesTable,
    StructuralError,
    generate_synthetic,
    inject_mcar,
    pair_accuracy,
    score,
)
from tsalign.consistency import ConsistencyReport
from tsalign.evaluation import same_row_groups
from conftest import (assert_same_table, gappy_table, generate_synthetic_scan,
                      pair_accuracy_all_pairs, same_row_groups_scan, score_scan,
                      truth_pair_set)


def make_alignment(tuples, total_weight=0.0, delta=0.0):
    report = ConsistencyReport(np.zeros(0), np.zeros(0), delta, np.zeros((0, 0)), (), True)
    return Alignment([r.slots for r in sorted(tuples)], total_weight, report, "test")


class TestScore:
    def test_perfect_alignment(self):
        table, truth = generate_synthetic(6, 3, 0.5, seed=0)
        alignment = make_alignment([AlignedTuple((i, i, i)) for i in range(6)])
        report = score(alignment, truth)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.aligned_tuple_count == 6

    def test_empty_alignment_scores_zero(self):
        _, truth = generate_synthetic(4, 2, 0.5, seed=1)
        report = score(make_alignment([]), truth)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_half_right(self):
        # truth has 4 pairs; recover 2 of them plus 2 wrong ones
        _, truth = generate_synthetic(4, 2, 0.5, seed=2)
        alignment = make_alignment([
            AlignedTuple((0, 0)), AlignedTuple((1, 1)),   # correct
            AlignedTuple((2, 3)), AlignedTuple((3, 2)),   # wrong
        ])
        report = score(alignment, truth)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)

    def test_tuple_order_irrelevant(self):
        _, truth = generate_synthetic(5, 2, 0.5, seed=3)
        tuples = [AlignedTuple((i, i)) for i in range(5)]
        a = score(make_alignment(tuples), truth)
        b = score(make_alignment(list(reversed(tuples))), truth)
        assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)

    def test_mismatched_table_rejected(self):
        _, truth = generate_synthetic(4, 2, 0.5, seed=4)
        with pytest.raises(StructuralError):
            score(make_alignment([AlignedTuple((0, 0, 0))]), truth)
        with pytest.raises(StructuralError):
            score(make_alignment([AlignedTuple((0, 9))]), truth)

    def test_f1_recomputation_identity(self):
        _, truth = generate_synthetic(6, 2, 0.5, seed=5)
        alignment = make_alignment([AlignedTuple((0, 0)), AlignedTuple((1, 2)),
                                    AlignedTuple((3, 3))])
        r = score(alignment, truth)
        assert 0 <= r.precision <= 1 and 0 <= r.recall <= 1 and 0 <= r.f1 <= 1
        if r.precision + r.recall > 0:
            assert r.f1 == pytest.approx(
                2 * r.precision * r.recall / (r.precision + r.recall))


class TestScoreMatchesScan:
    """Group-id scoring against the frozenset pair sets it replaced."""

    @staticmethod
    def random_tuples(rng, m, n, count):
        """Mostly near-diagonal slot vectors, so some hit; with conflicts and repeats."""
        base = rng.integers(0, n, size=(count, 1))
        slots = np.clip(base + rng.integers(-1, 2, size=(count, m)), 0, n - 1)
        tuples = [AlignedTuple(tuple(row)) for row in slots]
        return tuples + tuples[:count // 4]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 20))
    def test_random_alignments(self, seed, m, n):
        rng = np.random.default_rng(seed)
        truth = GroundTruth.same_row(gappy_table(rng, m, n))
        tuples = self.random_tuples(rng, m, n, int(rng.integers(0, 3 * n)))
        alignment = make_alignment(tuples, total_weight=float(len(tuples)), delta=0.5)
        assert score(alignment, truth) == score_scan(alignment, truth)

    def test_synthetic_truth_with_duplicates(self):
        table, truth = generate_synthetic(30, 4, 1.0, seed=31)
        tuples = [AlignedTuple((i, i, i + 1 if i < 29 else i, i)) for i in range(30)]
        alignment = make_alignment(tuples + tuples[::3])
        report = score(alignment, truth)
        assert report == score_scan(alignment, truth)
        assert 0 < report.precision < 1 and 0 < report.recall < 1

    def test_empty_alignment_matches_scan(self):
        table, truth = generate_synthetic(5, 3, 0.5, seed=32)
        assert score(make_alignment([]), truth) == score_scan(make_alignment([]), truth)

    def test_plain_slot_vectors(self):
        _, truth = generate_synthetic(6, 3, 0.5, seed=33)
        tuples = [AlignedTuple((i, i, (i + 1) % 6)) for i in range(6)]
        report = score(make_alignment(tuples), truth)
        expected = (report.precision, report.recall, report.f1)
        assert pair_accuracy([r.slots for r in tuples], truth) == expected
        assert pair_accuracy(np.array([r.slots for r in tuples]), truth) == expected
        assert pair_accuracy(np.zeros((0, 3), dtype=int), truth) == (0.0, 0.0, 0.0)

    def test_ragged_slot_vectors_rejected(self):
        _, truth = generate_synthetic(4, 2, 0.5, seed=34)
        with pytest.raises(StructuralError):
            pair_accuracy([(0, 0), (1, 1, 1)], truth)
        with pytest.raises(StructuralError):
            pair_accuracy([(0, -1)], truth)

    def test_group_ids_follow_the_groups(self):
        table = SeriesTable(np.array([[0.0, np.nan, 2.0], [0.0, np.nan, np.nan]]),
                            np.array([[1.0, np.nan, np.nan], [np.nan, np.nan, 1.0]]))
        truth = GroundTruth.same_row(table)
        assert same_row_groups_scan(table) == (((0, 0), (1, 0)), ((0, 2), (1, 2)))
        assert truth.cell_groups.tolist() == [0, -1, 1, 0, -1, 1]
        assert len(truth_pair_set(truth)) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 20))
    def test_group_ids_match_the_group_scan(self, seed, m, n):
        # gappy tables hold an all-missing row and a series with no
        # timestamps or no values (at n = 1 every cell is missing)
        table = gappy_table(np.random.default_rng(seed), m, n)
        ids = np.full(m * n, -1)
        for gid, group in enumerate(same_row_groups_scan(table)):
            for series, row in group:
                ids[series * n + row] = gid
        cell_groups = GroundTruth.same_row(table).cell_groups
        assert cell_groups.tolist() == ids.tolist()
        assert not cell_groups.flags.writeable

    def test_same_row_hands_over_its_ids(self):
        table = gappy_table(np.random.default_rng(2), 3, 9)
        truth = GroundTruth.same_row(table)
        ids = same_row_groups(table.timestamp_mask | table.value_mask)
        assert truth.table is table
        assert ids.shape == (3, 9) and ids.dtype == np.int32 and not ids.flags.writeable
        assert truth.cell_groups.base.shape == (3, 9)  # a view of the (m, n) ids
        assert truth.cell_groups.tolist() == ids.ravel().tolist()

    def test_construction_copies_the_given_ids(self):
        table = gappy_table(np.random.default_rng(2), 2, 3)
        ids = np.arange(6)
        truth = GroundTruth(table, ids)
        ids[0] = 7
        assert truth.cell_groups.tolist() == list(range(6))
        assert truth.cell_groups.dtype == np.intp and not truth.cell_groups.flags.writeable


class TestPairAccuracyMatchesAllPairs:
    """Scoring one series pair at a time against the keys of all pairs at once."""

    @staticmethod
    def random_slots(rng, m, n, count):
        """Near-diagonal slot vectors, so some hit, with reused cells and repeated tuples."""
        base = rng.integers(0, n, size=(count, 1))
        slots = np.clip(base + rng.integers(-1, 2, size=(count, m)), 0, n - 1)
        return np.concatenate([slots, slots[:count // 3]])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_random_slot_arrays(self, seed, m, n):
        rng = np.random.default_rng(seed)
        truth = GroundTruth.same_row(gappy_table(rng, m, n))
        slots = self.random_slots(rng, m, n, int(rng.integers(1, 3 * n + 2)))
        expected = pair_accuracy_all_pairs(slots, truth)
        for given in (slots, slots.astype(np.int32), slots.tolist()):
            assert pair_accuracy(given, truth) == expected

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_series_with_distinct_rows(self, seed, m):
        # series 0 holds every row once, so each pair with it needs no sort;
        # the other series repeat rows, so their pairs among themselves do
        rng = np.random.default_rng(seed)
        n = 30
        truth = GroundTruth.same_row(gappy_table(rng, m, n))
        slots = self.random_slots(rng, m, n, n)[:n]
        slots[:, 0] = rng.permutation(n)
        expected = pair_accuracy_all_pairs(slots, truth)
        assert pair_accuracy(slots, truth) == expected
        assert pair_accuracy(slots[::-1], truth) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_group_id_array_scores_as_its_truth(self, seed):
        rng = np.random.default_rng(seed)
        truth = GroundTruth.same_row(gappy_table(rng, 4, 30))
        slots = self.random_slots(rng, 4, 30, 60)
        ids = same_row_groups(truth.table.timestamp_mask | truth.table.value_mask)
        assert pair_accuracy(slots, ids) == pair_accuracy_all_pairs(slots, truth)
        alignment = make_alignment(AlignedTuple(tuple(r)) for r in slots.tolist())
        assert score(alignment, ids) == score(alignment, truth)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_empty_input(self, m):
        _, truth = generate_synthetic(5, m, 0.5, seed=m)
        for given in ([], np.zeros((0, m), dtype=np.int32), np.zeros(0)):
            assert pair_accuracy(given, truth) == pair_accuracy_all_pairs(given, truth)
            assert pair_accuracy(given, truth) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("slots", [
        [(0, -1, 0)], [(0, 5, 0)], [(0, 0)], [(0, 0), (1, 1, 1)],
        np.full((2, 3), 5, dtype=np.int32), np.array([[0, 0, -1]], dtype=np.int8),
    ])
    def test_out_of_range_is_the_same_structural_error(self, slots):
        _, truth = generate_synthetic(5, 3, 0.5, seed=3)
        for f in (pair_accuracy, pair_accuracy_all_pairs):
            with pytest.raises(StructuralError, match="^alignment does not fit the truth table$"):
                f(slots, truth)

    def test_holds_one_series_pair_at_a_time(self):
        # all 15 series pairs' keys at once, their sort copy and two id gathers
        # peaked at about 6.6 MB at this size; one pair's two id gathers take
        # 320 kB, and 128 KiB covers its bool masks and numpy's cast buffer
        T, m, n = 20000, 6, 2000
        rng = np.random.default_rng(5)
        truth = GroundTruth.same_row(gappy_table(rng, m, n))
        slots = self.random_slots(rng, m, n, T)[:T].astype(np.int32)
        tracemalloc.start()
        try:
            result = pair_accuracy(slots, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == pair_accuracy_all_pairs(slots, truth)
        assert peak <= 2 * T * 8 + 128 * 1024


class TestInjectMcar:
    def test_rate_zero_is_identity(self):
        table, _ = generate_synthetic(20, 3, 1.0, seed=6)
        out = inject_mcar(table, 0.0, seed=1)
        assert np.array_equal(out.values, table.values, equal_nan=True)
        assert np.array_equal(out.timestamps, table.timestamps, equal_nan=True)

    def test_rate_one_masks_all_targeted(self):
        table, _ = generate_synthetic(10, 2, 1.0, seed=7)
        out = inject_mcar(table, 1.0, seed=1, target="values")
        assert np.all(np.isnan(out.values))
        assert not np.any(np.isnan(out.timestamps))

    def test_binomial_concentration(self):
        table, _ = generate_synthetic(2500, 4, 1.0, seed=8)  # 10000 value cells
        out = inject_mcar(table, 0.2, seed=3, target="values")
        frac = np.isnan(out.values).mean()
        assert 0.18 <= frac <= 0.22

    def test_same_seed_same_mask(self):
        table, _ = generate_synthetic(50, 3, 1.0, seed=9)
        a = inject_mcar(table, 0.4, seed=5, target="both")
        b = inject_mcar(table, 0.4, seed=5, target="both")
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.timestamps, b.timestamps, equal_nan=True)

    def test_original_untouched(self):
        table, _ = generate_synthetic(30, 2, 1.0, seed=10)
        before = table.values.copy()
        inject_mcar(table, 0.9, seed=2)
        assert np.array_equal(table.values, before, equal_nan=True)

    def test_rejects_bad_rate_and_target(self):
        table, _ = generate_synthetic(5, 2, 1.0, seed=11)
        with pytest.raises(ConfigError):
            inject_mcar(table, 1.5, seed=0)
        with pytest.raises(ConfigError):
            inject_mcar(table, 0.5, seed=0, target="rows")

    def test_rejects_negative_seed(self):
        table, _ = generate_synthetic(5, 2, 1.0, seed=11)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            inject_mcar(table, 0.5, seed=-1)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 0.95), st.integers(0, 10_000))
    def test_expected_present_fraction(self, rate, seed):
        table, _ = generate_synthetic(40, 3, 1.0, seed=12)
        out = inject_mcar(table, rate, seed=seed)
        frac = 1.0 - np.isnan(out.values).mean()
        assert abs(frac - (1.0 - rate)) < 0.35  # loose: 120 cells


class TestGenerateSynthetic:
    def test_zero_jitter_keeps_rows_simultaneous(self):
        table, _ = generate_synthetic(10, 3, 0.0, seed=13)
        from tsalign import determine_theta
        assert determine_theta(table) == 0.0

    def test_seeded_regeneration_identical(self):
        a, _ = generate_synthetic(30, 4, 2.0, seed=14)
        b, _ = generate_synthetic(30, 4, 2.0, seed=14)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.values, b.values)

    def test_jitter_recovered_by_theta_tuning(self):
        from tsalign import determine_theta
        jitter = 1.5
        table, _ = generate_synthetic(5000, 4, jitter, seed=15)
        theta = determine_theta(table, percentile=95)
        offsets = table.timestamps - 10.0 * np.arange(5000)[None, :]
        diffs = []
        for a in range(4):
            for b in range(a + 1, 4):
                diffs.extend(np.abs(offsets[a] - offsets[b]))
        empirical = np.quantile(diffs, 0.95, method="inverted_cdf")
        assert theta == pytest.approx(empirical)
        assert theta <= 2 * jitter

    def test_large_jitter_warns_but_stays_monotone(self):
        with pytest.warns(UserWarning):
            table, _ = generate_synthetic(50, 2, 6.0, seed=16, tick=10.0)
        for k in range(2):
            assert np.all(np.diff(table.timestamps[k]) > 0)

    def test_truth_covers_every_cell_once(self):
        table, truth = generate_synthetic(12, 3, 1.0, seed=17)
        seen = [cell for group in same_row_groups_scan(truth.table) for cell in group]
        assert len(seen) == len(set(seen)) == table.m * table.n
        assert np.bincount(truth.cell_groups).tolist() == [table.m] * table.n

    @pytest.mark.parametrize("model", ["ar1", "sine", "walk"])
    def test_value_models(self, model):
        table, _ = generate_synthetic(25, 3, 1.0, value_model=model, seed=18)
        assert np.all(np.isfinite(table.values))

    def test_rejects_unknown_model_and_tiny_sizes(self):
        with pytest.raises(ConfigError):
            generate_synthetic(10, 2, 1.0, value_model="brown", seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(1, 2, 1.0, seed=0)

    @pytest.mark.parametrize("seed", [1, 5, 9])
    @pytest.mark.parametrize("n, m", [(2, 2), (50, 3), (300, 4), (1000, 5)])
    @pytest.mark.parametrize("model", ["ar1", "sine", "walk"])
    def test_matches_numpy_scalar_scan(self, seed, n, m, model):
        table, truth = generate_synthetic(n, m, 4.0, value_model=model, seed=seed)
        scan_table, scan_truth = generate_synthetic_scan(n, m, 4.0, value_model=model,
                                                         seed=seed)
        assert_same_table(table, scan_table)
        assert np.array_equal(truth.cell_groups, scan_truth.cell_groups)

    def test_tie_bump_matches_numpy_scalar_scan(self, monkeypatch):
        # offsets that put rows on the same instant: series 0 in pairs, series
        # 1 all at 0, series 2 never; the bump makes each tie the next double
        offsets = np.array([[0.5, -0.5, 0.5, -0.5, 0.25, -0.75],
                            [0.0, -1.0, -2.0, -3.0, -4.0, -5.0],
                            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        make_rng = np.random.default_rng

        class TiedRng:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def uniform(self, low, high, size=None):
                if size == offsets.shape:
                    return offsets.copy()
                return self.rng.uniform(low, high, size=size)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", TiedRng)
        with pytest.warns(UserWarning):
            table, truth = generate_synthetic(6, 3, 5.0, seed=2, tick=1.0)
        scan_table, scan_truth = generate_synthetic_scan(6, 3, 5.0, seed=2, tick=1.0)
        assert_same_table(table, scan_table)
        assert np.array_equal(truth.cell_groups, scan_truth.cell_groups)
        ts = table.timestamps
        assert ts[0, 1] == np.nextafter(0.5, np.inf) and ts[0, 4] == 4.25
        assert ts[1].tolist() == [0.0, 5e-324, 1e-323, 1.5e-323, 2e-323, 2.5e-323]
        assert ts[2].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("jitter, tick", [(float("nan"), 10.0), (float("inf"), 10.0),
                                              (1.0, float("nan")), (1.0, float("inf")),
                                              (1.0, float("-inf"))])
    def test_rejects_non_finite_jitter_and_tick(self, jitter, tick):
        with pytest.raises(ConfigError, match="finite"):
            generate_synthetic(10, 2, jitter, seed=0, tick=tick)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            generate_synthetic(10, 2, 1.0, seed=-3)

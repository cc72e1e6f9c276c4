import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    ConfigError,
    ConstraintConfig,
    SeriesTable,
    WeightParams,
    batch_weights,
    delta_report,
    determine_beta,
    determine_theta,
    determine_weights_and_delta,
    generate_candidates,
    generate_synthetic,
    inject_mcar,
)
from tsalign import composers
from tsalign.candidate import CandidateSet
from tsalign.composers import _expectation_scorer
from tsalign.tuning import DEFAULT_GRID, _beta_from_gap_counts, nearest_rank
from conftest import (beta_samples_scan, class_ranks_scan, drawing_segments_scan, gappy_table,
                      group_pass_scan, segment_bounds_scan, segment_ranks_scan, sorted_rank,
                      theta_scan)


def candidates(t, theta, beta):
    return generate_candidates(t, ConstraintConfig(theta=theta, beta=beta))


def grid_by_fresh_composes(rc, strategy, seed, runs, params=WeightParams()):
    """Oracle for the tuning grid: every grid point and seed scanned, every report fitted anew,
    each point weighing as ``params`` with its k1 and k2.

    Only ``rc.slots`` and ``rc.table`` are read, none of the set's cached
    state.  Returns the delta_grid rows, the winning (delta_bar, k1, k2), and
    how many grid points drew a random tie-break.
    """
    t, slots = rc.table, rc.slots
    rows, drew = [], 0
    for k1, k2 in DEFAULT_GRID:
        point = WeightParams(k1=k1, k2=k2, b=params.b, c=params.c)
        weights = batch_weights(t, slots, point).tolist()
        scorer = _expectation_scorer(rc, weights) if strategy == "expect" else None
        deltas = []
        for i in range(runs):
            rng = random.Random(seed + i)
            chosen = group_pass_scan(rc, weights, rng, scorer)
            drew += i == 0 and rng.getstate() != random.Random(seed).getstate()
            deltas.append(delta_report(rc.slots[chosen], t).delta)
        rows.append({"k1": k1, "k2": k2, "delta_bar": sum(deltas) / len(deltas)})
    best = min((r["delta_bar"], r["k1"], r["k2"]) for r in rows)
    return rows, best, drew


class TestNearestRank:
    def test_spiky_tail(self):
        assert nearest_rank([1, 1, 1, 1, 100], 95) == 100

    def test_uniform_samples(self):
        assert nearest_rank([1.0] * 20, 95) == 1.0

    def test_monotone_in_percentile(self):
        samples = [3, 1, 4, 1, 5, 9, 2, 6]
        values = [nearest_rank(samples, p) for p in range(0, 101, 5)]
        assert values == sorted(values)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            nearest_rank([], 50)


class TestDetermineTheta:
    def test_identical_rows_give_zero(self):
        t = SeriesTable.from_columns([
            ([0.0, 10.0], [1.0, 1.0]),
            ([0.0, 10.0], [1.0, 1.0]),
        ])
        assert determine_theta(t) == 0.0

    def test_percentile_of_row_gaps(self):
        # row gaps: 1, 1, 1, 1, 100
        t = SeriesTable.from_columns([
            ([0.0, 10.0, 20.0, 30.0, 40.0], [0.0] * 5),
            ([1.0, 11.0, 21.0, 31.0, 140.0], [0.0] * 5),
        ])
        assert determine_theta(t, percentile=95) == 100.0
        assert determine_theta(t, percentile=50) == 1.0

    def test_no_usable_rows(self):
        t = SeriesTable.from_columns([
            ([0.0, 1.0], [1.0, 1.0]),
            ([None, None], [1.0, 1.0]),
        ])
        with pytest.raises(ConfigError):
            determine_theta(t)


class TestDetermineBeta:
    def test_sample_floor_and_percentile(self):
        counts = np.bincount([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
        assert _beta_from_gap_counts(counts, beta_lower=0) == 2
        assert _beta_from_gap_counts(np.bincount([0, 0, 0, 0]), beta_lower=0) == 1
        # rank ceil(0.8 * 6) = 5: the fifth smallest gap, not the fourth
        assert _beta_from_gap_counts(np.bincount([1, 1, 1, 1, 2, 2]), beta_lower=0) == 2
        assert _beta_from_gap_counts(np.zeros(5, dtype=np.int64), beta_lower=2) == 3

    def test_aligned_rows_floor_applies(self):
        t = SeriesTable.from_columns([
            ([0.0, 10.0, 20.0], [1.0] * 3),
            ([0.0, 10.0, 20.0], [1.0] * 3),
        ])
        assert determine_beta(t, theta=1.0, beta_lower=0) == 1

    def test_empty_candidates_warn(self):
        t = SeriesTable.from_columns([
            ([0.0, 10.0], [1.0, 1.0]),
            ([5.0, 15.0], [1.0, 1.0]),
        ])
        with pytest.warns(UserWarning):
            beta = determine_beta(t, theta=0.0, beta_lower=0)
        assert beta == 1

    def test_always_exceeds_lower_bound(self):
        table, _ = generate_synthetic(40, 3, 1.0, seed=5)
        for lower in range(0, 3):
            assert determine_beta(table, theta=3.0, beta_lower=lower) > lower

    @pytest.mark.parametrize("lower", [-1, -4])
    def test_rejects_negative_lower_bound(self, lower):
        # -1 to -3 once tuned beta 0, and -4 failed on the scan window's beta
        table, _ = generate_synthetic(40, 3, 1.0, seed=5)
        with pytest.raises(ConfigError, match="^beta_lower must be at least 0$"):
            determine_beta(table, theta=3.0, beta_lower=lower)


class TestThetaBetaMatchScans:
    """The column-wise theta and slot-array beta scans against the per-row/per-tuple loops."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 25),
           st.sampled_from([0.0, 12.5, 50.0, 80.0, 95.0, 100.0]))
    def test_theta(self, seed, m, n, percentile):
        t = gappy_table(np.random.default_rng(seed), m, n)
        try:
            expected = theta_scan(t, percentile)
        except ConfigError:
            with pytest.raises(ConfigError):
                determine_theta(t, percentile)
            return
        assert determine_theta(t, percentile) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 14),
           st.integers(0, 2))
    def test_beta(self, seed, m, n, beta_lower):
        rng = np.random.default_rng(seed)
        t = gappy_table(rng, m, n)
        theta = float(rng.uniform(0, 40))
        samples = beta_samples_scan(t, theta, beta_lower)
        expected = max(beta_lower + 1, sorted_rank(samples, 80.0)) if samples else beta_lower + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert determine_beta(t, theta, beta_lower) == expected

    def test_synthetic_input(self):
        table, _ = generate_synthetic(400, 4, 2.5, seed=41)
        masked = inject_mcar(table, 0.3, seed=42, target="both")
        theta = determine_theta(masked)
        assert theta == theta_scan(masked)
        samples = beta_samples_scan(masked, theta)
        assert determine_beta(masked, theta) == max(1, sorted_rank(samples, 80.0))

    def test_nearest_rank_takes_arrays(self):
        samples = [3.5, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.5]
        for p in range(0, 101, 5):
            assert nearest_rank(np.array(samples), p) == sorted_rank(samples, p)


class TestDetermineWeightsAndDelta:
    def test_single_point_grid(self):
        table, _ = generate_synthetic(30, 2, 1.0, seed=2)
        report = determine_weights_and_delta(candidates(table, theta=3.0, beta=1),
                                             grid=[(3, 2)], strategy="greedy", seed=0)
        assert (report.weights.k1, report.weights.k2) == (3.0, 2.0)
        assert report.weights.b == 1.0 and report.weights.c == 1.0
        assert report.config.delta == report.diagnostics["delta_grid"][0]["delta_bar"]

    def test_argmin_selection(self):
        table, _ = generate_synthetic(40, 2, 1.0, seed=3)
        report = determine_weights_and_delta(candidates(table, theta=3.0, beta=1),
                                             grid=[(1, 1), (4, 2), (2, 5)],
                                             strategy="greedy", seed=1)
        grid_rows = report.diagnostics["delta_grid"]
        best = min(r["delta_bar"] for r in grid_rows)
        assert report.config.delta == best
        winner = [r for r in grid_rows if r["delta_bar"] == best][0]
        assert (report.weights.k1, report.weights.k2) == (winner["k1"], winner["k2"])

    def test_lexicographic_tie_break(self):
        # zero jitter + beta 0 leaves only conflict-free diagonal candidates, so
        # every grid point composes the same alignment and ties on delta-bar
        table, _ = generate_synthetic(20, 2, 0.0, seed=8)
        report = determine_weights_and_delta(candidates(table, theta=0.5, beta=0),
                                             grid=[(5, 5), (2, 2), (2, 1), (1, 6)],
                                             strategy="greedy", seed=0)
        deltas = {r["delta_bar"] for r in report.diagnostics["delta_grid"]}
        assert len(deltas) == 1
        assert (report.weights.k1, report.weights.k2) == (1.0, 6.0)

    @pytest.mark.parametrize("strategy", ["greedy", "expect"])
    def test_matches_fresh_composes_of_every_grid_point(self, strategy):
        # cached candidate state, one fit per distinct selection and skipped
        # seeds must not move any delta_bar; both kinds of grid point occur
        drew = 0
        for seed in (3, 4):
            table, _ = generate_synthetic(150, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=1, target="values")
            theta = determine_theta(masked)
            beta = determine_beta(masked, theta)
            report = determine_weights_and_delta(candidates(masked, theta, beta),
                                                 strategy=strategy, seed=seed)
            rows, best, grid_drew = grid_by_fresh_composes(candidates(masked, theta, beta),
                                                           strategy, seed, runs=4)
            assert report.diagnostics["delta_grid"] == rows
            assert (report.config.delta, report.weights.k1, report.weights.k2) == best
            drew += grid_drew
        assert 0 < drew < 2 * len(DEFAULT_GRID)

    @pytest.mark.parametrize("strategy", ["greedy", "expect"])
    def test_grid_weighs_under_the_given_bias_terms(self, strategy):
        # the seed-4 input above, whose grid picks another point under these
        # b and c than under b = c = 1
        table, _ = generate_synthetic(150, 4, 4.0, seed=4, tick=10.0)
        masked = inject_mcar(table, 0.2, seed=1, target="values")
        theta = determine_theta(masked)
        beta = determine_beta(masked, theta)
        for params in (WeightParams(b=50.0, c=1.0), WeightParams(b=0.5, c=0.1)):
            report = determine_weights_and_delta(candidates(masked, theta, beta), params,
                                                 strategy=strategy, seed=4)
            rows, best, _ = grid_by_fresh_composes(candidates(masked, theta, beta), strategy, 4,
                                                   runs=4, params=params)
            assert report.diagnostics["delta_grid"] == rows
            assert (report.config.delta, report.weights.k1, report.weights.k2) == best
            assert (report.config.theta, report.config.beta) == (theta, beta)
            assert (report.weights.b, report.weights.c) == (params.b, params.c)

    def test_fitted_reports_hold_no_array_per_tuple(self):
        # the seed-3 input above: a memoized report keeps delta, the flags and
        # one loss and one normalizer per series, not the residual of each cell
        table, _ = generate_synthetic(150, 4, 4.0, seed=3, tick=10.0)
        masked = inject_mcar(table, 0.2, seed=1, target="values")
        theta = determine_theta(masked)
        rc = candidates(masked, theta, determine_beta(masked, theta))
        determine_weights_and_delta(rc, strategy="greedy", seed=3)
        assert rc.reports
        for report in rc.reports.values():
            arrays = [x for x in vars(report).values() if isinstance(x, np.ndarray)]
            assert len(arrays) == 2 and all(x.size <= rc.table.m for x in arrays)

    def test_memo_composes_each_distinct_pass_once(self, monkeypatch):
        # the seeds-3/4 inputs above; the ranking here is the dense rank of each
        # non-isolated candidate's weight within its conflict segment, and the
        # key holds that rank once per (p, d) class present in a segment
        def rank(rc, w):
            return segment_ranks_scan(rc, batch_weights(rc.table, rc.slots, w).tolist())

        composed = []
        compose_greedy = composers.compose_greedy

        def recording(rc, cfg, w, seed=0, max_retries=0):
            composed.append((rank(rc, w), seed))
            return compose_greedy(rc, cfg, w, seed=seed, max_retries=max_retries)

        monkeypatch.setattr(composers, "compose_greedy", recording)
        for seed in (3, 4):
            table, _ = generate_synthetic(150, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=1, target="values")
            theta = determine_theta(masked)
            rc = candidates(masked, theta, determine_beta(masked, theta))
            composed.clear()
            report = determine_weights_and_delta(rc, strategy="greedy", seed=seed)
            keys = {key for key, _ in composed}
            assert len(composed) == len(set(composed)) < len(DEFAULT_GRID) * 4
            assert {key for key, s in composed if s == seed} == keys
            # every grid point's ranking was composed, and its key ranks the classes
            for k1, k2 in DEFAULT_GRID:
                params = WeightParams(k1=k1, k2=k2)
                assert rank(rc, params) in keys
                key = composers.pass_key("greedy", rc, params)
                weights = batch_weights(rc.table, rc.slots, params).tolist()
                assert key == np.array(class_ranks_scan(rc, weights), dtype=np.int32).tobytes()
                assert len(key) < 4 * rc.visited.size
            assert report.diagnostics["grid_composes"] == len(composed)
            assert report.diagnostics["grid_distinct_passes"] == len(keys) < len(DEFAULT_GRID)
            assert composers.pass_key("expect", rc, WeightParams()) is None

    @pytest.mark.parametrize("strategy", ["greedy", "expect"])
    def test_counts_segment_walks(self, strategy, monkeypatch):
        # the seeds-3/4 inputs above: expect walks every segment of every
        # compose.  greedy's first compose under a key walks the segments that
        # draw and those whose within-segment ranks no earlier first compose
        # stored; every later compose under the key walks exactly the
        # segments that draw, which are the same under every seed.
        composed = []
        compose = composers.compose

        def recording(strategy, rc, cfg, w, seed=0, max_retries=0):
            alignment = compose(strategy, rc, cfg, w, seed=seed, max_retries=max_retries)
            composed.append((w, seed, alignment.segment_walks))
            return alignment

        monkeypatch.setattr(composers, "compose", recording)
        repeats = 0
        for seed in (3, 4):
            table, _ = generate_synthetic(150, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=1, target="values")
            theta = determine_theta(masked)
            rc = candidates(masked, theta, determine_beta(masked, theta))
            composed.clear()
            diagnostics = determine_weights_and_delta(rc, strategy=strategy,
                                                      seed=seed).diagnostics
            segments = diagnostics["segments"]
            assert segments == len(rc.segment_bounds) - 1 > 10
            assert diagnostics["grid_composes"] == len(composed)
            assert diagnostics["grid_segment_walks"] == sum(walked for _, _, walked in composed)
            if strategy == "expect":
                assert all(walked == segments for _, _, walked in composed)
                continue
            bounds = segment_bounds_scan(rc)
            drawing, stored = {}, set()
            for w, s, walked in composed:
                weights = batch_weights(rc.table, rc.slots, w).tolist()
                ranks = segment_ranks_scan(rc, weights)
                drew = drawing_segments_scan(rc, weights, s)
                if ranks in drawing:
                    assert drew == drawing[ranks]
                    assert walked == len(drew)
                    repeats += 1
                    continue
                drawing[ranks] = drew
                local = list(enumerate(ranks[lo:hi] for lo, hi in zip(bounds, bounds[1:])))
                assert walked == sum(j in drew or (j, key) not in stored for j, key in local)
                stored |= {(j, key) for j, key in local if j not in drew}
        assert strategy == "expect" or repeats

    def test_tied_classes_get_their_own_key(self):
        # A = (0, 1, 0) has p = 1, d = 2 and B = (0, 3, 2) has p = 3, d = 6; they
        # share cell (0, 0).  With b = c = 1, A weighs (k1 + 1) / (2 k2 + 1) and B
        # (3 k1 + 1) / (6 k2 + 1): both exactly 1.0 when k1 = 2 k2, as at (2, 1)
        # and (4, 2), A heavier below that line and B above it.  A ranking that
        # broke the tie would file the tied points with one side or the other.
        rng = np.random.default_rng(17)
        ts = np.tile(np.arange(12.0), (3, 1))
        vs = rng.normal(size=(3, 12))
        vs[2, 0] = np.nan
        slots = [(0, 1, 0), (0, 3, 2)] + [(i, i, i) for i in range(4, 12)]
        rc = CandidateSet(np.array(slots), ConstraintConfig(theta=1e9, beta=3),
                          SeriesTable(ts, vs))
        ids, p, d = rc.weight_classes
        assert (p[ids[:2]].tolist(), d[ids[:2]].tolist()) == ([1.0, 3.0], [2.0, 6.0])
        assert rc.isolated.tolist() == [False, False] + [True] * 8
        for k1, k2 in ((2, 1), (4, 2), (6, 3)):
            weights = batch_weights(rc.table, rc.slots[:2], WeightParams(k1=k1, k2=k2))
            assert weights.tolist() == [1.0, 1.0]
        report = determine_weights_and_delta(rc, strategy="greedy", seed=0)
        rows, best, drew = grid_by_fresh_composes(rc, "greedy", 0, runs=4)
        assert report.diagnostics["delta_grid"] == rows
        assert (report.config.delta, report.weights.k1, report.weights.k2) == best
        assert drew == 3
        # A only, B only, and the seeds' mix of both at the tied points
        assert len({row["delta_bar"] for row in rows}) == 3
        assert report.diagnostics["grid_distinct_passes"] == 3
        assert report.diagnostics["grid_composes"] == 1 + 4 + 1

    def test_rejects_empty_grid(self):
        table, _ = generate_synthetic(20, 2, 1.0, seed=4)
        with pytest.raises(ConfigError):
            determine_weights_and_delta(candidates(table, theta=3.0, beta=1), grid=[])

    def test_end_to_end_default_grid_regression(self):
        table, _ = generate_synthetic(120, 3, 1.2, seed=11)
        theta = determine_theta(table, percentile=95)
        beta = determine_beta(table, theta, beta_lower=0)
        report = determine_weights_and_delta(candidates(table, theta, beta),
                                             strategy="greedy", seed=0, runs=2)
        assert math.isfinite(report.config.delta)
        assert report.config.delta > 0
        # frozen baseline from the first run of this configuration
        assert report.config.delta == pytest.approx(0.10886527869442479, rel=1e-6)

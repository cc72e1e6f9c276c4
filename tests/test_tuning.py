import math
import random

import pytest

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
from tsalign.composers import _expectation_scorer
from tsalign.tuning import DEFAULT_GRID, _beta_from_samples, nearest_rank
from conftest import group_pass_scan


def grid_by_fresh_composes(t, theta, beta, strategy, seed, runs):
    """Oracle for the tuning grid: every grid point and seed scanned, every report fitted anew.

    Returns the delta_grid rows, the winning (delta_bar, k1, k2), and how many
    grid points drew a random tie-break.
    """
    rc = generate_candidates(t, ConstraintConfig(theta=theta, beta=beta))
    slots = [r.slots for r in rc.tuples]
    rows, drew = [], 0
    for k1, k2 in DEFAULT_GRID:
        weights = batch_weights(t, slots, WeightParams(k1=k1, k2=k2)).tolist()
        scorer = _expectation_scorer(rc, weights) if strategy == "expect" else None
        deltas = []
        for i in range(runs):
            rng = random.Random(seed + i)
            chosen = group_pass_scan(rc, weights, rng, scorer)
            drew += i == 0 and rng.getstate() != random.Random(seed).getstate()
            deltas.append(delta_report([rc.tuples[j] for j in chosen], t).delta)
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
        assert _beta_from_samples([0, 0, 0, 0, 1, 1, 1, 2, 2, 3], beta_lower=0) == 2
        assert _beta_from_samples([0, 0, 0, 0], beta_lower=0) == 1
        assert _beta_from_samples([], beta_lower=2) == 3

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


class TestDetermineWeightsAndDelta:
    def test_single_point_grid(self):
        table, _ = generate_synthetic(30, 2, 1.0, seed=2)
        report = determine_weights_and_delta(table, theta=3.0, beta=1,
                                             grid=[(3, 2)], strategy="greedy", seed=0)
        assert (report.k1, report.k2) == (3.0, 2.0)
        assert report.b == 1.0 and report.c == 1.0
        assert report.delta == report.diagnostics["delta_grid"][0]["delta_bar"]

    def test_argmin_selection(self):
        table, _ = generate_synthetic(40, 2, 1.0, seed=3)
        report = determine_weights_and_delta(table, theta=3.0, beta=1,
                                             grid=[(1, 1), (4, 2), (2, 5)],
                                             strategy="greedy", seed=1)
        grid_rows = report.diagnostics["delta_grid"]
        best = min(r["delta_bar"] for r in grid_rows)
        assert report.delta == best
        winner = [r for r in grid_rows if r["delta_bar"] == best][0]
        assert (report.k1, report.k2) == (winner["k1"], winner["k2"])

    def test_lexicographic_tie_break(self):
        # zero jitter + beta 0 leaves only conflict-free diagonal candidates, so
        # every grid point composes the same alignment and ties on delta-bar
        table, _ = generate_synthetic(20, 2, 0.0, seed=8)
        report = determine_weights_and_delta(table, theta=0.5, beta=0,
                                             grid=[(5, 5), (2, 2), (2, 1), (1, 6)],
                                             strategy="greedy", seed=0)
        deltas = {r["delta_bar"] for r in report.diagnostics["delta_grid"]}
        assert len(deltas) == 1
        assert (report.k1, report.k2) == (1.0, 6.0)

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
            report = determine_weights_and_delta(masked, theta, beta,
                                                 strategy=strategy, seed=seed)
            rows, best, grid_drew = grid_by_fresh_composes(masked, theta, beta,
                                                           strategy, seed, runs=4)
            assert report.diagnostics["delta_grid"] == rows
            assert (report.delta, report.k1, report.k2) == best
            drew += grid_drew
        assert 0 < drew < 2 * len(DEFAULT_GRID)

    def test_rejects_empty_grid(self):
        table, _ = generate_synthetic(20, 2, 1.0, seed=4)
        with pytest.raises(ConfigError):
            determine_weights_and_delta(table, theta=3.0, beta=1, grid=[])

    def test_end_to_end_default_grid_regression(self):
        table, _ = generate_synthetic(120, 3, 1.2, seed=11)
        theta = determine_theta(table, percentile=95)
        beta = determine_beta(table, theta, beta_lower=0)
        report = determine_weights_and_delta(table, theta, beta,
                                             strategy="greedy", seed=0, runs=2)
        assert math.isfinite(report.delta)
        assert report.delta > 0
        # frozen baseline from the first run of this configuration
        assert report.delta == pytest.approx(0.10886527869442479, rel=1e-6)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    ConfigError,
    ConstraintConfig,
    SeriesTable,
    SizeError,
    WeightParams,
    compose_greedy,
    conflicts,
    determine_beta,
    determine_theta,
    generate_candidates,
    generate_synthetic,
    inject_mcar,
    phi_similarity,
    theta_similarity,
)
from tsalign import candidate
from tsalign.core import combine_weights
from conftest import (
    aligned_tuples,
    brute_force_candidates,
    gappy_table,
    index_spread,
    pair_count,
    random_table,
    segment_bounds_scan,
    walk_scan,
    weight,
)

# the walk oracle visits every candidate in Python; the fixed cases below
# stay under this many, which keeps each comparison well under a second
WALK_CAP = 150_000
# (m, n) of the tuned-window cases: the largest n per m under WALK_CAP
WALK_SIZES = [(2, 300), (3, 300), (4, 120), (5, 30), (6, 12)]
# (m, n) where even theta = inf and beta >= n stay under WALK_CAP (n^m candidates)
FULL_SIZES = [(2, 40), (3, 20), (4, 10), (5, 7), (6, 6)]


@st.composite
def small_tables(draw):
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    rate = draw(st.sampled_from([0.0, 0.2, 0.5]))
    return random_table(np.random.default_rng(seed), m, n, rate)


class TestGenerateCandidates:
    def test_diagonal_only(self, staggered_table):
        cfg = ConstraintConfig(theta=2, beta=0)
        rc = generate_candidates(staggered_table, cfg)
        assert rc.slots.tolist() == [[0, 0], [1, 1], [2, 2]]

    def test_zero_theta_empty(self, staggered_table):
        rc = generate_candidates(staggered_table, ConstraintConfig(theta=0, beta=0))
        assert len(rc) == 0

    def test_loose_constraints_admit_everything(self, staggered_table):
        rc = generate_candidates(staggered_table, ConstraintConfig(theta=25, beta=2))
        assert len(rc) == 9

    def test_empty_table(self):
        t = SeriesTable(np.zeros((2, 0)), np.zeros((2, 0)))
        rc = generate_candidates(t, ConstraintConfig(theta=1, beta=1))
        assert len(rc) == 0

    def test_sorted_without_duplicates(self, staggered_table):
        rc = generate_candidates(staggered_table, ConstraintConfig(theta=25, beta=2))
        slots = [tuple(r) for r in rc.slots.tolist()]
        assert slots == sorted(set(slots))

    def test_emitted_tuples_pass_recheck(self):
        rng = np.random.default_rng(42)
        t = random_table(rng, 3, 6, 0.3)
        cfg = ConstraintConfig(theta=15.0, beta=2)
        for r in aligned_tuples(generate_candidates(t, cfg).slots):
            assert phi_similarity(r) <= cfg.beta
            th = theta_similarity(r, t)
            assert th is None or th <= cfg.theta

    @settings(max_examples=150, deadline=None)
    @given(small_tables(), st.floats(0, 40), st.integers(0, 3))
    def test_oracle_equivalence(self, table, theta, beta):
        cfg = ConstraintConfig(theta=theta, beta=beta)
        fast = generate_candidates(table, cfg).slots.tolist()
        slow = brute_force_candidates(table, cfg).slots.tolist()
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(small_tables(), st.floats(0, 20), st.floats(0, 20), st.integers(0, 2), st.integers(0, 2))
    def test_monotone_in_thresholds(self, table, theta1, theta2, beta1, beta2):
        lo = ConstraintConfig(theta=min(theta1, theta2), beta=min(beta1, beta2))
        hi = ConstraintConfig(theta=max(theta1, theta2), beta=max(beta1, beta2))
        small = {tuple(r) for r in generate_candidates(table, lo).slots.tolist()}
        large = {tuple(r) for r in generate_candidates(table, hi).slots.tolist()}
        assert small <= large


def assert_matches_walk(t: SeriesTable, theta: float, beta: int) -> None:
    """``generate_candidates(...).slots`` equals the walk in dtype, shape and row order."""
    cfg = ConstraintConfig(theta=theta, beta=beta)
    fast = generate_candidates(t, cfg).slots
    assert len(fast) <= WALK_CAP
    walk = walk_scan(t, cfg)
    assert fast.dtype == walk.dtype == np.int32
    assert fast.shape == walk.shape == (len(walk), t.m)
    assert np.array_equal(fast, walk)


def tuned_theta(t: SeriesTable) -> float:
    try:
        return determine_theta(t)
    except ConfigError:  # no row with two timestamps
        return 10.0


class TestMatchesWalk:
    """The level-wise generator against the recursive walk it replaced."""

    @pytest.mark.parametrize("m, n", WALK_SIZES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scan_and_tuned_windows(self, m, n, seed):
        t = gappy_table(np.random.default_rng([m, n, seed]), m, n)
        theta = tuned_theta(t)
        # the beta scan's window (beta_lower 0), the tuned beta, theta = 0 and beta = 0
        for theta_k, beta in ((theta, m), (theta, determine_beta(t, theta)),
                              (0.0, m), (theta, 0)):
            assert_matches_walk(t, theta_k, beta)

    @pytest.mark.parametrize("m, n", FULL_SIZES)
    def test_window_wider_than_table(self, m, n):
        t = gappy_table(np.random.default_rng([m, n]), m, n)
        for theta in (tuned_theta(t), math.inf):
            for beta in (n - 1, n, n + 1, 10**12):
                assert_matches_walk(t, theta, beta)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_empty_and_single_row_tables(self, m):
        rng = np.random.default_rng(m)
        for n in (0, 1, 2):
            t = gappy_table(rng, m, n)
            for theta in (0.0, 5.0, math.inf):
                for beta in (0, 1, m):
                    assert_matches_walk(t, theta, beta)

    @pytest.mark.parametrize("m, n", WALK_SIZES)
    def test_series_without_timestamps(self, m, n):
        t = gappy_table(np.random.default_rng([m, n, 7]), m, n)
        ts = np.array(t.timestamps)
        ts[m // 2] = np.nan
        t = SeriesTable(ts, t.values)
        theta = tuned_theta(t)
        for beta in (0, 1, determine_beta(t, theta)):
            assert_matches_walk(t, theta, beta)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(FULL_SIZES), st.data())
    def test_random_small_tables(self, seed, size, data):
        m, n_max = size
        n = data.draw(st.integers(0, n_max))
        theta = data.draw(st.sampled_from([0.0, math.inf]) | st.floats(0, 60))
        beta = data.draw(st.integers(0, n + 2))
        assert_matches_walk(gappy_table(np.random.default_rng(seed), m, n), theta, beta)


def test_level_overflowing_int32_is_size_error(monkeypatch, staggered_table):
    # a level of more than INT32_MAX expanded rows would wrap the int32 arrays
    monkeypatch.setattr(candidate, "INT32_MAX", 8)
    assert len(generate_candidates(staggered_table, ConstraintConfig(theta=25, beta=1))) == 7
    with pytest.raises(SizeError, match="overflow int32"):
        generate_candidates(staggered_table, ConstraintConfig(theta=25, beta=2))


class TestReadOnly:
    """The candidate arrays are shared by every compose of the set; none may be written."""

    def test_candidate_arrays_reject_writes(self, staggered_table):
        rc = generate_candidates(staggered_table, ConstraintConfig(theta=25, beta=2))
        for array in (rc.slots, *rc.weight_terms, rc.isolated, rc.class_representatives,
                      rc.slot_columns, rc.row_starts, rc.visited, rc.segment_bounds):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        with pytest.raises(ValueError, match="read-only"):
            rc.slots += 1
        assert rc.slots[0].tolist() == [0, 0]

    def test_hand_made_set_is_read_only_too(self, staggered_table):
        slots = np.array([[0, 0], [1, 1]])
        rc = brute_force_candidates(staggered_table, ConstraintConfig(theta=2, beta=0))
        for made in (rc, type(rc)(slots, rc.config, staggered_table)):
            assert made.slots.dtype == np.int32
            with pytest.raises(ValueError, match="read-only"):
                made.slots[0, 0] = 1
        slots[0, 0] = 1  # the caller's own array stays writeable

    def test_alignment_slots_reject_writes(self, staggered_table, fig_params):
        cfg = ConstraintConfig(theta=2, beta=0)
        alignment = compose_greedy(generate_candidates(staggered_table, cfg), cfg, fig_params)
        with pytest.raises(ValueError, match="read-only"):
            alignment.slots[0, 0] = 2


class TestCandidateState:
    @settings(max_examples=80, deadline=None)
    @given(small_tables(), st.floats(0, 40), st.integers(0, 3))
    def test_cached_state_matches_scalar_helpers(self, table, theta, beta):
        rc = generate_candidates(table, ConstraintConfig(theta=theta, beta=beta))
        assert rc.slots.shape == (len(rc), table.m) and rc.slots.dtype == np.int32
        tuples = aligned_tuples(rc.slots)
        p, d = rc.weight_terms
        assert p.tolist() == [pair_count(r, table) for r in tuples]
        assert d.tolist() == [index_spread(r) for r in tuples]
        params = WeightParams(k1=3, k2=2)
        assert combine_weights(p, d, params).tolist() == pytest.approx(
            [weight(r, table, params) for r in tuples], rel=1e-12)
        assert rc.isolated.tolist() == [
            not any(conflicts(r, o) for j, o in enumerate(tuples) if j != i)
            for i, r in enumerate(tuples)]
        # one representative per (p, d) class of the non-isolated candidates
        classes = list(zip(p.tolist(), d.tolist()))
        reps = rc.class_representatives.tolist()
        assert not rc.isolated[reps].any()
        assert sorted(classes[i] for i in reps) == sorted(
            {c for c, alone in zip(classes, rc.isolated) if not alone})
        # the row window state of expect
        assert rc.slot_spread == max((max(r.slots) - min(r.slots) for r in tuples), default=0)
        assert rc.slot_columns.flags.c_contiguous
        assert np.array_equal(rc.slot_columns, rc.slots.T)
        assert rc.row_starts.tolist() == [sum(r.slots[0] < row for r in tuples)
                                          for row in range(table.n + 1)]


class TestSegments:
    @settings(max_examples=120, deadline=None)
    @given(small_tables(), st.floats(0, 40), st.integers(0, 3))
    def test_bounds_match_the_split_scan(self, table, theta, beta):
        rc = generate_candidates(table, ConstraintConfig(theta=theta, beta=beta))
        assert rc.visited.tolist() == np.flatnonzero(~rc.isolated).tolist()
        assert rc.segment_bounds.tolist() == segment_bounds_scan(rc)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_bounds_match_the_split_scan_on_tuned_inputs(self, seed):
        # missing values leave many short segments (the --tune-delta input);
        # missing timestamps widen the windows into one or two long ones
        for n, target in ((150, "values"), (60, "both")):
            table, _ = generate_synthetic(n, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=1, target=target)
            theta = determine_theta(masked)
            rc = generate_candidates(masked, ConstraintConfig(
                theta=theta, beta=determine_beta(masked, theta)))
            bounds = rc.segment_bounds.tolist()
            assert bounds == segment_bounds_scan(rc)
            if target == "values":
                assert 10 < len(bounds) - 1 < rc.visited.size / 2

    def test_hand_made_bounds(self):
        # a-b share (0, 1); c-d share (1, 4) and d-e share (0, 5), so c..e is one
        # segment though c and e share nothing; the isolated i splits nothing
        t = SeriesTable(np.tile(np.arange(8.0), (2, 1)), np.ones((2, 8)))
        slots = [(1, 1), (1, 2), (3, 4), (4, 0), (5, 4), (5, 6), (7, 7)]
        rc = candidate.CandidateSet(np.array(slots), ConstraintConfig(theta=1e9, beta=9), t)
        assert rc.isolated.tolist() == [False, False, False, True, False, False, True]
        assert rc.visited.tolist() == [0, 1, 2, 4, 5]
        assert rc.segment_bounds.tolist() == [0, 2, 5] == segment_bounds_scan(rc)

    def test_empty_and_all_isolated(self, staggered_table):
        for theta in (0, 2):
            rc = generate_candidates(staggered_table, ConstraintConfig(theta=theta, beta=0))
            assert rc.segment_bounds.tolist() == [0] == segment_bounds_scan(rc)


class TestBruteForce:
    def test_single_row(self):
        t = SeriesTable.from_columns([([1.0], [1.0]), ([1.0], [2.0]), ([1.0], [3.0])])
        rc = brute_force_candidates(t, ConstraintConfig(theta=0, beta=0))
        assert rc.slots.tolist() == [[0, 0, 0]]

    def test_guard(self):
        t = SeriesTable(np.sort(np.random.default_rng(0).uniform(0, 1, (4, 100)), axis=1),
                        np.zeros((4, 100)))
        with pytest.raises(SizeError):
            brute_force_candidates(t, ConstraintConfig(theta=1, beta=1))

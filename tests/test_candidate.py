import math
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    ConfigError,
    ConstraintConfig,
    SeriesTable,
    SizeError,
    StructuralError,
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
from tsalign.candidate import _runs
from tsalign.composers import compose
from tsalign.core import combine_weights, weight_terms
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


@contextmanager
def split_at(split: int):
    """Levels of more than ``split`` expanded rows split into runs of prefixes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(candidate, "SPLIT_ROWS", split)
        yield


# split thresholds: 1 splits every level into single prefixes, 3 to 13 cut
# the first level into runs of one to a few first-series rows under the
# windows of beta <= 3, and the default splits none of these small inputs
SPLITS = [1, 2, 3, 5, 7, 13, candidate.SPLIT_ROWS]
# a level split into single prefixes costs a call per prefix, so the inputs
# with small splits stay under this many candidates (n * (2 beta + 1)^(m - 1))
EDGE_CAP = 2000
# (m, n) where even theta = inf and beta >= n stay under EDGE_CAP (n^m candidates)
EDGE_SIZES = [(2, 12), (3, 8), (4, 5), (5, 4), (6, 3)]


class TestSplitEdges:
    """Levels split into runs of a few prefixes each give the same slot array."""

    @settings(max_examples=150, deadline=None)
    @given(small_tables(), st.floats(0, 40), st.integers(0, 3), st.sampled_from(SPLITS))
    def test_oracle_equivalence(self, table, theta, beta, split):
        cfg = ConstraintConfig(theta=theta, beta=beta)
        with split_at(split):
            fast = generate_candidates(table, cfg).slots
        assert fast.tolist() == brute_force_candidates(table, cfg).slots.tolist()

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(EDGE_SIZES), st.sampled_from(SPLITS),
           st.data())
    def test_random_small_tables(self, seed, size, split, data):
        m, n_max = size
        n = data.draw(st.integers(0, n_max))
        theta = data.draw(st.sampled_from([0.0, math.inf]) | st.floats(0, 60))
        beta = data.draw(st.integers(0, n + 2))
        with split_at(split):
            assert_matches_walk(gappy_table(np.random.default_rng(seed), m, n), theta, beta)

    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_fixed_edges(self, split, m):
        # n = 0, n below one run, beta >= n, and windows that straddle the
        # edges of the runs
        for n in (0, 1, 2, 4, 7, 40):
            t = gappy_table(np.random.default_rng([m, n, split]), m, n)
            for theta in (tuned_theta(t), math.inf):
                for beta in (0, 1, 2, n, n + 3):
                    if n * min(2 * beta + 1, n) ** (m - 1) > EDGE_CAP:
                        continue
                    with split_at(split):
                        assert_matches_walk(t, theta, beta)

    @pytest.mark.parametrize("split", [3, 13, 64])
    @pytest.mark.parametrize("m, n", WALK_SIZES[:4])
    def test_same_beta(self, split, m, n):
        # at the scan's window (beta >= m) every level of these tables splits
        t = gappy_table(np.random.default_rng([m, n, 9]), m, n)
        theta = tuned_theta(t)
        want = determine_beta(t, theta)
        with split_at(split):
            assert determine_beta(t, theta) == want

    @pytest.mark.parametrize("n, m, rate, target", [(8000, 4, 0.2, "values"),
                                                    (300, 6, 0.3, "both")])
    def test_default_split_at_real_size(self, monkeypatch, n, m, rate, target):
        # the beta scan's window, where the default SPLIT_ROWS splits the
        # first level (and at m = 6 deeper ones, five calls deep)
        table, _ = generate_synthetic(n, m, 4.0, seed=3, tick=10.0)
        table = inject_mcar(table, rate, seed=1, target=target)
        cfg = ConstraintConfig(theta=determine_theta(table), beta=m)
        splits = []

        def runs(widths, limit):
            splits.append(widths.size)
            return _runs(widths, limit)

        monkeypatch.setattr(candidate, "_runs", runs)
        rc, peak = traced_peak(lambda: generate_candidates(table, cfg))
        assert splits and len(rc) > n
        with split_at(candidate.INT32_MAX):
            assert np.array_equal(rc.slots, generate_candidates(table, cfg).slots)
        assert peak <= 2 * rc.slots.nbytes + 64 * candidate.SPLIT_ROWS


def traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    @pytest.mark.parametrize("target", ["values", "both"])
    def test_generation_holds_the_output_and_one_level(self, target):
        table, _ = generate_synthetic(20000, 4, 4.0, seed=3, tick=10.0)
        table = inject_mcar(table, 0.2, seed=1, target=target)
        # the beta scan's window
        cfg = ConstraintConfig(theta=determine_theta(table), beta=table.m)
        rc, peak = traced_peak(lambda: generate_candidates(table, cfg))
        # the pieces and their concatenation, plus the temporaries of a level
        # of at most SPLIT_ROWS expanded rows: per row its int32 parent, row
        # and offset, its float64 timestamp and the two repeated ranges, the
        # masks, and the ranges of the next level
        assert len(rc) > 20000
        assert peak <= 2 * rc.slots.nbytes + 64 * candidate.SPLIT_ROWS

    @staticmethod
    def tuned_set(n, target):
        table, _ = generate_synthetic(n, 4, 4.0, seed=1, tick=10.0)
        table = inject_mcar(table, 0.2, seed=1, target=target)
        theta = determine_theta(table)
        return generate_candidates(table, ConstraintConfig(
            theta=theta, beta=determine_beta(table, theta)))

    @pytest.fixture(scope="class")
    def long_values_set(self):
        """The candidate set of the ``long_values`` benchmark input (n=8000, m=4)."""
        return self.tuned_set(8000, "values")

    @pytest.fixture(scope="class")
    def dense_expect_set(self):
        """The candidate set of the ``dense_expect`` benchmark input (n=300, m=4)."""
        return self.tuned_set(300, "both")

    def test_class_build_holds_the_terms_and_six_bytes_a_candidate(self):
        # scenario (b): n=2000, m=4, 40 % of both halves missing, tuned windows
        table, _ = generate_synthetic(2000, 4, 4.0, seed=7)
        table = inject_mcar(table, 0.4, seed=8, target="both")
        theta = determine_theta(table)
        rc = generate_candidates(table, ConstraintConfig(
            theta=theta, beta=determine_beta(table, theta)))
        k = len(rc)
        assert k > 90_000
        _, terms = traced_peak(lambda: weight_terms(rc.table, rc.slots))
        _, peak = traced_peak(lambda: rc.weight_classes)
        # the terms peak at their two floats and two intp sums (32 bytes a
        # candidate); the build holds the two floats, the int64 key, its intp
        # positions among the distinct keys and their int32 ids (36 bytes).
        # A sorted copy of the key or an intp sort order breaks the bound.
        assert peak <= terms + 6 * k

    def test_isolated_counts_one_series_at_a_time(self, long_values_set):
        rc = replace(long_values_set)  # the same candidates, nothing cached yet
        k, n = len(rc), rc.table.n
        mask, peak = traced_peak(lambda: rc.isolated)
        assert mask.shape == (k,) and k > 8000
        # per candidate: the mask, bincount's intp copy of one series' slots
        # and that series' bool gather; per row of one series: its intp count
        # and its bool.  A bincount over the N * m cell keys of all series at
        # once holds 8 bytes a key and breaks the bound.
        assert peak <= 10 * k + 9 * n

    @pytest.mark.parametrize("name", ["long_values_set", "dense_expect_set"])
    def test_segment_bounds_hold_int32_positions(self, request, name):
        rc = replace(request.getfixturevalue(name))  # the same candidates, nothing cached yet
        rc.visited_cells
        bounds, peak = traced_peak(lambda: rc.segment_bounds)
        assert bounds.tolist() == segment_bounds_scan(rc)
        # per visited candidate: its int32 position and reach, one int32
        # gather of last positions, the end mask and the intp segment ends;
        # per cell: its int32 last position.  intp positions, last positions
        # and reach break the bound.
        visited = rc.visited.size
        assert visited > 3000
        assert peak <= 24 * visited + 4 * rc.table.m * rc.table.n

    def test_pass_state_has_no_list_per_candidate(self, long_values_set):
        rc = replace(long_values_set)  # the same candidates, nothing cached yet
        visited = rc.visited.size
        assert visited > 1000
        # the set's one slot store, one contiguous row per series
        columns = rc.slots.T
        assert columns.flags.c_contiguous and not columns.flags.writeable
        assert columns.shape == (rc.table.m, len(rc)) and columns.dtype == np.int32
        cells, peak = traced_peak(lambda: rc.visited_cells)
        assert cells.dtype == np.int32 and cells.shape == (visited, rc.table.m)
        with pytest.raises(ValueError, match="read-only"):
            cells[0, 0] = 0
        # per visited candidate: its int32 cell keys and the gather's buffers
        assert peak / visited <= 8 * rc.table.m
        # the group pass and expect's scorer read the arrays; no compose
        # leaves a Python list on the set
        for strategy in ("greedy", "expect"):
            compose(strategy, rc, rc.config, WeightParams(k1=3, k2=2))
        assert rc.reports and rc.walks
        # the greedy keys hold 4 bytes per (segment, class) pair, not per candidate
        pairs = rc.class_table[1]
        assert all(len(ranks) == 4 * (pairs[j + 1] - pairs[j]) for j, ranks in rc.walks)
        assert [len(ranks) for ranks in rc._ranks.values()] == [4 * pairs[-1]]
        assert not [name for name, value in vars(rc).items() if isinstance(value, list)]
        # the weight state is an int32 class per candidate and a p and d per
        # class; no array on the set holds a float per candidate
        ids, p, d = rc.weight_classes
        assert ids.dtype == np.int32 and ids.shape == (len(rc),)
        assert ids.nbytes + p.nbytes + d.nbytes <= 4 * len(rc) + 16 * p.size
        assert p.size < len(rc) / 100
        arrays = {(name, j): a for name, value in vars(rc).items()
                  for j, a in enumerate(value if isinstance(value, tuple) else (value,))
                  if isinstance(a, np.ndarray)}
        assert not [a.shape for a in arrays.values()
                    if a.dtype.kind == "f" and a.size >= len(rc)]
        # the slots are held once: apart from the visited candidates' cell
        # keys, no cached array is another int32 array of N * m entries
        size = len(rc) * rc.table.m
        assert [name for (name, _), a in arrays.items() if name != "slots"
                and a.dtype == np.int32 and a.size == size] in ([], ["visited_cells"])


def test_level_overflowing_int32_is_size_error(monkeypatch, staggered_table):
    # a level of more than INT32_MAX expanded rows would wrap the int32 arrays
    monkeypatch.setattr(candidate, "INT32_MAX", 8)
    assert len(generate_candidates(staggered_table, ConstraintConfig(theta=25, beta=1))) == 7
    with pytest.raises(SizeError, match="overflow int32"):
        generate_candidates(staggered_table, ConstraintConfig(theta=25, beta=2))


def test_split_level_overflowing_int32_is_size_error(monkeypatch):
    # a split level's runs add up to one total: splitting below the limit
    # must not hide a level that overflows it
    t = gappy_table(np.random.default_rng(0), 3, 3)
    cfg = ConstraintConfig(theta=math.inf, beta=2)
    # each level splits into single prefixes; series 3 expands 9 * 3 rows
    monkeypatch.setattr(candidate, "SPLIT_ROWS", 4)
    monkeypatch.setattr(candidate, "INT32_MAX", 27)
    assert len(generate_candidates(t, cfg)) == 27
    monkeypatch.setattr(candidate, "INT32_MAX", 26)
    with pytest.raises(SizeError, match="at series 3 overflow int32"):
        generate_candidates(t, cfg)


def test_cell_keys_overflowing_int32_is_size_error(monkeypatch, staggered_table):
    cfg = ConstraintConfig(theta=25, beta=1)
    rc, visited, exact = (generate_candidates(staggered_table, cfg) for _ in range(3))
    alone = rc.isolated.tolist()
    monkeypatch.setattr(candidate, "INT32_MAX", 5)  # m * n = 6 cells
    # the isolated mask counts each series' rows on their own, with no cell keys
    assert visited.isolated.tolist() == alone and visited.visited.size
    with pytest.raises(SizeError, match="cell keys"):
        visited.visited_cells
    with pytest.raises(SizeError, match="cell keys"):
        compose("exact", exact, cfg, WeightParams())


class TestReadOnly:
    """The candidate arrays are shared by every compose of the set; none may be written."""

    def test_candidate_arrays_reject_writes(self, staggered_table):
        rc = generate_candidates(staggered_table, ConstraintConfig(theta=25, beta=2))
        for array in (rc.slots, rc.slots.T, *rc.weight_classes, rc.isolated,
                      *rc.class_table, rc.row_starts, rc.visited, rc.visited_cells,
                      rc.segment_bounds):
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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_set_owns_its_slots(self, staggered_table, order):
        # a later write to the caller's array leaves the set as it was built
        slots = np.array([[0, 0], [1, 1], [2, 2]], dtype=np.int32, order=order)
        rc = candidate.CandidateSet(slots, ConstraintConfig(theta=25, beta=0), staggered_table)
        slots[1] = 0
        assert rc.slots.tolist() == [[0, 0], [1, 1], [2, 2]]
        assert rc.isolated.tolist() == [True, True, True]
        assert not np.shares_memory(rc.slots, slots)
        columns = rc.slots.T
        assert columns.flags.c_contiguous and not columns.flags.writeable

    def test_alignment_slots_reject_writes(self, staggered_table, fig_params):
        cfg = ConstraintConfig(theta=2, beta=0)
        alignment = compose_greedy(generate_candidates(staggered_table, cfg), cfg, fig_params)
        with pytest.raises(ValueError, match="read-only"):
            alignment.slots[0, 0] = 2


class TestSlotOrder:
    """Every reader of a set relies on its rows being in strictly ascending
    lexicographic order, so a set made from rows out of that order is refused."""

    @staticmethod
    def two_series():
        table = SeriesTable.from_columns([([0.0, 10.0, 20.0], [1.0, 2.0, 3.0]),
                                          ([1.0, 11.0, 21.0], [2.0, 2.5, 4.0])])
        return table, generate_candidates(table, ConstraintConfig(theta=30, beta=2))

    def test_permuted_rows_are_structural_error(self):
        # composed, these rows gave greedy and expect a weight of 5.6 instead
        # of 12.0 and every strategy its slots out of order
        table, rc = self.two_series()
        for strategy in ("exact", "setpack", "greedy", "expect"):
            alignment = compose(strategy, rc, rc.config, WeightParams(3, 2, 1, 1))
            assert alignment.total_weight == 12.0
            assert alignment.slots.tolist() == [[0, 0], [1, 1], [2, 2]]
        slots = rc.slots[np.random.default_rng(0).permutation(len(rc))]
        with pytest.raises(StructuralError, match=r"^candidate 2 \[0, 2\] is not above "
                                                  r"candidate 1 \[1, 2\]"):
            candidate.CandidateSet(slots, rc.config, table)
        for rows in (rc.slots, rc.slots[::2], rc.slots[:1], rc.slots[:0]):
            assert candidate.CandidateSet(rows, rc.config, table).slots.tolist() == rows.tolist()

    @pytest.mark.parametrize("rows, first", [
        ([[0, 1], [0, 1]], 1),  # a repeated row
        ([[0, 0], [1, 2], [1, 1]], 2),  # the first series ties, the second falls
        ([[0, 2], [1, 0], [2, 1], [1, 2]], 3),
    ])
    def test_first_row_not_above_the_one_before_is_named(self, rows, first):
        table, rc = self.two_series()
        with pytest.raises(StructuralError, match=f"^candidate {first} "):
            candidate.CandidateSet(np.array(rows), rc.config, table)


class TestCandidateState:
    @settings(max_examples=80, deadline=None)
    @given(small_tables(), st.floats(0, 40), st.integers(0, 3))
    def test_cached_state_matches_scalar_helpers(self, table, theta, beta):
        rc = generate_candidates(table, ConstraintConfig(theta=theta, beta=beta))
        assert rc.slots.shape == (len(rc), table.m) and rc.slots.dtype == np.int32
        tuples = aligned_tuples(rc.slots)
        ids, class_p, class_d = rc.weight_classes
        assert ids.dtype == np.int32 and ids.shape == (len(rc),)
        p, d = class_p[ids], class_d[ids]
        assert p.tolist() == [pair_count(r, table) for r in tuples]
        assert d.tolist() == [index_spread(r) for r in tuples]
        params = WeightParams(k1=3, k2=2)
        assert combine_weights(p, d, params).tolist() == pytest.approx(
            [weight(r, table, params) for r in tuples], rel=1e-12)
        assert rc.isolated.tolist() == [
            not any(conflicts(r, o) for j, o in enumerate(tuples) if j != i)
            for i, r in enumerate(tuples)]
        # the (p, d) classes present, each once, and their ids ascend in (p, d)
        # order; then the classes present in each conflict segment
        classes = list(zip(class_p.tolist(), class_d.tolist()))
        assert classes == sorted(set(zip(p.tolist(), d.tolist())))
        pair_classes, pair_bounds = (a.tolist() for a in rc.class_table)
        visited = [i for i, alone in enumerate(rc.isolated.tolist()) if not alone]
        bounds = segment_bounds_scan(rc)
        assert len(pair_bounds) == len(bounds) and pair_bounds[0] == 0
        assert pair_bounds[-1] == len(pair_classes)
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            present = [classes[c] for c in pair_classes[pair_bounds[j]:pair_bounds[j + 1]]]
            assert present == sorted({classes[ids[i]] for i in visited[lo:hi]})
        # the row window state of expect
        assert rc.slot_spread == max((max(r.slots) - min(r.slots) for r in tuples), default=0)
        columns = rc.slots.T
        assert columns.flags.c_contiguous and not columns.flags.writeable
        assert columns.tolist() == [[r.slots[k] for r in tuples] for k in range(table.m)]
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

    def test_table_without_rows(self):
        rc = generate_candidates(SeriesTable(np.zeros((2, 0)), np.zeros((2, 0))),
                                 ConstraintConfig(theta=5, beta=1))
        assert len(rc) == 0
        assert rc.isolated.shape == (0,) and rc.isolated.dtype == bool
        assert rc.visited_cells.shape == (0, 2) and rc.visited_cells.dtype == np.int32
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

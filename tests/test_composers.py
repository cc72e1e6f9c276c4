import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from tsalign import (
    ConstraintConfig,
    SeriesTable,
    SizeError,
    WeightParams,
    compose_exact,
    compose_expectation,
    compose_greedy,
    compose_setpacking,
    conflicts,
    determine_beta,
    determine_theta,
    determine_weights_and_delta,
    generate_candidates,
    generate_synthetic,
    inject_mcar,
)
from tsalign import composers
from tsalign.candidate import CandidateSet
from tsalign.composers import _expectation_scorer, _group_pass, _sum_in_order, _weights
from tsalign.core import batch_weights, combine_weights
from tsalign.tuning import DEFAULT_GRID
from tsalign.errors import ConfigError
from conftest import (
    CountingRandom,
    aligned_tuples,
    assert_same_alignment,
    expectation_scan,
    group_pass_scan,
    group_state_scan,
    mwis_bruteforce,
    random_table,
    segment_bounds_scan,
    segment_ranks_scan,
    setpack_scan,
    union_scorer,
    weight,
)


# the group scorer's size bound set to: every group in numpy, the shipped
# bound, every group in Python
SCORE_LIMITS = (0, composers.PYTHON_SCORE_LIMIT, 10**9)


def each_score_limit(monkeypatch):
    """Set ``composers.PYTHON_SCORE_LIMIT`` to each of ``SCORE_LIMITS`` in turn."""
    for limit in SCORE_LIMITS:
        monkeypatch.setattr(composers, "PYTHON_SCORE_LIMIT", limit)
        yield limit


def candidates_for(table, theta=1e9, beta=3, delta=math.inf):
    cfg = ConstraintConfig(theta=theta, beta=beta, delta=delta)
    return generate_candidates(table, cfg), cfg


def random_instance(seed, m=None, n=None, max_candidates=12):
    rng = np.random.default_rng(seed)
    m = m or int(rng.integers(2, 4))
    n = n or int(rng.integers(3, 7))
    table = random_table(rng, m, n, missing_rate=0.25)
    theta = float(rng.uniform(2, 25 * n))
    beta = int(rng.integers(0, 3))
    rc, cfg = candidates_for(table, theta=theta, beta=beta)
    if not 1 <= len(rc) <= max_candidates:
        return None
    params = WeightParams(k1=float(rng.integers(1, 5)), k2=float(rng.integers(1, 5)))
    return table, rc, cfg, params


def collect_instances(count, start_seed=0, **kwargs):
    found = []
    seed = start_seed
    while len(found) < count:
        inst = random_instance(seed, **kwargs)
        seed += 1
        if inst is not None:
            found.append(inst)
    return found


def assert_valid_alignment(alignment, rc, cfg, table, params):
    tuples = aligned_tuples(alignment.slots)
    for r1, r2 in itertools.combinations(tuples, 2):
        assert not conflicts(r1, r2)
    candidate_set = set(aligned_tuples(rc.slots))
    assert all(r in candidate_set for r in tuples)
    recomputed = sum(weight(r, table, params) for r in tuples)
    assert alignment.total_weight == pytest.approx(recomputed, abs=1e-9)
    if not alignment.exhausted:
        assert alignment.report.delta <= cfg.delta


@pytest.mark.parametrize("strategy", composers.STRATEGIES)
def test_total_weight_adds_left_to_right(strategy):
    # ten same-row candidates of weight 1 / 10 that share no cell; the builtin
    # sum gives 1.0 from Python 3.12 on, the left-to-right sum 0.9999999999999999
    ts = np.arange(10.0) * 10
    t = SeriesTable(np.stack([ts, ts]), np.ones((2, 10)))
    rc, cfg = candidates_for(t, theta=0, beta=0)
    alignment = composers.compose(strategy, rc, cfg, WeightParams(k1=0, k2=1, b=1, c=10))
    assert alignment.slots.tolist() == [[i, i] for i in range(10)]
    total = 0.0
    for _ in range(10):
        total += 0.1
    assert alignment.total_weight == total == 0.9999999999999999


class TestComposeExact:
    def test_non_conflicting_takes_all(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        alignment = compose_exact(rc, cfg, fig_params)
        assert alignment.slots.tolist() == [[0, 0], [1, 1], [2, 2]]
        assert alignment.total_weight == pytest.approx(9.0)

    def test_conflict_prefers_heavier(self, fig_params):
        # two candidates sharing a slot: weights 4 vs 1
        t = SeriesTable.from_columns([
            ([0.0, 5.0], [1.0, None]),
            ([0.0, 5.0], [1.0, 2.0]),
        ])
        rc, cfg = candidates_for(t, theta=10, beta=1)
        pool = rc.slots.tolist()
        assert [0, 0] in pool and [0, 1] in pool
        alignment = compose_exact(rc, cfg, fig_params)
        assert [0, 0] in alignment.slots.tolist()
        assert [0, 1] not in alignment.slots.tolist()

    def test_empty_candidates(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=0, beta=0)
        alignment = compose_exact(rc, cfg, fig_params)
        assert alignment.slots.tolist() == []
        assert alignment.total_weight == 0.0

    def test_guard(self, fig_params):
        rng = np.random.default_rng(0)
        t = random_table(rng, 2, 6, 0.0)
        rc, cfg = candidates_for(t, theta=1e9, beta=5)
        assert len(rc) > 24
        with pytest.raises(SizeError):
            compose_exact(rc, cfg, fig_params)

    def test_tie_breaks_to_lexicographically_smallest(self):
        t = SeriesTable.from_columns([
            ([0.0, 5.0], [1.0, 1.0]),
            ([0.0, 5.0], [1.0, 1.0]),
        ])
        rc, cfg = candidates_for(t, theta=10, beta=1)
        params = WeightParams(k1=3, k2=0, b=1, c=1)  # k2=0 ties every weight
        alignment = compose_exact(rc, cfg, params)
        # many subsets reach the optimum; the smallest sorted tuple list wins
        assert alignment.slots.tolist() == [[0, 0], [1, 1]]

    def test_matches_mwis_oracle_on_random_instances(self):
        for table, rc, cfg, params in collect_instances(40, start_seed=100):
            alignment = compose_exact(rc, cfg, params)
            tuples = aligned_tuples(rc.slots)
            weights = [weight(r, table, params) for r in tuples]
            pairs = [(i, j) for i in range(len(rc)) for j in range(i + 1, len(rc))
                     if conflicts(tuples[i], tuples[j])]
            assert alignment.total_weight == pytest.approx(
                mwis_bruteforce(weights, pairs, len(rc)), abs=1e-9)

    def test_respects_finite_delta(self):
        for table, rc, cfg, params in collect_instances(10, start_seed=400):
            tight = ConstraintConfig(theta=cfg.theta, beta=cfg.beta, delta=1e-12)
            alignment = compose_exact(rc, tight, params)
            assert alignment.report.delta <= 1e-12


class TestComposeGreedy:
    def test_singleton_groups_emit_everything(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        alignment = compose_greedy(rc, cfg, fig_params, seed=0)
        assert alignment.total_weight == pytest.approx(9.0)
        assert len(alignment) == 3

    def test_tie_break_emits_exactly_one(self):
        t = SeriesTable.from_columns([
            ([0.0, 5.0], [1.0, 1.0]),
            ([0.0, 5.0], [1.0, 1.0]),
        ])
        rc, cfg = candidates_for(t, theta=10, beta=1)
        conflicted = [r for r in rc.slots.tolist() if r[0] == 0]
        assert len(conflicted) >= 2
        params = WeightParams(k1=3, k2=0, b=1, c=1)  # k2=0 ties every weight
        seen = set()
        for seed in range(6):
            alignment = compose_greedy(rc, cfg, params, seed=seed)
            first = min(alignment.slots.tolist())
            seen.add(tuple(first))
            assert sum(1 for r in alignment.slots.tolist() if r[0] == 0) == 1
        assert len(seen) >= 2  # the seeded RNG actually varies the pick

    def test_deterministic_per_seed(self):
        for table, rc, cfg, params in collect_instances(5, start_seed=300):
            a = compose_greedy(rc, cfg, params, seed=7)
            b = compose_greedy(rc, cfg, params, seed=7)
            assert a.slots.tolist() == b.slots.tolist()
            assert a.total_weight == b.total_weight

    def test_exhausted_flag_on_impossible_delta(self):
        rng = np.random.default_rng(17)
        t = random_table(rng, 2, 5, 0.0)
        rc, _ = candidates_for(t, theta=1e9, beta=1)
        cfg = ConstraintConfig(theta=1e9, beta=1, delta=1e-15)
        alignment = compose_greedy(rc, cfg, WeightParams(), seed=0, max_retries=3)
        if alignment.report.delta > 1e-15:
            assert alignment.exhausted
            assert alignment.retries_used == 2


def greedy_pass(rc, params, rng):
    """``_group_pass`` as ``compose_greedy`` runs it under ``params``: with its
    ``pass_key``, so the pass reads and stores the set's greedy walks."""
    return _group_pass(rc, _weights(rc, params), rng,
                       ranks=composers.pass_key("greedy", rc, params))


def assert_pass_matches_scan(rc, table, params, seeds=(0, 1, 2, 3)):
    """Greedy and expect scoring: same chosen set, draw count and RNG state as the
    plain scan, whatever greedy walks ``rc`` has stored already.

    Returns the number of passes that drew a random tie-break.
    """
    weights = _weights(rc, params)
    segments = len(rc.segment_bounds) - 1
    drawn = 0
    for scorer in (None, _expectation_scorer(rc, weights)):
        ranks = None if scorer else composers.pass_key("greedy", rc, params)
        for seed in seeds:
            fast_rng, slow_rng = random.Random(seed), CountingRandom(seed)
            chosen, draws, walked, _ = _group_pass(rc, weights, fast_rng, scorer, ranks)
            assert sorted(chosen) == sorted(group_pass_scan(rc, weights, slow_rng, scorer))
            assert draws == slow_rng.draws
            assert fast_rng.getstate() == slow_rng.getstate()
            assert (draws == 0) == (fast_rng.getstate() == random.Random(seed).getstate())
            # expect walks every segment; greedy at most that
            assert walked == segments if scorer else walked <= segments
            drawn += draws > 0
    return drawn


class TestGroupPass:
    def test_matches_scan_with_many_isolated(self):
        # a theta below the jitter leaves about half of the candidates sharing
        # no cell with any other, as on the --tune-delta benchmark input
        isolated = total = drawn = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            table, _ = generate_synthetic(12, int(rng.integers(2, 5)), 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=seed + 1, target="values")
            rc, _ = candidates_for(masked, theta=float(rng.uniform(2, 8)), beta=1)
            isolated += int(rc.isolated.sum())
            total += len(rc)
            for params in (WeightParams(k1=3, k2=2), WeightParams(k1=3, k2=0)):
                drawn += assert_pass_matches_scan(rc, masked, params)
        assert isolated > total / 3
        assert drawn

    def test_matches_scan_without_isolated(self):
        drawn = 0
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            table = random_table(rng, int(rng.integers(2, 4)), 8, missing_rate=0.2)
            rc, _ = candidates_for(table, theta=1e9, beta=2)
            assert len(rc) and not rc.isolated.any()
            for params in (WeightParams(k1=1, k2=1), WeightParams(k1=3, k2=0)):
                drawn += assert_pass_matches_scan(rc, table, params)
        assert drawn

    def test_matches_scan_at_tuning_benchmark_size(self):
        # n=1000, m=4, 20 % of values missing, tuned windows, as in --tune-delta runs
        table, _ = generate_synthetic(1000, 4, 4.0, seed=31, tick=10.0)
        masked = inject_mcar(table, 0.2, seed=1, target="values")
        theta = determine_theta(masked)
        rc, _ = candidates_for(masked, theta=theta, beta=determine_beta(masked, theta))
        assert 0 < rc.isolated.sum() < len(rc)
        drawn = 0
        for k1, k2 in ((1, 1), (3, 2), (1, 6)):
            drawn += assert_pass_matches_scan(rc, masked, WeightParams(k1=k1, k2=k2), seeds=(0, 5))
        assert drawn

    def test_isolated_candidate_closes_the_group_before_it(self):
        # a and b share cell (1, 5); so does the lighter-spread k, which would
        # join their group were it not closed by the isolated i between them
        t = SeriesTable(np.tile(np.arange(10.0), (3, 1)), np.ones((3, 10)))
        slots = np.array([(0, 5, 5), (1, 5, 6), (2, 8, 8), (3, 5, 7)], dtype=np.int32)
        rc = CandidateSet(slots, ConstraintConfig(theta=1e9, beta=9), t)
        assert rc.isolated.tolist() == [False, False, True, False]
        params = WeightParams(k1=1, k2=1)
        assert_pass_matches_scan(rc, t, params)
        chosen, _, _, _ = greedy_pass(rc, params, random.Random(0))
        assert sorted(chosen) in ([0, 2], [1, 2])

    def test_empty_and_all_isolated(self, staggered_table, fig_params):
        rc, _ = candidates_for(staggered_table, theta=2, beta=0)
        assert rc.isolated.all()
        assert_pass_matches_scan(rc, staggered_table, fig_params)
        rc, _ = candidates_for(staggered_table, theta=0, beta=0)
        assert_pass_matches_scan(rc, staggered_table, fig_params)


class TestStrategyRegistry:
    def test_resolves_composer_at_call_time(self, monkeypatch, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        calls = []
        real = composers.compose_greedy

        def wrapped(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(composers, "compose_greedy", wrapped)
        composers.compose("greedy", rc, cfg, fig_params, seed=4, max_retries=2)
        assert calls == [{"seed": 4, "max_retries": 2}]

    def test_every_strategy_matches_its_composer(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=25, beta=1)
        direct = {
            "exact": compose_exact(rc, cfg, fig_params),
            "setpack": compose_setpacking(rc, cfg, fig_params),
            "greedy": compose_greedy(rc, cfg, fig_params, seed=3),
            "expect": compose_expectation(rc, cfg, fig_params, seed=3),
        }
        assert set(direct) == set(composers.STRATEGIES)
        for name, alignment in direct.items():
            via = composers.compose(name, rc, cfg, fig_params, seed=3)
            assert_same_alignment(via, alignment)
            assert via.tie_breaks == alignment.tie_breaks

    def test_unknown_strategy(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        with pytest.raises(ConfigError):
            composers.compose("random", rc, cfg, fig_params)


class TestComposeExpectation:
    def test_reduces_to_greedy_without_group_conflicts(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        greedy = compose_greedy(rc, cfg, fig_params, seed=3)
        expect = compose_expectation(rc, cfg, fig_params, seed=3)
        assert greedy.slots.tolist() == expect.slots.tolist()

    def test_pruned_equals_unpruned(self, monkeypatch):
        # the indexed composer against both scan oracles, with and without
        # retries, under each scorer path
        instances = collect_instances(25, start_seed=500, max_candidates=16)
        for _ in each_score_limit(monkeypatch):
            for table, rc, base, params in instances:
                for delta, retries in ((math.inf, 16), (0.5, 4), (0.05, 4)):
                    cfg = ConstraintConfig(theta=base.theta, beta=base.beta, delta=delta)
                    indexed = compose_expectation(rc, cfg, params, seed=1,
                                                  max_retries=retries)
                    for pruned in (True, False):
                        assert_same_alignment(indexed, expectation_scan(
                            rc, cfg, params, seed=1, max_retries=retries,
                            pruned=pruned))

    def test_matches_scan_on_benchmark_sized_groups(self, monkeypatch):
        # dense input with tuned windows: groups of tens of members, which the
        # <= 16-candidate fuzz instances never reach
        for seed in (3, 4):
            table, _ = generate_synthetic(150, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=seed + 100, target="both")
            theta = determine_theta(masked)
            beta = determine_beta(masked, theta)
            rc, cfg = candidates_for(masked, theta=theta, beta=beta)
            params = WeightParams(k1=3, k2=2)
            scan = expectation_scan(rc, cfg, params, seed=seed)
            for _ in each_score_limit(monkeypatch):
                assert_same_alignment(compose_expectation(rc, cfg, params, seed=seed),
                                      scan)

    def test_bonus_steers_selection(self):
        # b conflicts with both a-followers; the bonus makes the compact pick win
        t = SeriesTable.from_columns([
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ])
        rc, cfg = candidates_for(t, theta=5, beta=2)
        params = WeightParams(k1=1, k2=1, b=1, c=1)
        expect = compose_expectation(rc, cfg, params, seed=0)
        assert_valid_alignment(expect, rc, cfg, t, params)


class TestSegmentedPass:
    """``_group_pass`` walks one conflict segment at a time and stores greedy walks."""

    def test_matches_scan_on_fuzz_sets(self):
        # the second weighting and the repeat of the first read stored walks
        drawn = 0
        for table, rc, _, params in collect_instances(60, start_seed=500, max_candidates=16):
            for w in (params, WeightParams(k1=1, k2=1), params):
                drawn += assert_pass_matches_scan(rc, table, w)
        assert drawn

    def test_matches_scan_on_benchmark_sized_inputs(self):
        # the seeds-3/4 inputs of the tuning tests under part of the grid; the
        # later weightings read most segments from the walks the earlier stored
        for seed in (3, 4):
            table, _ = generate_synthetic(150, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=1, target="values")
            theta = determine_theta(masked)
            rc, _ = candidates_for(masked, theta=theta, beta=determine_beta(masked, theta))
            segments = len(rc.segment_bounds) - 1
            assert segments > 10
            drawn = walked = 0
            # k2 = 0 weighs by p alone, which ties many groups
            grid = ((1, 1), (3, 2), (1, 6), (3, 0), (6, 1), (2, 2), (3, 2))
            for k1, k2 in grid:
                params = WeightParams(k1=k1, k2=k2)
                drawn += assert_pass_matches_scan(rc, masked, params, seeds=(seed, seed + 1))
                walked += greedy_pass(rc, params, random.Random(seed))[2]
            assert drawn
            assert walked < segments * len(grid) / 2

    def test_group_counts_match_the_scored_groups(self):
        # a hook sees each group of two or more members once; ranking by plain
        # weight selects as greedy does, and the stored walks of the repeated
        # greedy passes must report the counts their walks found
        table, _ = generate_synthetic(150, 4, 4.0, seed=3, tick=10.0)
        masked = inject_mcar(table, 0.2, seed=1, target="values")
        theta = determine_theta(masked)
        rc, _ = candidates_for(masked, theta=theta, beta=determine_beta(masked, theta))
        for params in (WeightParams(k1=3, k2=2), WeightParams(k1=1, k2=6)):
            weights = _weights(rc, params)
            for greedy, scorer in ((True, lambda group, *_: [weights[g] for g in group]),
                                   (False, _expectation_scorer(rc, weights))):
                sizes = []

                def counting(group, member_bits, start):
                    sizes.append(len(group))
                    return scorer(group, member_bits, start)

                chosen, _, _, counts = _group_pass(rc, weights, random.Random(0), counting)
                assert counts == (len(sizes), max(sizes, default=min(len(chosen), 1)))
                assert len(sizes) > 10
                if greedy:
                    # the first pass walks and stores segments, the second reads them
                    for _ in range(2):
                        assert greedy_pass(rc, params, random.Random(0))[3] == counts

    def test_tie_drawing_walk_is_not_stored(self):
        # a = (1, 0) and b = (1, 2) share (0, 1) and weigh alike under any
        # weighting (p = 1, d = 1): segment 0 draws on every pass.  c = (5, 5)
        # beats e = (5, 6) in segment 1 without a draw; i = (8, 8) is isolated.
        t = SeriesTable(np.tile(np.arange(10.0), (2, 1)), np.ones((2, 10)))
        slots = [(1, 0), (1, 2), (5, 5), (5, 6), (8, 8)]
        rc = CandidateSet(np.array(slots), ConstraintConfig(theta=1e9, beta=9), t)
        assert rc.segment_bounds.tolist() == [0, 2, 4]
        params = WeightParams(k1=3, k2=2)
        weights = _weights(rc, params)
        picks = []
        for seed in (0, 1, 0):
            fast_rng, slow_rng = random.Random(seed), CountingRandom(seed)
            chosen, draws, walked, _ = greedy_pass(rc, params, fast_rng)
            assert sorted(chosen) == sorted(group_pass_scan(rc, weights, slow_rng))
            assert draws == slow_rng.draws == 1
            assert fast_rng.getstate() == slow_rng.getstate()
            # segment 1 is walked once, then read from the stored walk
            assert walked == (2 if not picks else 1)
            picks.append(sorted(chosen))
        assert picks[0] != picks[1] and picks[0] == picks[2]
        assert [key[0] for key in rc.walks] == [1]

    def test_rankings_share_one_segment_and_differ_in_another(self):
        # m = 3; a = (0, 0, 0) and b = (0, 0, 1) form segment 0 and have p = 3,
        # d = 0 and 2, so a is heavier under any k2 > 0.  c = (5, 6, 5) (p = 1,
        # d = 2, v(2, 5) missing) and e = (5, 8, 7) (p = 3, d = 6) form segment
        # 1: c is heavier at (1, 1), e at (6, 1).  At (1, 1) both segments rank
        # their members [1, 0], so only the segment index tells their walks apart.
        vs = np.ones((3, 12))
        vs[2, 5] = np.nan
        t = SeriesTable(np.tile(np.arange(12.0), (3, 1)), vs)
        slots = [(0, 0, 0), (0, 0, 1), (5, 6, 5), (5, 8, 7), (10, 10, 10)]
        rc = CandidateSet(np.array(slots), ConstraintConfig(theta=1e9, beta=9), t)
        ids, p, d = rc.weight_classes
        assert (p[ids].tolist(), d[ids].tolist()) == (
            [3.0, 3.0, 1.0, 3.0, 3.0], [0.0, 2.0, 2.0, 6.0, 0.0])
        # the classes (1, 2), (3, 0), (3, 2) and (3, 6), numbered in that order
        assert ids.tolist() == [1, 2, 0, 3, 1]
        assert rc.segment_bounds.tolist() == [0, 2, 4]
        # (1, 1) walks both segments, (6, 1) only segment 1, (1, 1) again none
        for (k1, k2), picked, walks in (((1, 1), [0, 2, 4], 2), ((6, 1), [0, 3, 4], 1),
                                        ((1, 1), [0, 2, 4], 0)):
            params = WeightParams(k1=k1, k2=k2)
            weights = _weights(rc, params)
            chosen, draws, walked, _ = greedy_pass(rc, params, random.Random(0))
            assert sorted(chosen) == sorted(group_pass_scan(rc, weights, random.Random(0)))
            assert (sorted(chosen), draws, walked) == (picked, 0, walks)
        # the grid composes both rankings: 2 + 1 segment walks, not 2 * 2
        fresh = CandidateSet(rc.slots, rc.config, t)
        report = determine_weights_and_delta(fresh, grid=[(1, 1), (6, 1)], strategy="greedy")
        assert {key: report.diagnostics[key] for key in (
            "grid_composes", "grid_distinct_passes", "segments", "grid_segment_walks")} == {
            "grid_composes": 2, "grid_distinct_passes": 2, "segments": 2, "grid_segment_walks": 3}


    @staticmethod
    def three_segment_set():
        """m = 2; the weight is (k1 p + 1) / (k2 d + 1), p = 1 when both values
        are present, d the index spread.  Segment 0: a = (1, 1) (p 1, d 0)
        beats b = (1, 2) (p 1, d 1).  Segment 1: c = (5, 5) (p 0, d 0) beats
        e = (5, 6) (p 0, d 1), v(0, 5) missing.  Segment 2: f = (8, 7) and
        g = (8, 9) are both (p 1, d 1), so they tie and draw under any
        weighting.  i = (11, 11) is isolated."""
        vs = np.ones((2, 12))
        vs[0, 5] = np.nan
        t = SeriesTable(np.tile(np.arange(12.0), (2, 1)), vs)
        slots = [(1, 1), (1, 2), (5, 5), (5, 6), (8, 7), (8, 9), (11, 11)]
        rc = CandidateSet(np.array(slots), ConstraintConfig(theta=1e9, beta=9), t)
        assert rc.segment_bounds.tolist() == [0, 2, 4, 6]
        return rc

    def test_class_weights_gathered_are_the_batch_weights(self):
        # random sets, an empty set, an all-isolated set and two synthetic
        # sets: each candidate's class weight is its weight, bit for bit
        t = SeriesTable(np.tile(np.arange(6.0), (2, 1)), np.ones((2, 6)))
        sets = [rc for _, rc, _, _ in collect_instances(30, start_seed=900, max_candidates=16)]
        sets += [CandidateSet(np.empty((0, 2), dtype=np.int32), ConstraintConfig(1e9, 9), t),
                 CandidateSet(np.array([(i, i) for i in range(6)]), ConstraintConfig(1e9, 9), t)]
        assert sets[-1].isolated.all()
        for seed in (3, 4):
            table, _ = generate_synthetic(60, 3, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.3, seed=seed, target="both")
            theta = determine_theta(masked)
            sets.append(generate_candidates(masked, ConstraintConfig(
                theta=theta, beta=determine_beta(masked, theta))))
        assert len(sets[-1]) > 100
        for rc in sets:
            ids, p, d = rc.weight_classes
            for k1, k2 in DEFAULT_GRID:
                params = WeightParams(k1=k1, k2=k2)
                want = batch_weights(rc.table, rc.slots, params)
                assert combine_weights(p, d, params)[ids].tobytes() == want.tobytes()
                assert _weights(rc, params).tobytes() == want.tobytes()

    def test_equal_keys_select_alike(self):
        # random sets, an empty set and an all-isolated set under the whole grid
        ts = np.tile(np.arange(6.0), (2, 1))
        t = SeriesTable(ts, np.ones((2, 6)))
        sets = [rc for _, rc, _, _ in collect_instances(30, start_seed=900, max_candidates=16)]
        sets += [CandidateSet(np.empty((0, 2), dtype=np.int32), ConstraintConfig(1e9, 9), t),
                 CandidateSet(np.array([(i, i) for i in range(6)]), ConstraintConfig(1e9, 9), t)]
        shared = 0
        for rc in sets:
            by_key = {}
            for k1, k2 in DEFAULT_GRID:
                params = WeightParams(k1=k1, k2=k2)
                by_key.setdefault(composers.pass_key("greedy", rc, params), []).append(params)
            for grid_points in by_key.values():
                shared += len(grid_points) > 1
                for seed in range(4):
                    passes = set()
                    for params in grid_points:
                        weights = _weights(rc, params)
                        fast_rng, slow_rng = random.Random(seed), CountingRandom(seed)
                        chosen, draws, _, _ = greedy_pass(rc, params, fast_rng)
                        scanned = sorted(group_pass_scan(rc, weights, slow_rng))
                        assert chosen.tolist() == scanned and draws == slow_rng.draws
                        assert fast_rng.getstate() == slow_rng.getstate()
                        passes.add((tuple(scanned), draws, slow_rng.getstate()))
                    assert len(passes) == 1
        assert shared

    def test_rankings_of_classes_differ_where_no_segment_does(self, monkeypatch):
        # b = (1, 2) outweighs c = (5, 5) at (2, 1) (3 / 2 against 1) and not at
        # (1, 2) (2 / 3 against 1); each segment ranks its members alike
        rc = self.three_segment_set()
        _, p, d = rc.weight_classes
        rankings = set()
        for k1, k2 in ((2, 1), (1, 2)):
            w = combine_weights(p, d, WeightParams(k1=k1, k2=k2)).tolist()
            rankings.add(tuple(sorted(set(w)).index(x) for x in w))
        assert len(rankings) == 2
        keys = {composers.pass_key("greedy", rc, WeightParams(k1=k1, k2=k2))
                for k1, k2 in ((2, 1), (1, 2))}
        # one rank per (segment, class) pair, the classes of a segment in (p, d)
        # order: (a, b), (c, e) and f and g's one class.  Dense ranks ascend
        # with the weight: a and c rank 1 in their segments
        assert keys == {np.array([1, 0, 1, 0, 0], dtype=np.int32).tobytes()}
        seeds = []
        compose_greedy = composers.compose_greedy

        def recording(rc, cfg, w, seed=0, max_retries=0):
            seeds.append(seed)
            return compose_greedy(rc, cfg, w, seed=seed, max_retries=max_retries)

        monkeypatch.setattr(composers, "compose_greedy", recording)
        report = determine_weights_and_delta(CandidateSet(rc.slots, rc.config, rc.table),
                                             grid=[(2, 1), (1, 2)], strategy="greedy", seed=5)
        assert seeds == [5, 6, 7, 8]
        assert report.diagnostics["grid_distinct_passes"] == 1
        rows = report.diagnostics["delta_grid"]
        assert rows[0]["delta_bar"] == rows[1]["delta_bar"]

    def test_one_segment_key_holds_a_rank_per_class(self):
        # m = 2, the chain (0, 0), (0, 1), (1, 1), (1, 2), ... of 39 candidates,
        # each sharing a cell with the next: one conflict segment, whose two
        # classes are d = 0 and d = 1 (every value present, p = 1); d = 0 is
        # the heavier under every grid point
        n = 20
        t = SeriesTable(np.tile(np.arange(float(n)), (2, 1)), np.ones((2, n)))
        slots = sorted([(i, i) for i in range(n)] + [(i, i + 1) for i in range(n - 1)])
        rc = CandidateSet(np.array(slots), ConstraintConfig(theta=1e9, beta=1), t)
        assert rc.segment_bounds.tolist() == [0, 39]
        for k1, k2 in DEFAULT_GRID:
            key = composers.pass_key("greedy", rc, WeightParams(k1=k1, k2=k2))
            assert len(key) == 4 * 2
            assert key == np.array([1, 0], dtype=np.int32).tobytes()

    def test_keys_are_equal_exactly_when_the_segments_rank_alike(self):
        # the grid's keys, and each segment's slice of them that keys its
        # stored walk, against the per-candidate ranks of the scan
        sets = [rc for _, rc, _, _ in collect_instances(30, start_seed=900, max_candidates=16)]
        for seed in (3, 4):
            table, _ = generate_synthetic(60, 3, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.3, seed=seed, target="both")
            theta = determine_theta(masked)
            sets.append(generate_candidates(masked, ConstraintConfig(
                theta=theta, beta=determine_beta(masked, theta))))
        shared = split = 0
        for rc in sets:
            classes, pairs = rc.class_table
            bounds = segment_bounds_scan(rc)
            points, walks = set(), set()
            for k1, k2 in DEFAULT_GRID:
                params = WeightParams(k1=k1, k2=k2)
                key = composers.pass_key("greedy", rc, params)
                assert len(key) == 4 * classes.size
                ranks = segment_ranks_scan(rc, _weights(rc, params))
                points.add((key, ranks))
                for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                    walks.add((j, key[4 * pairs[j]:4 * pairs[j + 1]], ranks[lo:hi]))
            # each relation pairs the distinct keys one to one with the distinct ranks
            assert len({key for key, _ in points}) == len({r for _, r in points}) == len(points)
            assert (len({(j, key) for j, key, _ in walks}) == len({(j, r) for j, _, r in walks})
                    == len(walks))
            shared += len(points) < len(DEFAULT_GRID)
            split += len(points) > 1
        assert shared and split

    def test_repeat_pass_walks_only_the_drawing_segment(self):
        rc = self.three_segment_set()
        cfg = ConstraintConfig(theta=1e9, beta=9)
        for k1, k2 in DEFAULT_GRID:
            params = WeightParams(k1=k1, k2=k2)
            weights = _weights(rc, params)
            first = (composers.pass_key("greedy", rc, params)) not in rc._passes
            for seed in range(4):
                alignment = compose_greedy(rc, cfg, params, seed=seed, max_retries=1)
                slow_rng = CountingRandom(seed)
                scanned = sorted(group_pass_scan(rc, weights, slow_rng))
                assert alignment.slots.tolist() == rc.slots[scanned].tolist()
                assert alignment.tie_breaks == slow_rng.draws == 1
                if not first or seed:
                    assert alignment.segment_walks == 1
                # the multi-member groups of all three segments, every pass
                assert (alignment.multi_member_groups, alignment.largest_group) == (3, 2)
            fast_rng = random.Random(seed)
            assert greedy_pass(rc, params, fast_rng)[2] == 1
            assert fast_rng.getstate() == slow_rng.getstate()

    def test_repeat_pass_counts_the_groups_it_walks(self):
        # m = 3; (1, 1, 1) beats (1, 1, 2) in segment 0.  The four candidates of
        # segment 1 all use cell (0, 8) and weigh alike (p = 3, d = 2), so the
        # largest group is the one that draws, in the segment a repeat walks
        t = SeriesTable(np.tile(np.arange(12.0), (3, 1)), np.ones((3, 12)))
        slots = [(1, 1, 1), (1, 1, 2), (8, 7, 8), (8, 8, 7), (8, 8, 9), (8, 9, 8)]
        rc = CandidateSet(np.array(slots), ConstraintConfig(theta=1e9, beta=9), t)
        assert rc.segment_bounds.tolist() == [0, 2, 6]
        for seed in range(4):
            alignment = compose_greedy(rc, rc.config, WeightParams(k1=3, k2=2), seed=seed)
            assert (alignment.segment_walks, alignment.tie_breaks) == (1 + (seed == 0), 1)
            assert (alignment.multi_member_groups, alignment.largest_group) == (2, 4)

    def test_total_is_the_left_to_right_sum(self):
        rc = self.three_segment_set()
        rng = np.random.default_rng(5)
        for weights in ([-0.0] * 7, [0.0, -0.0] * 3 + [-0.0],
                        [1e16, 1.0, -1e16, 1.0, 0.5, 3.0, -0.0], rng.normal(size=7).tolist()):
            for chosen in ([], [0], [1, 2, 3], [0, 2, 4, 6], list(range(7))):
                total = composers._finish(chosen, rc, weights).total_weight
                want = _sum_in_order(weights[i] for i in chosen)
                assert (total, math.copysign(1, total)) == (want, math.copysign(1, want))


def assert_window_matches_union(rc, table, params, seeds=(0, 1, 2, 3)):
    """The window scorer's list equals the CSR-union oracle's, with float ``==``,
    for every group the pass scores, and the pass hands the hook the group's
    state as ``group_state_scan`` builds it.  Returns the number of groups scored."""
    weights = _weights(rc, params)
    window, union = _expectation_scorer(rc, weights), union_scorer(rc, weights)
    state = group_state_scan(rc)
    scored = 0

    def both(group, member_bits, start):
        nonlocal scored
        assert (member_bits, start) == state(group), group
        scores = window(group, member_bits, start)
        assert scores == union(group), group
        scored += 1
        return scores

    for seed in seeds:
        _group_pass(rc, weights, random.Random(seed), both)
    return scored


class TestWindowScorer:
    def test_matches_union_on_fuzz_sets(self, monkeypatch):
        instances = collect_instances(60, start_seed=500, max_candidates=16)
        for _ in each_score_limit(monkeypatch):
            scored = 0
            for table, rc, _, params in instances:
                scored += assert_window_matches_union(rc, table, params)
            assert scored

    def test_matches_union_on_benchmark_sized_groups(self, monkeypatch):
        for seed in (3, 4):
            table, _ = generate_synthetic(150, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=seed + 100, target="both")
            theta = determine_theta(masked)
            rc, _ = candidates_for(masked, theta=theta, beta=determine_beta(masked, theta))
            for _ in each_score_limit(monkeypatch):
                for params in (WeightParams(k1=3, k2=2), WeightParams(k1=1, k2=6)):
                    assert assert_window_matches_union(rc, masked, params, seeds=(seed,)) > 50

    def test_groups_at_and_above_the_limit(self):
        # a = (0, 0) and b = (0, 1) share cell (0, 0); the set is every (r, r')
        # with |r - r'| <= 6 in lexicographic order, cut after `size` candidates,
        # all with first slot <= 12 = 2 * spread, so group [a, b] has the window
        # 1..size - 1 and |G| * |W| = 2 * (size - 1)
        limit = composers.PYTHON_SCORE_LIMIT
        assert limit % 2 == 0
        t = SeriesTable(np.tile(np.arange(30.0), (2, 1)), np.ones((2, 30)))
        grid = [(r, q) for r in range(13) for q in range(30) if abs(r - q) <= 6]
        params = WeightParams(k1=1, k2=1)

        class Lookups(dict):
            """A ``member_bits`` map that counts its lookups: only the Python path makes any."""
            count = 0

            def get(self, *args):
                self.count += 1
                return super().get(*args)

        for size, in_python in ((limit // 2 + 1, True), (limit // 2 + 2, False)):
            assert size <= len(grid)
            rc = CandidateSet(np.array(grid[:size], dtype=np.int32),
                              ConstraintConfig(theta=1e9, beta=6), t)
            assert rc.slot_spread == 6
            w = _weights(rc, params)
            member_bits, start = group_state_scan(rc)([0, 1])
            member_bits = Lookups(member_bits)
            scores = _expectation_scorer(rc, w)([0, 1], member_bits, start)
            assert bool(member_bits.count) == in_python
            assert scores == union_scorer(rc, w)([0, 1])
            assert scores[1] > w[1]
            assert assert_window_matches_union(rc, t, params) > 0

    def test_window_reaches_twice_the_spread(self, monkeypatch):
        # a (0, 2) and b (0, 3) share cell (0, 0); c (4, 2) shares cell (1, 2)
        # with a alone, so it counts toward b's bonus.  Its first slot is 4
        # rows past the group's, within twice the largest spread (3) but not
        # within the spread itself, and the config's beta of 0 bounds neither.
        t = SeriesTable(np.tile(np.arange(8.0), (2, 1)), np.ones((2, 8)))
        rc = CandidateSet(np.array([(0, 2), (0, 3), (4, 2)], dtype=np.int32),
                          ConstraintConfig(theta=1e9, beta=0), t)
        assert rc.slot_spread == 3
        params = WeightParams(k1=1, k2=1)
        w = _weights(rc, params)
        for _ in each_score_limit(monkeypatch):
            assert assert_window_matches_union(rc, t, params, seeds=(0,)) == 1
            scores = _expectation_scorer(rc, w)([0, 1], *group_state_scan(rc)([0, 1]))
            assert scores == [w[0], w[1] + w[2]]

    def test_set_up_lists_no_visited_candidate(self):
        # every (r, q) with |r - q| <= 3 over 1000 rows: 6994 candidates, none
        # isolated.  With the set's cached state built, the scorer's set-up
        # allocates about 3 KiB, under the 8 bytes per visited index (and 32
        # per int object) that a list of ``rc.visited`` would take
        n = 1000
        t = SeriesTable(np.tile(np.arange(float(n)), (2, 1)), np.ones((2, n)))
        slots = [(r, q) for r in range(n) for q in range(max(r - 3, 0), min(r + 4, n))]
        rc = CandidateSet(np.array(slots, dtype=np.int32), ConstraintConfig(theta=1e9, beta=3), t)
        weights = _weights(rc, WeightParams(k1=1, k2=1))
        assert rc.visited.size == len(slots) > 5000
        for name in ("row_starts", "slot_spread", "visited_cells"):
            getattr(rc, name)
        tracemalloc.start()
        try:
            scorer = _expectation_scorer(rc, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024
        assert scorer([0, 1], *group_state_scan(rc)([0, 1])) == union_scorer(rc, weights)([0, 1])


class TestComposeSetpacking:
    def test_upgrades_scan_order_greedy(self):
        # scan-order greedy grabs (0,0),(1,1); the swap reaches the heavy off-diagonals
        t = SeriesTable.from_columns([
            ([0.0, 1.0], [1.0, None]),
            ([0.0, 1.0], [None, 1.0]),
        ])
        rc, cfg = candidates_for(t, theta=5, beta=1)
        params = WeightParams(k1=10, k2=0.001, b=0.1, c=1)
        packed = compose_setpacking(rc, cfg, params)
        exact = compose_exact(rc, cfg, params)
        assert packed.total_weight == pytest.approx(exact.total_weight)

    def test_equal_terminal_branches_break_to_lexicographically_smallest(self):
        # the search ends in two packings of weight 8; the smaller sorted tuple list wins
        t = SeriesTable.from_columns([
            ([0.0, 10.0], [1.0, None]),
            ([1.0, 11.0], [2.0, 3.0]),
            ([2.0, 12.0], [None, 4.0]),
        ])
        rc, cfg = candidates_for(t, theta=100, beta=2)
        params = WeightParams(k1=2, k2=0, b=1, c=1)
        packed = compose_setpacking(rc, cfg, params)
        assert packed.total_weight == 8.0
        assert packed.slots.tolist() == [[0, 0, 1], [1, 1, 0]]

    def test_single_candidate(self, fig_params):
        t = SeriesTable.from_columns([([0.0], [1.0]), ([0.0], [1.0])])
        rc, cfg = candidates_for(t, theta=1, beta=0)
        alignment = compose_setpacking(rc, cfg, fig_params)
        assert len(alignment) == 1

    def test_never_below_half_of_exact_for_two_series(self):
        for table, rc, cfg, params in collect_instances(30, start_seed=700, m=2):
            packed = compose_setpacking(rc, cfg, params)
            exact = compose_exact(rc, cfg, params)
            if exact.total_weight > 0:
                assert packed.total_weight / exact.total_weight >= 0.5 - 1e-12


def assert_same_packing(a, b):
    assert a.slots.tolist() == b.slots.tolist()
    assert (a.total_weight, a.truncated, a.exhausted) == (b.total_weight, b.truncated, b.exhausted)
    assert a.report.delta == b.report.delta


def path_set(k):
    """k disjoint three-edge conflict paths over m = 2 series: (2i, 2i) conflicts
    with (2i, 2i + 1) and with (2i + 1, 2i), which do not conflict."""
    t = SeriesTable(np.tile(np.arange(2.0 * k), (2, 1)), np.ones((2, 2 * k)))
    slots = [s for r in range(0, 2 * k, 2) for s in ((r, r), (r, r + 1), (r + 1, r))]
    return CandidateSet(np.array(slots, dtype=np.int32), ConstraintConfig(theta=1e9, beta=1), t)


class TestSetpackingMatchesScan:
    def test_collected_instances(self):
        for _, rc, cfg, params in collect_instances(40, start_seed=700):
            assert_same_packing(compose_setpacking(rc, cfg, params), setpack_scan(rc, cfg, params))

    def test_random_instances(self):
        # equal weights (k1 = k2 = 0) tie every ratio, and a finite delta
        # makes the terminal states compete on the bound
        checked = exhausted = 0
        for seed in range(80):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(2, 5)), int(rng.integers(4, 11))
            table, _ = generate_synthetic(n, m, 4.0, seed=seed)
            table = inject_mcar(table, float(rng.uniform(0, 0.5)), seed=seed, target="both")
            delta = (math.inf, 0.5, 0.2)[seed % 3]
            rc, cfg = candidates_for(table, theta=float(rng.uniform(4, 16)),
                                     beta=int(rng.integers(0, 3)), delta=delta)
            if len(rc) > 100:
                continue
            params = WeightParams(k1=0, k2=0) if seed % 2 else WeightParams(k1=3, k2=2)
            packed = compose_setpacking(rc, cfg, params)
            assert_same_packing(packed, setpack_scan(rc, cfg, params))
            checked += 1
            exhausted += packed.exhausted
        assert checked >= 60 and exhausted

    def test_branch_cap_truncates(self):
        # each path swaps its head for its two tails at ratio 2, so the search
        # reaches 2^k states; at k = 7 the cap of 64 stops it three swaps in
        equal = WeightParams(k1=0, k2=0)
        for k, total, truncated in ((7, 10.0, True), (6, 12.0, False)):
            rc = path_set(k)
            cfg = rc.config
            assert len(rc) == 3 * k
            packed = compose_setpacking(rc, cfg, equal)
            assert (packed.total_weight, packed.truncated) == (total, truncated)
            assert compose_exact(rc, cfg, equal).total_weight == 2.0 * k
            assert_same_packing(packed, setpack_scan(rc, cfg, equal))


class TestDeltaBound:
    @pytest.mark.parametrize("strategy", ["exact", "setpack", "greedy", "expect"])
    def test_bound_is_inclusive(self, strategy, fig_params):
        # the model constraint is Delta <= delta: an alignment whose score equals
        # the bound is accepted as it is, and one just above it is not
        table, _ = generate_synthetic(8 if strategy == "exact" else 12, 3, 1.0, seed=6)
        masked = inject_mcar(table, 0.2, seed=7, target="both")
        free = ConstraintConfig(theta=8, beta=1)
        rc = generate_candidates(masked, free)
        first = composers.compose(strategy, rc, free, fig_params)
        assert not first.exhausted and first.retries_used == 0
        delta = first.report.delta
        assert delta > 0
        at_bound = ConstraintConfig(theta=8, beta=1, delta=delta)
        at = composers.compose(strategy, rc, at_bound, fig_params)
        assert at.retries_used == 0 and not at.exhausted
        assert at.slots.tolist() == first.slots.tolist()
        below = ConstraintConfig(theta=8, beta=1, delta=float(np.nextafter(delta, 0)))
        tighter = composers.compose(strategy, rc, below, fig_params)
        if strategy == "exact":
            # exact searches on and finds another subset within the bound
            assert not tighter.exhausted and tighter.report.delta < delta
        else:
            assert tighter.exhausted


class TestOutputValidity:
    def test_all_strategies_produce_valid_alignments(self):
        for table, rc, cfg, params in collect_instances(20, start_seed=900):
            for make in (
                lambda: compose_exact(rc, cfg, params),
                lambda: compose_setpacking(rc, cfg, params),
                lambda: compose_greedy(rc, cfg, params, seed=2),
                lambda: compose_expectation(rc, cfg, params, seed=2),
            ):
                assert_valid_alignment(make(), rc, cfg, table, params)

    def test_seed_free_strategies_are_deterministic(self):
        for table, rc, cfg, params in collect_instances(5, start_seed=1500):
            a = compose_setpacking(rc, cfg, params)
            b = compose_setpacking(rc, cfg, params)
            assert a.slots.tolist() == b.slots.tolist() and a.total_weight == b.total_weight
            c = compose_exact(rc, cfg, params)
            d = compose_exact(rc, cfg, params)
            assert c.slots.tolist() == d.slots.tolist() and c.total_weight == d.total_weight

    def test_exact_dominates_approximations(self):
        for table, rc, cfg, params in collect_instances(30, start_seed=1100):
            best = compose_exact(rc, cfg, params).total_weight + 1e-9
            assert compose_setpacking(rc, cfg, params).total_weight <= best
            assert compose_greedy(rc, cfg, params, seed=0).total_weight <= best
            assert compose_expectation(rc, cfg, params, seed=0).total_weight <= best

    def test_tuples_are_the_slots_read_without_a_copy(self):
        # one AlignedTuple per row traced 111,792 bytes here
        table, _ = generate_synthetic(400, 3, 1.0, seed=3, tick=10.0)
        cfg = ConstraintConfig(theta=5.0, beta=1)
        alignment = compose_greedy(generate_candidates(table, cfg), cfg, WeightParams(), seed=0)
        assert len(alignment) == 400
        tracemalloc.start()
        try:
            tuples = alignment.tuples
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced < 1024
        assert len(tuples) == len(alignment)

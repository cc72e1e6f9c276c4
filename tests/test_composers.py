import bisect
import itertools
import math
import random

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
from tsalign.composers import _expectation_scorer, _group_pass, _weights
from tsalign.errors import ConfigError
from conftest import (
    CountingRandom,
    aligned_tuples,
    assert_same_alignment,
    expectation_scan,
    group_pass_scan,
    mwis_bruteforce,
    random_table,
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


def assert_pass_matches_scan(rc, table, params, seeds=(0, 1, 2, 3)):
    """Greedy and expect scoring: same chosen set, draw count and RNG state as the
    plain scan, whatever greedy walks ``rc`` has stored already.

    Returns the number of passes that drew a random tie-break.
    """
    weights = _weights(rc, params)
    segments = len(rc.segment_bounds) - 1
    drawn = 0
    for scorer in (None, _expectation_scorer(rc, weights)):
        for seed in seeds:
            fast_rng, slow_rng = random.Random(seed), CountingRandom(seed)
            chosen, draws, walked, _ = _group_pass(rc, weights, fast_rng, scorer)
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
        chosen, _, _, _ = _group_pass(rc, _weights(rc, params), random.Random(0))
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
            assert via.strategy == alignment.strategy
            assert_same_alignment(via, alignment)

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
                walked += _group_pass(rc, _weights(rc, params), random.Random(seed))[2]
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
            for greedy, scorer in ((True, lambda group: [weights[g] for g in group]),
                                   (False, _expectation_scorer(rc, weights))):
                sizes = []

                def counting(group):
                    sizes.append(len(group))
                    return scorer(group)

                chosen, _, _, counts = _group_pass(rc, weights, random.Random(0), counting)
                assert counts == (len(sizes), max(sizes, default=min(len(chosen), 1)))
                assert len(sizes) > 10
                if greedy:
                    # the first pass walks and stores segments, the second reads them
                    for _ in range(2):
                        assert _group_pass(rc, weights, random.Random(0))[3] == counts

    def test_tie_drawing_walk_is_not_stored(self):
        # a = (1, 0) and b = (1, 2) share (0, 1) and weigh alike under any
        # weighting (p = 1, d = 1): segment 0 draws on every pass.  c = (5, 5)
        # beats e = (5, 6) in segment 1 without a draw; i = (8, 8) is isolated.
        t = SeriesTable(np.tile(np.arange(10.0), (2, 1)), np.ones((2, 10)))
        slots = [(1, 0), (1, 2), (5, 5), (5, 6), (8, 8)]
        rc = CandidateSet(np.array(slots), ConstraintConfig(theta=1e9, beta=9), t)
        assert rc.segment_bounds.tolist() == [0, 2, 4]
        weights = _weights(rc, WeightParams(k1=3, k2=2))
        picks = []
        for seed in (0, 1, 0):
            fast_rng, slow_rng = random.Random(seed), CountingRandom(seed)
            chosen, draws, walked, _ = _group_pass(rc, weights, fast_rng)
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
        p, d = rc.weight_terms
        assert (p.tolist(), d.tolist()) == ([3.0, 3.0, 1.0, 3.0, 3.0], [0.0, 2.0, 2.0, 6.0, 0.0])
        assert rc.segment_bounds.tolist() == [0, 2, 4]
        # (1, 1) walks both segments, (6, 1) only segment 1, (1, 1) again none
        for (k1, k2), picked, walks in (((1, 1), [0, 2, 4], 2), ((6, 1), [0, 3, 4], 1),
                                        ((1, 1), [0, 2, 4], 0)):
            weights = _weights(rc, WeightParams(k1=k1, k2=k2))
            chosen, draws, walked, _ = _group_pass(rc, weights, random.Random(0))
            assert sorted(chosen) == sorted(group_pass_scan(rc, weights, random.Random(0)))
            assert (sorted(chosen), draws, walked) == (picked, 0, walks)
        # the grid composes both rankings: 2 + 1 segment walks, not 2 * 2
        fresh = CandidateSet(rc.slots, rc.config, t)
        report = determine_weights_and_delta(fresh, grid=[(1, 1), (6, 1)], strategy="greedy")
        assert {key: report.diagnostics[key] for key in (
            "grid_composes", "grid_distinct_passes", "segments", "grid_segment_walks")} == {
            "grid_composes": 2, "grid_distinct_passes": 2, "segments": 2, "grid_segment_walks": 3}


def assert_window_matches_union(rc, table, params, seeds=(0, 1, 2, 3)):
    """The window scorer's list equals the CSR-union oracle's, with float ``==``,
    for every group the pass scores.  Returns the number of groups scored."""
    weights = _weights(rc, params)
    window, union = _expectation_scorer(rc, weights), union_scorer(rc, weights)
    scored = 0

    def both(group):
        nonlocal scored
        scores = window(group)
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

    def test_groups_at_and_above_the_limit(self, monkeypatch):
        # a = (0, 0) and b = (0, 1) share cell (0, 0); the set is every (r, r')
        # with |r - r'| <= 6 in lexicographic order, cut after `size` candidates,
        # all with first slot <= 12 = 2 * spread, so group [a, b] has the window
        # 1..size - 1 and |G| * |W| = 2 * (size - 1)
        limit = composers.PYTHON_SCORE_LIMIT
        assert limit % 2 == 0
        t = SeriesTable(np.tile(np.arange(30.0), (2, 1)), np.ones((2, 30)))
        grid = [(r, q) for r in range(13) for q in range(30) if abs(r - q) <= 6]
        params = WeightParams(k1=1, k2=1)
        bisects = []

        def counting_bisect(*args):
            bisects.append(args)
            return bisect.bisect_left(*args)

        monkeypatch.setattr(composers, "bisect_left", counting_bisect)
        for size, in_python in ((limit // 2 + 1, True), (limit // 2 + 2, False)):
            assert size <= len(grid)
            rc = CandidateSet(np.array(grid[:size], dtype=np.int32),
                              ConstraintConfig(theta=1e9, beta=6), t)
            assert rc.slot_spread == 6
            w = _weights(rc, params)
            bisects.clear()
            scores = _expectation_scorer(rc, w)([0, 1])
            assert bool(bisects) == in_python
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
            assert _expectation_scorer(rc, w)([0, 1]) == [w[0], w[1] + w[2]]


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

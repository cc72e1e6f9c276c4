import itertools
import math
import random

import numpy as np
import pytest

from tsalign import (
    AlignedTuple,
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
    generate_candidates,
    generate_synthetic,
    inject_mcar,
    weight,
)
from tsalign import composers
from tsalign.candidate import CandidateSet
from tsalign.composers import _expectation_scorer, _group_pass, _weights
from tsalign.errors import ConfigError
from conftest import (
    assert_same_alignment,
    expectation_scan,
    group_pass_scan,
    mwis_bruteforce,
    random_table,
)


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
    tuples = alignment.tuples
    for r1, r2 in itertools.combinations(tuples, 2):
        assert not conflicts(r1, r2)
    candidate_set = set(rc.tuples)
    assert all(r in candidate_set for r in tuples)
    recomputed = sum(weight(r, table, params) for r in tuples)
    assert alignment.total_weight == pytest.approx(recomputed, abs=1e-9)
    if not alignment.exhausted:
        assert alignment.report.delta <= cfg.delta


class TestComposeExact:
    def test_non_conflicting_takes_all(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        alignment = compose_exact(rc, cfg, staggered_table, fig_params)
        assert [r.slots for r in alignment.tuples] == [(0, 0), (1, 1), (2, 2)]
        assert alignment.total_weight == pytest.approx(9.0)

    def test_conflict_prefers_heavier(self, fig_params):
        # two candidates sharing a slot: weights 4 vs 1
        t = SeriesTable.from_columns([
            ([0.0, 5.0], [1.0, None]),
            ([0.0, 5.0], [1.0, 2.0]),
        ])
        rc, cfg = candidates_for(t, theta=10, beta=1)
        pool = {r.slots: r for r in rc}
        assert (0, 0) in pool and (0, 1) in pool
        alignment = compose_exact(rc, cfg, t, fig_params)
        assert AlignedTuple((0, 0)) in alignment.tuples
        assert AlignedTuple((0, 1)) not in alignment.tuples

    def test_empty_candidates(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=0, beta=0)
        alignment = compose_exact(rc, cfg, staggered_table, fig_params)
        assert alignment.tuples == ()
        assert alignment.total_weight == 0.0

    def test_guard(self, fig_params):
        rng = np.random.default_rng(0)
        t = random_table(rng, 2, 6, 0.0)
        rc, cfg = candidates_for(t, theta=1e9, beta=5)
        assert len(rc) > 24
        with pytest.raises(SizeError):
            compose_exact(rc, cfg, t, fig_params)

    def test_tie_breaks_to_lexicographically_smallest(self):
        t = SeriesTable.from_columns([
            ([0.0, 5.0], [1.0, 1.0]),
            ([0.0, 5.0], [1.0, 1.0]),
        ])
        rc, cfg = candidates_for(t, theta=10, beta=1)
        params = WeightParams(k1=3, k2=0, b=1, c=1)  # k2=0 ties every weight
        alignment = compose_exact(rc, cfg, t, params)
        # many subsets reach the optimum; the smallest sorted tuple list wins
        assert [r.slots for r in alignment.tuples] == [(0, 0), (1, 1)]

    def test_matches_mwis_oracle_on_random_instances(self):
        for table, rc, cfg, params in collect_instances(40, start_seed=100):
            alignment = compose_exact(rc, cfg, table, params)
            weights = [weight(r, table, params) for r in rc]
            pairs = [(i, j) for i in range(len(rc)) for j in range(i + 1, len(rc))
                     if conflicts(rc[i], rc[j])]
            assert alignment.total_weight == pytest.approx(
                mwis_bruteforce(weights, pairs, len(rc)), abs=1e-9)

    def test_respects_finite_delta(self):
        for table, rc, cfg, params in collect_instances(10, start_seed=400):
            tight = ConstraintConfig(theta=cfg.theta, beta=cfg.beta, delta=1e-12)
            alignment = compose_exact(rc, tight, table, params)
            assert alignment.report.delta <= 1e-12


class TestComposeGreedy:
    def test_singleton_groups_emit_everything(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        alignment = compose_greedy(rc, cfg, staggered_table, fig_params, seed=0)
        assert alignment.total_weight == pytest.approx(9.0)
        assert len(alignment.tuples) == 3

    def test_tie_break_emits_exactly_one(self):
        t = SeriesTable.from_columns([
            ([0.0, 5.0], [1.0, 1.0]),
            ([0.0, 5.0], [1.0, 1.0]),
        ])
        rc, cfg = candidates_for(t, theta=10, beta=1)
        conflicted = [r for r in rc if r.slots[0] == 0]
        assert len(conflicted) >= 2
        params = WeightParams(k1=3, k2=0, b=1, c=1)  # k2=0 ties every weight
        seen = set()
        for seed in range(6):
            alignment = compose_greedy(rc, cfg, t, params, seed=seed)
            first = min(alignment.tuples)
            seen.add(first.slots)
            assert sum(1 for r in alignment.tuples if r.slots[0] == 0) == 1
        assert len(seen) >= 2  # the seeded RNG actually varies the pick

    def test_deterministic_per_seed(self):
        for table, rc, cfg, params in collect_instances(5, start_seed=300):
            a = compose_greedy(rc, cfg, table, params, seed=7)
            b = compose_greedy(rc, cfg, table, params, seed=7)
            assert a.tuples == b.tuples
            assert a.total_weight == b.total_weight

    def test_exhausted_flag_on_impossible_delta(self):
        rng = np.random.default_rng(17)
        t = random_table(rng, 2, 5, 0.0)
        rc, _ = candidates_for(t, theta=1e9, beta=1)
        cfg = ConstraintConfig(theta=1e9, beta=1, delta=1e-15)
        alignment = compose_greedy(rc, cfg, t, WeightParams(), seed=0, max_retries=3)
        if alignment.report.delta > 1e-15:
            assert alignment.exhausted
            assert alignment.retries_used == 2


def assert_pass_matches_scan(rc, table, params, seeds=(0, 1, 2, 3)):
    """Greedy and expect scoring: same chosen set and RNG state as the plain scan.

    Returns the number of passes that drew a random tie-break.
    """
    weights = _weights(rc, table, params)
    drawn = 0
    for scorer in (None, _expectation_scorer(rc, weights)):
        for seed in seeds:
            fast_rng, slow_rng = random.Random(seed), random.Random(seed)
            chosen, draws = _group_pass(rc, weights, fast_rng, scorer)
            assert sorted(chosen) == sorted(group_pass_scan(rc, weights, slow_rng, scorer))
            assert fast_rng.getstate() == slow_rng.getstate()
            assert (draws == 0) == (fast_rng.getstate() == random.Random(seed).getstate())
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
        a, b, i, k = (AlignedTuple(s) for s in ((0, 5, 5), (1, 5, 6), (2, 8, 8), (3, 5, 7)))
        rc = CandidateSet((a, b, i, k), ConstraintConfig(theta=1e9, beta=9), t)
        assert rc.isolated.tolist() == [False, False, True, False]
        params = WeightParams(k1=1, k2=1)
        assert_pass_matches_scan(rc, t, params)
        chosen, _ = _group_pass(rc, _weights(rc, t, params), random.Random(0))
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
        composers.compose("greedy", rc, cfg, staggered_table, fig_params, seed=4, max_retries=2)
        assert calls == [{"seed": 4, "max_retries": 2}]

    def test_every_strategy_matches_its_composer(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=25, beta=1)
        direct = {
            "exact": compose_exact(rc, cfg, staggered_table, fig_params),
            "setpack": compose_setpacking(rc, cfg, staggered_table, fig_params),
            "greedy": compose_greedy(rc, cfg, staggered_table, fig_params, seed=3),
            "expect": compose_expectation(rc, cfg, staggered_table, fig_params, seed=3),
        }
        assert set(direct) == set(composers.STRATEGIES)
        for name, alignment in direct.items():
            via = composers.compose(name, rc, cfg, staggered_table, fig_params, seed=3)
            assert via.strategy == alignment.strategy
            assert_same_alignment(via, alignment)

    def test_unknown_strategy(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        with pytest.raises(ConfigError):
            composers.compose("random", rc, cfg, staggered_table, fig_params)


class TestComposeExpectation:
    def test_reduces_to_greedy_without_group_conflicts(self, staggered_table, fig_params):
        rc, cfg = candidates_for(staggered_table, theta=2, beta=0)
        greedy = compose_greedy(rc, cfg, staggered_table, fig_params, seed=3)
        expect = compose_expectation(rc, cfg, staggered_table, fig_params, seed=3)
        assert greedy.tuples == expect.tuples

    def test_pruned_equals_unpruned(self):
        # the indexed composer against both scan oracles, with and without retries
        for table, rc, base, params in collect_instances(25, start_seed=500, max_candidates=16):
            for delta, retries in ((math.inf, 16), (0.5, 4), (0.05, 4)):
                cfg = ConstraintConfig(theta=base.theta, beta=base.beta, delta=delta)
                indexed = compose_expectation(rc, cfg, table, params, seed=1,
                                              max_retries=retries)
                for pruned in (True, False):
                    assert_same_alignment(indexed, expectation_scan(
                        rc, cfg, table, params, seed=1, max_retries=retries, pruned=pruned))

    def test_matches_scan_on_benchmark_sized_groups(self):
        # dense input with tuned windows: groups of tens of members, which the
        # <= 16-candidate fuzz instances never reach
        for seed in (3, 4):
            table, _ = generate_synthetic(150, 4, 4.0, seed=seed, tick=10.0)
            masked = inject_mcar(table, 0.2, seed=seed + 100, target="both")
            theta = determine_theta(masked)
            beta = determine_beta(masked, theta)
            rc, cfg = candidates_for(masked, theta=theta, beta=beta)
            params = WeightParams(k1=3, k2=2)
            indexed = compose_expectation(rc, cfg, masked, params, seed=seed)
            assert_same_alignment(indexed, expectation_scan(rc, cfg, masked, params, seed=seed))

    def test_bonus_steers_selection(self):
        # b conflicts with both a-followers; the bonus makes the compact pick win
        t = SeriesTable.from_columns([
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ])
        rc, cfg = candidates_for(t, theta=5, beta=2)
        params = WeightParams(k1=1, k2=1, b=1, c=1)
        expect = compose_expectation(rc, cfg, t, params, seed=0)
        assert_valid_alignment(expect, rc, cfg, t, params)


class TestComposeSetpacking:
    def test_upgrades_scan_order_greedy(self):
        # scan-order greedy grabs (0,0),(1,1); the swap reaches the heavy off-diagonals
        t = SeriesTable.from_columns([
            ([0.0, 1.0], [1.0, None]),
            ([0.0, 1.0], [None, 1.0]),
        ])
        rc, cfg = candidates_for(t, theta=5, beta=1)
        params = WeightParams(k1=10, k2=0.001, b=0.1, c=1)
        packed = compose_setpacking(rc, cfg, t, params)
        exact = compose_exact(rc, cfg, t, params)
        assert packed.total_weight == pytest.approx(exact.total_weight)

    def test_single_candidate(self, fig_params):
        t = SeriesTable.from_columns([([0.0], [1.0]), ([0.0], [1.0])])
        rc, cfg = candidates_for(t, theta=1, beta=0)
        alignment = compose_setpacking(rc, cfg, t, fig_params)
        assert len(alignment.tuples) == 1

    def test_never_below_half_of_exact_for_two_series(self):
        for table, rc, cfg, params in collect_instances(30, start_seed=700, m=2):
            packed = compose_setpacking(rc, cfg, table, params)
            exact = compose_exact(rc, cfg, table, params)
            if exact.total_weight > 0:
                assert packed.total_weight / exact.total_weight >= 0.5 - 1e-12


class TestOutputValidity:
    def test_all_strategies_produce_valid_alignments(self):
        for table, rc, cfg, params in collect_instances(20, start_seed=900):
            for make in (
                lambda: compose_exact(rc, cfg, table, params),
                lambda: compose_setpacking(rc, cfg, table, params),
                lambda: compose_greedy(rc, cfg, table, params, seed=2),
                lambda: compose_expectation(rc, cfg, table, params, seed=2),
            ):
                assert_valid_alignment(make(), rc, cfg, table, params)

    def test_seed_free_strategies_are_deterministic(self):
        for table, rc, cfg, params in collect_instances(5, start_seed=1500):
            a = compose_setpacking(rc, cfg, table, params)
            b = compose_setpacking(rc, cfg, table, params)
            assert a.tuples == b.tuples and a.total_weight == b.total_weight
            c = compose_exact(rc, cfg, table, params)
            d = compose_exact(rc, cfg, table, params)
            assert c.tuples == d.tuples and c.total_weight == d.total_weight

    def test_exact_dominates_approximations(self):
        for table, rc, cfg, params in collect_instances(30, start_seed=1100):
            best = compose_exact(rc, cfg, table, params).total_weight + 1e-9
            assert compose_setpacking(rc, cfg, table, params).total_weight <= best
            assert compose_greedy(rc, cfg, table, params, seed=0).total_weight <= best
            assert compose_expectation(rc, cfg, table, params, seed=0).total_weight <= best

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsalign import (
    ConstraintConfig,
    SeriesTable,
    SizeError,
    WeightParams,
    brute_force_candidates,
    conflicts,
    generate_candidates,
    phi_similarity,
    theta_similarity,
    weight,
)
from tsalign.core import combine_weights, index_spread, pair_count
from conftest import random_table


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
        assert [r.slots for r in rc] == [(0, 0), (1, 1), (2, 2)]

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
        slots = [r.slots for r in rc]
        assert slots == sorted(set(slots))

    def test_emitted_tuples_pass_recheck(self):
        rng = np.random.default_rng(42)
        t = random_table(rng, 3, 6, 0.3)
        cfg = ConstraintConfig(theta=15.0, beta=2)
        for r in generate_candidates(t, cfg):
            assert phi_similarity(r) <= cfg.beta
            th = theta_similarity(r, t)
            assert th is None or th <= cfg.theta

    @settings(max_examples=150, deadline=None)
    @given(small_tables(), st.floats(0, 40), st.integers(0, 3))
    def test_oracle_equivalence(self, table, theta, beta):
        cfg = ConstraintConfig(theta=theta, beta=beta)
        fast = [r.slots for r in generate_candidates(table, cfg)]
        slow = [r.slots for r in brute_force_candidates(table, cfg)]
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(small_tables(), st.floats(0, 20), st.floats(0, 20), st.integers(0, 2), st.integers(0, 2))
    def test_monotone_in_thresholds(self, table, theta1, theta2, beta1, beta2):
        lo = ConstraintConfig(theta=min(theta1, theta2), beta=min(beta1, beta2))
        hi = ConstraintConfig(theta=max(theta1, theta2), beta=max(beta1, beta2))
        small = {r.slots for r in generate_candidates(table, lo)}
        large = {r.slots for r in generate_candidates(table, hi)}
        assert small <= large


class TestCandidateState:
    @settings(max_examples=80, deadline=None)
    @given(small_tables(), st.floats(0, 40), st.integers(0, 3))
    def test_cached_state_matches_scalar_helpers(self, table, theta, beta):
        rc = generate_candidates(table, ConstraintConfig(theta=theta, beta=beta))
        assert rc.slot_array.shape == (len(rc), table.m)
        assert [tuple(row) for row in rc.slot_array.tolist()] == [r.slots for r in rc]
        p, d = rc.weight_terms
        assert p.tolist() == [pair_count(r, table) for r in rc]
        assert d.tolist() == [index_spread(r) for r in rc]
        params = WeightParams(k1=3, k2=2)
        assert combine_weights(p, d, params).tolist() == pytest.approx(
            [weight(r, table, params) for r in rc], rel=1e-12)
        assert rc.isolated.tolist() == [
            not any(conflicts(r, o) for j, o in enumerate(rc) if j != i)
            for i, r in enumerate(rc)]


class TestBruteForce:
    def test_single_row(self):
        t = SeriesTable.from_columns([([1.0], [1.0]), ([1.0], [2.0]), ([1.0], [3.0])])
        rc = brute_force_candidates(t, ConstraintConfig(theta=0, beta=0))
        assert [r.slots for r in rc] == [(0, 0, 0)]

    def test_guard(self):
        t = SeriesTable(np.sort(np.random.default_rng(0).uniform(0, 1, (4, 100)), axis=1),
                        np.zeros((4, 100)))
        with pytest.raises(SizeError):
            brute_force_candidates(t, ConstraintConfig(theta=1, beta=1))

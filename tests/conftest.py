import numpy as np
import pytest

from tsalign import SeriesTable, WeightParams
from tsalign.composers import DEFAULT_MAX_RETRIES, _retry_compose, _share_slot


def random_table(rng: np.random.Generator, m: int, n: int,
                 missing_rate: float = 0.2) -> SeriesTable:
    """Small random table: sorted distinct timestamps, independent missing cells."""
    ts = np.sort(rng.uniform(0, 10 * n, size=(m, n)), axis=1)
    ts += np.arange(n)[None, :] * 1e-6  # break accidental ties
    values = rng.normal(size=(m, n))
    ts = np.where(rng.random((m, n)) < missing_rate, np.nan, ts)
    values = np.where(rng.random((m, n)) < missing_rate, np.nan, values)
    return SeriesTable(ts, values)


def mwis_bruteforce(weights, conflict_pairs, k):
    """Independent oracle: max-weight independent set by bitmask enumeration."""
    best = 0.0
    for mask in range(1 << k):
        ok = True
        for i, j in conflict_pairs:
            if mask >> i & 1 and mask >> j & 1:
                ok = False
                break
        if not ok:
            continue
        total = sum(weights[i] for i in range(k) if mask >> i & 1)
        if total > best:
            best = total
    return best


def expectation_scan(rc, cfg, t, w, seed=0, max_retries=DEFAULT_MAX_RETRIES, pruned=True):
    """Oracle for ``compose_expectation``: each member's bonus from a forward scan.

    The bonus of group member g sums, in ascending candidate order, the
    weights of later candidates that share no slot with g but share one with
    some group member.  The pruned scan stops at the first candidate whose
    first slot exceeds the group's row window (max slot + beta) and skips any
    candidate with a slot beyond it; the unpruned scan visits every later
    candidate.  Both must select exactly as the indexed composer does.
    """
    tuples = rc.tuples
    k = len(tuples)

    def scorer_factory(slots, weights):
        def score(g_idx, group):
            limit = max(s for j in group for s in tuples[j].slots) + cfg.beta
            g = tuples[g_idx]
            members = [tuples[j] for j in group]
            bonus = 0.0
            for i in range(g_idx + 1, k):
                r = tuples[i]
                if pruned:
                    if r.slots[0] > limit:
                        break
                    if any(s > limit for s in r.slots):
                        continue
                if _share_slot(r, g):
                    continue
                if any(_share_slot(r, mem) for mem in members):
                    bonus += weights[i]
            return weights[g_idx] + bonus

        return lambda group: [score(g, group) for g in group]

    return _retry_compose(rc, cfg, t, w, seed, max_retries, "expectation", scorer_factory)


def assert_same_alignment(a, b):
    """Equal selections, totals and retry outcomes (the consistency report aside)."""
    assert a.tuples == b.tuples
    assert a.total_weight == b.total_weight
    assert a.retries_used == b.retries_used
    assert a.exhausted == b.exhausted


@pytest.fixture
def fig_params():
    """Weight coefficients used throughout the worked examples."""
    return WeightParams(k1=3, k2=2, b=1, c=1)


@pytest.fixture
def staggered_table():
    """Two series, three rows, timestamps offset by one unit; middle value missing."""
    return SeriesTable.from_columns([
        ([0.0, 10.0, 20.0], [1.0, None, 3.0]),
        ([1.0, 11.0, 21.0], [2.0, 2.5, 4.0]),
    ])

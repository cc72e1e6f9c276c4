"""Data-driven determination of the constraint thresholds and weight factors."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import composers
from .candidate import CandidateSet, generate_candidates
from .core import ConstraintConfig, SeriesTable, WeightParams
from .errors import ConfigError

DEFAULT_GRID = tuple((k1, k2) for k1 in range(1, 7) for k2 in range(1, 7))


@dataclass(frozen=True)
class TuningReport:
    """The configuration a run composes under: ``config`` holds the tuned delta, ``weights``
    the tuned k1 and k2 and the run's b and c; with the grid diagnostics."""

    config: ConstraintConfig
    weights: WeightParams
    diagnostics: dict = field(default_factory=dict)


def nearest_rank(samples, percentile: float):
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest sample (a list or an array)."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ConfigError("percentile of an empty sample set")
    if not 0 <= percentile <= 100:
        raise ConfigError("percentile must lie in [0, 100]")
    rank = max(1, math.ceil(percentile / 100 * samples.size))
    return np.partition(samples, rank - 1)[rank - 1]


def determine_theta(t: SeriesTable, percentile: float = 95.0) -> float:
    """Time threshold from the same-row cross-series timestamp gaps.

    Rows proxy simultaneous recording; the requested percentile of all
    pairwise |T_i - T_j| within rows tolerates most of the observed delays.
    The gaps of every series pair are taken as whole rows of the table.
    """
    a, b = np.triu_indices(t.m, 1)
    diffs = np.abs(t.timestamps[a] - t.timestamps[b]).ravel()
    diffs = diffs[~np.isnan(diffs)]
    if diffs.size == 0:
        raise ConfigError("no row has two or more non-missing timestamps; cannot determine theta")
    return float(nearest_rank(diffs, percentile))


def _beta_from_gap_counts(counts: np.ndarray, beta_lower: int) -> int:
    """80th nearest-rank percentile of the gaps counted per value, floored at beta_lower + 1.

    ``counts[v]`` is the number of gap samples equal to v; the percentile is
    the smallest v whose cumulative count reaches the rank ceil(0.8 * N).
    """
    total = int(counts.sum())
    if total == 0:
        return beta_lower + 1
    rank = max(1, math.ceil(80.0 / 100 * total))
    return max(beta_lower + 1, int(np.searchsorted(np.cumsum(counts), rank)))


def determine_beta(t: SeriesTable, theta: float, beta_lower: int = 0) -> int:
    """Position threshold from the index-gap distribution inside candidates.

    Candidates are scanned with a window widened to beta_lower + m so the
    observed distribution is not clipped at the lower bound itself; the
    result is the 80th percentile, floored at beta_lower + 1.  The samples
    are |slot_a - slot_b| over every series pair of every candidate.  No
    gap exceeds the scan window, so they are counted per value with
    ``np.bincount``, one series pair at a time, instead of being collected.
    """
    if beta_lower < 0:
        raise ConfigError("beta_lower must be at least 0")
    scan_cfg = ConstraintConfig(theta=theta, beta=beta_lower + t.m)
    slots = generate_candidates(t, scan_cfg).slots
    counts = np.zeros(min(scan_cfg.beta, t.n) + 1, dtype=np.int64)
    # one intp buffer serves every pair: bincount reads intp without a copy
    gaps = np.empty(len(slots), dtype=np.intp)
    for a, b in itertools.combinations(range(t.m), 2):
        np.subtract(slots[:, a], slots[:, b], out=gaps)
        counts += np.bincount(np.abs(gaps, out=gaps), minlength=counts.size)
    if not counts.any():
        warnings.warn("no candidate tuples under the widened scan; falling back to beta_lower + 1")
    return _beta_from_gap_counts(counts, beta_lower)


def determine_windows(t: SeriesTable, theta: float | None = None, beta: int | None = None,
                      percentile: float = 95.0, beta_lower: int = 0) -> tuple[float, int]:
    """The time and position windows of a run: each one given is kept, the other tuned.

    A missing ``theta`` is the ``percentile`` of the same-row timestamp gaps
    (``determine_theta``); a missing ``beta`` is tuned under that theta,
    floored at ``beta_lower + 1`` (``determine_beta``).
    """
    if theta is None:
        theta = determine_theta(t, percentile=percentile)
    if beta is None:
        beta = determine_beta(t, theta, beta_lower=beta_lower)
    return theta, beta


def determine_weights_and_delta(rc: CandidateSet, params: WeightParams = WeightParams(),
                                grid=DEFAULT_GRID, strategy: str = "greedy",
                                seed: int = 0, runs: int = 4) -> TuningReport:
    """Pick (k1, k2) minimizing the mean consistency score, and set delta to it.

    ``rc`` is the candidate set of the run, generated under the tuned theta
    and beta; the final compose uses the same set, so the weight classes,
    isolated mask, conflict segments, fitted reports and the stored greedy
    ranks, segment walks and passes are built once for both.  Each grid
    point weighs as ``params`` with the point's k1 and k2, so b and c are
    the run's.  It composes ``runs`` alignments with an unbounded model
    constraint and seeds seed, seed + 1, ...; the point with the smallest
    mean score wins (ties toward the smaller pair) and that mean becomes
    delta.  A final compose under the returned ``config`` and ``weights``
    with the same seed tries these seeds first, so given ``runs`` attempts
    one of them holds delta: the least of the deltas is at most their mean.

    Seeds only break weight ties, so when the first run of a grid point
    draws no tie-break every seed selects the same, and its delta stands for
    all ``runs`` without composing the rest.  Grid points whose weightings
    share a ``composers.pass_key`` run the same passes, so the deltas of the
    first such point stand for the others.  For ``greedy`` the key is the
    dense rank of the weight of each (p, d) class present in a conflict
    segment within that segment, computed once per ranking of the set's
    classes; a later run under a key walks only the segments its first run
    saw draw.
    ``diagnostics`` counts the composes run (``grid_composes``) and the
    grid points whose passes were composed rather than read from that memo
    (``grid_distinct_passes``), the conflict segments of the set
    (``segments``) and the segment walks the composes made rather than read
    from the set's memos of greedy walks and passes
    (``grid_segment_walks``; at most ``segments`` per compose, exactly that
    for ``expect``).
    """
    if strategy not in composers.STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    runs = max(1, runs)
    grid = list(grid)
    if not grid:
        raise ConfigError("empty (k1, k2) grid")
    cfg = replace(rc.config, delta=math.inf)

    memo: dict[bytes, list[float]] = {}
    composes = passes = walks = 0
    rows = []
    best = None
    for k1, k2 in grid:
        point = replace(params, k1=k1, k2=k2)
        memo_key = composers.pass_key(strategy, rc, point)
        deltas = memo.get(memo_key)  # None for a strategy without a key
        if deltas is None:
            passes += 1
            deltas = []
            for i in range(runs):
                alignment = composers.compose(strategy, rc, cfg, point, seed=seed + i)
                composes += 1
                walks += alignment.segment_walks
                if i == 0 and alignment.tie_breaks == 0:
                    # the same list of runs copies, so the mean is bit-identical
                    deltas = [alignment.report.delta] * runs
                    break
                deltas.append(alignment.report.delta)
            if memo_key is not None:
                memo[memo_key] = deltas
        mean_delta = composers._sum_in_order(deltas) / len(deltas)
        rows.append({"k1": k1, "k2": k2, "delta_bar": mean_delta})
        key = (mean_delta, k1, k2)
        if best is None or key < best:
            best = key
    if best is None or not math.isfinite(best[0]):
        raise ConfigError("composer produced no usable alignment on any grid point")
    delta_bar, k1, k2 = best
    return TuningReport(replace(cfg, delta=delta_bar),
                        replace(params, k1=float(k1), k2=float(k2)),
                        diagnostics={"delta_grid": rows, "strategy": strategy,
                                     "runs": runs, "seed": seed, "grid_composes": composes,
                                     "grid_distinct_passes": passes,
                                     "segments": len(rc.segment_bounds) - 1,
                                     "grid_segment_walks": walks})

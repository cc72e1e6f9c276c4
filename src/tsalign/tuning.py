"""Data-driven determination of the constraint thresholds and weight factors."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from . import composers
from .candidate import generate_candidates
from .core import ConstraintConfig, SeriesTable, WeightParams
from .errors import ConfigError

DEFAULT_GRID = tuple((k1, k2) for k1 in range(1, 7) for k2 in range(1, 7))


@dataclass(frozen=True)
class TuningReport:
    """Determined thresholds and weight factors, with the grid diagnostics."""

    theta: float
    beta: int
    delta: float
    k1: float
    k2: float
    b: float = 1.0
    c: float = 1.0
    diagnostics: dict = field(default_factory=dict)


def nearest_rank(samples: list[float], percentile: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest sample."""
    if not samples:
        raise ConfigError("percentile of an empty sample set")
    if not 0 <= percentile <= 100:
        raise ConfigError("percentile must lie in [0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def determine_theta(t: SeriesTable, percentile: float = 95.0) -> float:
    """Time threshold from the same-row cross-series timestamp gaps.

    Rows proxy simultaneous recording; the requested percentile of all
    pairwise |T_i - T_j| within rows tolerates most of the observed delays.
    """
    diffs: list[float] = []
    ts = t.timestamps
    for i in range(t.n):
        col = ts[:, i]
        present = col[col == col]
        for a in range(len(present)):
            for b in range(a + 1, len(present)):
                diffs.append(abs(float(present[a]) - float(present[b])))
    if not diffs:
        raise ConfigError("no row has two or more non-missing timestamps; cannot determine theta")
    return float(nearest_rank(diffs, percentile))


def _beta_from_samples(samples: list[int], beta_lower: int) -> int:
    return max(beta_lower + 1, int(nearest_rank(samples, 80.0))) if samples else beta_lower + 1


def determine_beta(t: SeriesTable, theta: float, beta_lower: int = 0) -> int:
    """Position threshold from the index-gap distribution inside candidates.

    Candidates are scanned with a window widened to beta_lower + m so the
    observed distribution is not clipped at the lower bound itself; the
    result is the 80th percentile, floored at beta_lower + 1.
    """
    scan_cfg = ConstraintConfig(theta=theta, beta=beta_lower + t.m)
    rc = generate_candidates(t, scan_cfg)
    samples: list[int] = []
    for r in rc:
        slots = r.slots
        for a in range(len(slots)):
            for b in range(a + 1, len(slots)):
                samples.append(abs(slots[a] - slots[b]))
    if not samples:
        warnings.warn("no candidate tuples under the widened scan; falling back to beta_lower + 1")
    return _beta_from_samples(samples, beta_lower)


def determine_weights_and_delta(t: SeriesTable, theta: float, beta: int,
                                grid=DEFAULT_GRID, strategy: str = "greedy",
                                seed: int = 0, runs: int = 4) -> TuningReport:
    """Pick (k1, k2) minimizing the mean consistency score, and set delta to it.

    The bias terms are fixed at b = c = 1.  Each grid point composes ``runs``
    alignments with an unbounded model constraint and derived seeds; the
    point with the smallest mean score wins (ties toward the smaller pair)
    and that mean becomes delta.

    Every compose reuses the candidate set's cached state and fitted
    reports.  Seeds only break weight ties, so when the first run of a grid
    point draws no tie-break every seed selects the same, and its delta
    stands for all ``runs`` without composing the rest.
    """
    if strategy not in composers.STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    runs = max(1, runs)
    grid = list(grid)
    if not grid:
        raise ConfigError("empty (k1, k2) grid")
    cfg = ConstraintConfig(theta=theta, beta=beta, delta=math.inf)
    rc = generate_candidates(t, cfg)

    rows = []
    best = None
    for k1, k2 in grid:
        params = WeightParams(k1=k1, k2=k2, b=1.0, c=1.0)
        deltas = []
        for i in range(runs):
            alignment = composers.compose(strategy, rc, cfg, t, params, seed=seed + i)
            if i == 0 and alignment.tie_breaks == 0:
                # the same list of runs copies, so the mean is bit-identical
                deltas = [alignment.report.delta] * runs
                break
            deltas.append(alignment.report.delta)
        mean_delta = sum(deltas) / len(deltas)
        rows.append({"k1": k1, "k2": k2, "delta_bar": mean_delta})
        key = (mean_delta, k1, k2)
        if best is None or key < best:
            best = key
    if best is None or not math.isfinite(best[0]):
        raise ConfigError("composer produced no usable alignment on any grid point")
    delta_bar, k1, k2 = best
    return TuningReport(theta=theta, beta=beta, delta=delta_bar, k1=float(k1), k2=float(k2),
                        diagnostics={"delta_grid": rows, "strategy": strategy,
                                     "runs": runs, "seed": seed})

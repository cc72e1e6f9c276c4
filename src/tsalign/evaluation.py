"""Ground-truth scoring, MCAR injection, and synthetic benchmark generation.

Scoring is column-wise: every truth cell carries a group id in one
(m * n) array, and an aligned pair of cells hits when both carry the same
id.  Aligned pairs are integer keys, deduplicated by sorting one series
pair at a time.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import composers, tuning
from .candidate import generate_candidates
from .composers import Alignment
from .core import ConstraintConfig, SeriesTable, WeightParams, slot_array
from .errors import ConfigError, StructuralError


@dataclass(frozen=True)
class GroundTruth:
    """The complete table plus which cells are genuinely simultaneous.

    ``cell_groups`` is the read-only group id of every cell at index
    series * n + row, -1 for a cell in no group.  The cells recorded at the
    same semantic time share one id; every non-missing cell of the complete
    table belongs to exactly one group.
    """

    table: SeriesTable
    cell_groups: np.ndarray

    def __post_init__(self):
        ids = np.array(self.cell_groups, dtype=np.intp)
        ids.setflags(write=False)
        object.__setattr__(self, "cell_groups", ids)

    @classmethod
    def same_row(cls, table: SeriesTable) -> "GroundTruth":
        """Truth where row i of every series is simultaneous (synthetic convention).

        The rows with some present cell are numbered 0, 1, ... in row order,
        by one cumsum over the presence mask; a missing cell gets -1.
        """
        present = table.timestamp_mask | table.value_mask
        row_ids = np.cumsum(present.any(axis=0)) - 1
        return cls(table, np.where(present, row_ids, -1).ravel())


@dataclass(frozen=True)
class ScoreReport:
    precision: float
    recall: float
    f1: float
    aligned_tuple_count: int
    total_weight: float
    delta: float


def pair_accuracy(slots, truth: GroundTruth) -> tuple[float, float, float]:
    """Pair-level precision, recall and F1 of aligned tuples against the truth pairing.

    ``slots`` holds one slot vector per tuple: an (T, m) integer array, or a
    sequence of slot vectors.  A tuple asserts one pair of cells
    per series pair; a pair asserted by several tuples counts once.  A pair
    hits when both cells carry the same truth group id, and the truth holds
    C(|g|, 2) pairs per group g.  Precision over no pairs is defined as 0.

    The series pairs are counted one at a time (see ``_pair_counts``), so
    the working set is a few arrays of T entries whatever m is.
    """
    m, n = truth.table.m, truth.table.n
    try:
        slots = slot_array(slots)
    except ValueError:
        raise StructuralError("alignment does not fit the truth table") from None
    if slots.size == 0:
        slots = slots.reshape(0, m)
    if (slots.ndim != 2 or slots.shape[1] != m
            or (slots.size and (slots.min() < 0 or slots.max() >= n))):
        raise StructuralError("alignment does not fit the truth table")
    ids = truth.cell_groups.reshape(m, n)
    pairs = hit = 0
    for a, b in combinations(range(m), 2):
        pair_total, pair_hit = _pair_counts(ids[a], ids[b], slots[:, a], slots[:, b], n)
        pairs += pair_total
        hit += pair_hit
    sizes = np.bincount(truth.cell_groups[truth.cell_groups >= 0])
    truth_pairs = int((sizes * (sizes - 1) // 2).sum())
    precision = hit / pairs if pairs else 0.0
    recall = hit / truth_pairs if truth_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _pair_counts(ids_a: np.ndarray, ids_b: np.ndarray, rows_a: np.ndarray,
                 rows_b: np.ndarray, n: int) -> tuple[int, int]:
    """The distinct cell pairs of one series pair, and how many of them hit.

    A pair of cells is the key row_a * n + row_b, below n * n; a hit's key is
    moved up by n * n, so after the sort the hits follow the misses, and the
    distinct keys of each part are counted from the run starts.
    """
    first = ids_a[rows_a]
    same = first == ids_b[rows_b]
    same &= first >= 0
    del first
    keys = rows_a.astype(np.intp)
    keys *= n
    keys += rows_b
    np.add(keys, n * n, out=keys, where=same)
    del same
    keys.sort()
    starts = keys[1:] != keys[:-1]
    misses = int(np.searchsorted(keys, n * n))
    return (int(keys.size > 0) + int(np.count_nonzero(starts)),
            int(misses < keys.size) + int(np.count_nonzero(starts[misses:])))


def score(alignment: Alignment, truth: GroundTruth) -> ScoreReport:
    """Pair-level precision/recall/F1 of an alignment (see ``pair_accuracy``)."""
    precision, recall, f1 = pair_accuracy(alignment.slots, truth)
    return ScoreReport(precision, recall, f1, len(alignment),
                       alignment.total_weight, alignment.report.delta)


def inject_mcar(t: SeriesTable, rate: float, seed: int, target: str = "values") -> SeriesTable:
    """Mask each targeted present cell independently with probability ``rate``."""
    if not 0 <= rate <= 1:
        raise ConfigError("missing rate must lie in [0, 1]")
    if target not in ("values", "timestamps", "both"):
        raise ConfigError(f"unknown target {target!r}")
    rng = np.random.default_rng(seed)
    values = np.array(t.values)
    timestamps = np.array(t.timestamps)
    if target in ("values", "both"):
        drop = rng.random(values.shape) < rate
        values[drop] = np.nan
    if target in ("timestamps", "both"):
        drop = rng.random(timestamps.shape) < rate
        timestamps[drop] = np.nan
    return SeriesTable(timestamps, values)


def generate_synthetic(n: int, m: int, timestamp_jitter: float,
                       value_model: str = "ar1", seed: int = 0,
                       tick: float = 10.0) -> tuple[SeriesTable, GroundTruth]:
    """Complete benchmark table with a known same-row correspondence.

    Row i of every series observes base time tick*i plus an independent
    uniform(-jitter, +jitter) offset; jitter at or beyond tick/2 risks
    ambiguous ordering and is warned about (timestamps are re-sorted per
    series and ties bumped to keep them strictly increasing).  Values follow
    a cross-coupled process so the consistency model has structure to learn.
    """
    if n < 2 or m < 2:
        raise ConfigError("need n >= 2 and m >= 2")
    if not (math.isfinite(timestamp_jitter) and math.isfinite(tick)):
        raise ConfigError("jitter and tick must be finite")
    if timestamp_jitter < 0:
        raise ConfigError("jitter must be non-negative")
    if tick <= 0:
        raise ConfigError("tick must be positive")
    if timestamp_jitter >= tick / 2:
        warnings.warn("jitter >= tick/2: cross-row timestamps may interleave")
    rng = np.random.default_rng(seed)
    base = tick * np.arange(n, dtype=float)
    ts = base[None, :] + rng.uniform(-timestamp_jitter, timestamp_jitter, size=(m, n))
    ts = np.sort(ts, axis=1)
    # bump ties over Python floats, in the series that have one: the same
    # IEEE doubles as a bump in numpy, without a numpy scalar per timestamp
    for k in np.flatnonzero((ts[:, 1:] <= ts[:, :-1]).any(axis=1)).tolist():
        row = ts[k].tolist()
        for i in range(1, n):
            if row[i] <= row[i - 1]:
                row[i] = math.nextafter(row[i - 1], math.inf)
        ts[k] = row

    noise = rng.normal(size=(m, n))
    if value_model == "ar1":
        latent = [rng.normal()]
        for shock in rng.normal(size=n)[1:].tolist():
            latent.append(0.8 * latent[-1] + 0.6 * shock)
        latent = np.array(latent)
        loadings = rng.uniform(0.5, 1.5, size=m)
        offsets = rng.uniform(-1.0, 1.0, size=m)
        values = loadings[:, None] * latent[None, :] + offsets[:, None] + 0.05 * noise
    elif value_model == "sine":
        phases = rng.uniform(0, 2 * np.pi, size=m)
        angle = 2 * np.pi * np.arange(n) / 50.0
        values = np.sin(angle[None, :] + phases[:, None]) + 0.02 * noise
    elif value_model == "walk":
        walk = np.cumsum(rng.normal(size=n))
        loadings = rng.uniform(0.5, 1.5, size=m)
        values = loadings[:, None] * walk[None, :] + 0.05 * noise
    else:
        raise ConfigError(f"unknown value model {value_model!r}")

    table = SeriesTable(ts, values)
    return table, GroundTruth.same_row(table)


BENCH_WEIGHTS = WeightParams(3, 2, 1, 1)


def benchmark_alignment(n: int, m: int, jitter: float, rate: float, strategy: str,
                        seed: int, *, tick: float = 10.0, value_model: str = "ar1",
                        theta: float | None = None, beta: int | None = None) -> dict:
    """One synthetic benchmark run: generate, mask values, compose, score.

    A window not given is tuned on the masked table, theta at the 100th
    percentile.  The run composes under ``BENCH_WEIGHTS`` with no model
    constraint; ``wall_time_ms`` covers candidate generation and the compose.
    """
    complete, truth = generate_synthetic(n, m, jitter, value_model=value_model,
                                         seed=seed, tick=tick)
    masked = inject_mcar(complete, rate, seed=seed + 1)
    theta, beta = tuning.determine_windows(masked, theta, beta, percentile=100.0)
    cfg = ConstraintConfig(theta=theta, beta=beta)
    start = time.perf_counter()
    rc = generate_candidates(masked, cfg)
    alignment = composers.compose(strategy, rc, cfg, masked, BENCH_WEIGHTS, seed=seed)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = score(alignment, truth)
    return {
        "strategy": strategy, "n": n, "m": m, "rate": rate, "seed": seed,
        "theta": None if math.isinf(theta) else theta, "beta": beta,
        "candidate_count": len(rc),
        "aligned_tuple_count": report.aligned_tuple_count,
        "total_weight": report.total_weight,
        "delta_score": alignment.report.delta,
        "precision": report.precision, "recall": report.recall, "f1": report.f1,
        "wall_time_ms": elapsed_ms,
    }

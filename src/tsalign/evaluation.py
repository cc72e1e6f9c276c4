"""Ground-truth scoring, MCAR injection, and synthetic benchmark generation."""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import composers, tuning
from .candidate import generate_candidates
from .composers import Alignment
from .core import ConstraintConfig, SeriesTable, WeightParams
from .errors import ConfigError, StructuralError

Cell = tuple[int, int]  # (series, row)


@dataclass(frozen=True)
class GroundTruth:
    """The complete table plus which cells are genuinely simultaneous.

    Each group lists the (series, row) cells recorded at the same semantic
    time; every non-missing cell of the complete table belongs to exactly
    one group.
    """

    table: SeriesTable
    groups: tuple[tuple[Cell, ...], ...]

    def pair_set(self) -> set[frozenset[Cell]]:
        pairs: set[frozenset[Cell]] = set()
        for group in self.groups:
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    pairs.add(frozenset((group[a], group[b])))
        return pairs

    @classmethod
    def same_row(cls, table: SeriesTable) -> "GroundTruth":
        """Truth where row i of every series is simultaneous (synthetic convention)."""
        present = table.timestamp_mask | table.value_mask
        groups = []
        for i in range(table.n):
            group = tuple((k, i) for k in range(table.m) if present[k, i])
            if group:
                groups.append(group)
        return cls(table, tuple(groups))


@dataclass(frozen=True)
class ScoreReport:
    precision: float
    recall: float
    f1: float
    aligned_tuple_count: int
    total_weight: float
    delta: float


def score(alignment: Alignment, truth: GroundTruth) -> ScoreReport:
    """Pair-level precision/recall/F1 of an alignment against the truth pairing.

    A tuple asserts one pair per series pair, identified by (series, row)
    cell indices; precision over an empty alignment is defined as 0.
    """
    m, n = truth.table.m, truth.table.n
    aligned_pairs: set[frozenset[Cell]] = set()
    for r in alignment.tuples:
        if len(r.slots) != m or any(not 0 <= row < n for row in r.slots):
            raise StructuralError("alignment does not fit the truth table")
        for a in range(m):
            for b in range(a + 1, m):
                aligned_pairs.add(frozenset(((a, r.slots[a]), (b, r.slots[b]))))
    truth_pairs = truth.pair_set()
    hit = len(aligned_pairs & truth_pairs)
    precision = hit / len(aligned_pairs) if aligned_pairs else 0.0
    recall = hit / len(truth_pairs) if truth_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ScoreReport(precision, recall, f1, len(alignment.tuples),
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
    if timestamp_jitter < 0:
        raise ConfigError("jitter must be non-negative")
    if timestamp_jitter >= tick / 2:
        warnings.warn("jitter >= tick/2: cross-row timestamps may interleave")
    rng = np.random.default_rng(seed)
    base = tick * np.arange(n, dtype=float)
    ts = base[None, :] + rng.uniform(-timestamp_jitter, timestamp_jitter, size=(m, n))
    ts = np.sort(ts, axis=1)
    for k in range(m):
        for i in range(1, n):
            if ts[k, i] <= ts[k, i - 1]:
                ts[k, i] = np.nextafter(ts[k, i - 1], np.inf)

    noise = rng.normal(size=(m, n))
    if value_model == "ar1":
        latent = np.empty(n)
        latent[0] = rng.normal()
        shocks = rng.normal(size=n)
        for i in range(1, n):
            latent[i] = 0.8 * latent[i - 1] + 0.6 * shocks[i]
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


def benchmark_alignment(n: int, m: int, jitter: float, rate: float, strategy: str,
                        seed: int, *, tick: float = 10.0, value_model: str = "ar1",
                        theta_percentile: float = 100.0, beta_lower: int = 0,
                        weights: WeightParams = WeightParams(3, 2, 1, 1),
                        target: str = "values", delta: float = math.inf,
                        max_retries: int = 16) -> dict:
    """One synthetic benchmark run: generate, mask, tune theta/beta, compose, score."""
    complete, truth = generate_synthetic(n, m, jitter, value_model=value_model,
                                         seed=seed, tick=tick)
    masked = inject_mcar(complete, rate, seed=seed + 1, target=target)
    theta = tuning.determine_theta(masked, percentile=theta_percentile)
    beta = tuning.determine_beta(masked, theta, beta_lower=beta_lower)
    cfg = ConstraintConfig(theta=theta, beta=beta, delta=delta)
    start = time.perf_counter()
    rc = generate_candidates(masked, cfg)
    alignment = composers.compose(strategy, rc, cfg, masked, weights, seed=seed,
                                  max_retries=max_retries)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = score(alignment, truth)
    return {
        "strategy": strategy, "n": n, "m": m, "rate": rate, "seed": seed,
        "theta": theta, "beta": beta,
        "candidate_count": len(rc),
        "aligned_tuple_count": report.aligned_tuple_count,
        "total_weight": report.total_weight,
        "delta_score": alignment.report.delta,
        "precision": report.precision, "recall": report.recall, "f1": report.f1,
        "wall_time_ms": elapsed_ms,
    }

"""Ground-truth scoring, MCAR injection, and synthetic table generation.

Scoring is column-wise: every truth cell carries a group id in one
(m, n) array, and an aligned pair of cells hits when both carry the same
id.  Aligned pairs are integer keys, deduplicated by sorting one series
pair at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import SeriesTable, adopt, slot_array
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
        """Truth where row i of every series is simultaneous (synthetic convention),
        holding the ids of ``same_row_groups`` without a copy."""
        ids = same_row_groups(table.timestamp_mask | table.value_mask)
        return adopt(cls, table=table, cell_groups=ids.ravel())


def same_row_groups(present: np.ndarray) -> np.ndarray:
    """The read-only (m, n) group ids of the same-row truth whose cells with a
    timestamp or a value are ``present``.

    The rows with some present cell are numbered 0, 1, ... in row order, by
    one cumsum over the mask; a missing cell gets -1.  The ids are int32, as
    candidate slots are, when n fits.
    """
    dtype = np.int32 if present.shape[1] < 2**31 else np.intp
    row_ids = np.cumsum(present.any(axis=0), dtype=dtype) - 1
    ids = np.where(present, row_ids, -1)
    ids.setflags(write=False)
    return ids


@dataclass(frozen=True)
class ScoreReport:
    precision: float
    recall: float
    f1: float


def pair_accuracy(slots, truth) -> tuple[float, float, float]:
    """Pair-level precision, recall and F1 of aligned tuples against the truth pairing.

    ``slots`` holds one slot vector per tuple: an (T, m) integer array, or a
    sequence of slot vectors.  ``truth`` is a GroundTruth, or the (m, n)
    group ids of one (see ``same_row_groups``).  A tuple asserts one pair of
    cells per series pair; a pair asserted by several tuples counts once.  A
    pair hits when both cells carry the same truth group id, and the truth
    holds C(|g|, 2) pairs per group g.  Precision over no pairs is defined
    as 0.

    The series pairs are counted one at a time (see ``_pair_counts``), and
    the truth's group sizes one series at a time, so the working set is a
    few arrays of T entries and of n entries whatever m is.
    """
    ids = (truth.cell_groups.reshape(truth.table.m, truth.table.n)
           if isinstance(truth, GroundTruth) else truth)
    m, n = ids.shape
    try:
        slots = slot_array(slots)
    except ValueError:
        raise StructuralError("alignment does not fit the truth table") from None
    if slots.size == 0:
        slots = slots.reshape(0, m)
    if (slots.ndim != 2 or slots.shape[1] != m
            or (slots.size and (slots.min() < 0 or slots.max() >= n))):
        raise StructuralError("alignment does not fit the truth table")
    # a series whose rows are all distinct, as in any conflict-free
    # alignment, makes every pair it takes part in distinct, so those pairs
    # skip the sort (whose first call pages in about 128 KB of numpy code)
    distinct = [np.bincount(slots[:, k], minlength=n).max(initial=0) <= 1 for k in range(m)]
    pairs = hit = 0
    for a, b in combinations(range(m), 2):
        pair_total, pair_hit = _pair_counts(ids[a], ids[b], slots[:, a], slots[:, b], n,
                                            distinct[a] or distinct[b])
        pairs += pair_total
        hit += pair_hit
    # the group sizes, counted one series at a time
    sizes = np.zeros(int(ids.max(initial=-1)) + 1, dtype=np.intp)
    for row in ids:
        sizes += np.bincount(row[row >= 0], minlength=sizes.size)
    truth_pairs = int(sizes @ (sizes - 1)) // 2
    precision = hit / pairs if pairs else 0.0
    recall = hit / truth_pairs if truth_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _pair_counts(ids_a: np.ndarray, ids_b: np.ndarray, rows_a: np.ndarray,
                 rows_b: np.ndarray, n: int, distinct: bool) -> tuple[int, int]:
    """The distinct cell pairs of one series pair, and how many of them hit.

    When the pairs are known to be ``distinct`` they are counted as they
    are.  Otherwise a pair of cells is the key row_a * n + row_b, below
    n * n; a hit's key is moved up by n * n, so after the sort the hits
    follow the misses, and the distinct keys of each part are counted from
    the run starts.
    """
    first = ids_a[rows_a]
    same = first == ids_b[rows_b]
    same &= first >= 0
    del first
    if distinct:
        return same.size, int(np.count_nonzero(same))
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


def score(alignment, truth) -> ScoreReport:
    """Pair-level precision/recall/F1 of a ``composers.Alignment`` against a
    GroundTruth or its (m, n) group ids (see ``pair_accuracy``)."""
    return ScoreReport(*pair_accuracy(alignment.slots, truth))


def check_mcar(rate: float, seed: int = 0, target: str = "values") -> None:
    """Raise ConfigError unless ``inject_mcar`` takes these arguments."""
    if not 0 <= rate <= 1:
        raise ConfigError("missing rate must lie in [0, 1]")
    if target not in ("values", "timestamps", "both"):
        raise ConfigError(f"unknown target {target!r}")
    if seed < 0:
        raise ConfigError("seed must be non-negative")


def inject_mcar(t: SeriesTable, rate: float, seed: int, target: str = "values") -> SeriesTable:
    """Mask each targeted present cell independently with probability ``rate``."""
    check_mcar(rate, seed, target)
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


def check_synthetic(n: int, m: int, timestamp_jitter: float, tick: float, seed: int) -> None:
    """Raise ConfigError unless ``generate_synthetic`` takes these arguments."""
    if n < 2 or m < 2:
        raise ConfigError("need n >= 2 and m >= 2")
    if not (math.isfinite(timestamp_jitter) and math.isfinite(tick)):
        raise ConfigError("jitter and tick must be finite")
    if timestamp_jitter < 0:
        raise ConfigError("jitter must be non-negative")
    if tick <= 0:
        raise ConfigError("tick must be positive")
    if seed < 0:
        raise ConfigError("seed must be non-negative")


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
    check_synthetic(n, m, timestamp_jitter, tick, seed)
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


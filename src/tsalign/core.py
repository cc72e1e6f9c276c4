"""Domain types, similarity measures, the tuple weight, and the conflict relation."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, StructuralError


@dataclass(frozen=True)
class SeriesTable:
    """Rectangular store of m time series with per-cell missingness.

    ``timestamps`` and ``values`` are (m, n) float arrays where NaN marks a
    missing entry.  Row i of series k is the cell (timestamps[k, i],
    values[k, i]); either half may be missing independently.  Present values
    must be finite, and within each series the present timestamps strictly
    increasing by row index: ``_check_table`` holds the whole rule, for
    ``cli.ingest`` too, so a table can be written and read back.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.array(self.timestamps, dtype=float)
        vs = np.array(self.values, dtype=float)
        _check_table(ts, vs)
        ts.setflags(write=False)
        vs.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vs)

    @property
    def m(self) -> int:
        return self.timestamps.shape[0]

    @property
    def n(self) -> int:
        return self.timestamps.shape[1]

    @cached_property
    def timestamp_mask(self) -> np.ndarray:
        mask = ~np.isnan(self.timestamps)
        mask.setflags(write=False)
        return mask

    @cached_property
    def value_mask(self) -> np.ndarray:
        mask = ~np.isnan(self.values)
        mask.setflags(write=False)
        return mask

    @classmethod
    def from_columns(cls, columns: Sequence[tuple[Sequence, Sequence]]) -> "SeriesTable":
        """Build a table from per-series (timestamps, values) sequences.

        ``None`` entries mark missing cells; shorter series are padded with
        fully-missing rows so every series shares the same row count.
        """
        n = max((max(len(t), len(v)) for t, v in columns), default=0)
        m = len(columns)
        ts = np.full((m, n), np.nan)
        vs = np.full((m, n), np.nan)
        for k, (t_col, v_col) in enumerate(columns):
            for i, x in enumerate(t_col):
                if x is not None:
                    ts[k, i] = float(x)
            for i, x in enumerate(v_col):
                if x is not None:
                    vs[k, i] = float(x)
        return cls(ts, vs)


def _check_table(ts: np.ndarray, vs: np.ndarray, where: str = "", lines=None) -> None:
    """DataError, prefixed by ``where``, unless ``ts`` and ``vs`` hold a table: 2-D
    arrays of one shape with at least 2 series, every present value finite, each
    series' present timestamps strictly increasing, and the largest present
    timestamp minus the smallest a finite float.  This is the rule of
    ``SeriesTable`` and of ``cli.ingest``.

    Every timestamp difference the package takes, a same-row gap of theta's
    tuning, a candidate's spread or an aligned row's theta_sim, is at most
    this span, so none overflows to inf.  Every out-of-order timestamp is
    named by its series and row, both counted from 1, or, when ``lines`` is
    given, by its series and file line ``lines()[row]``, called only then.
    """
    if ts.ndim != 2 or vs.ndim != 2:
        raise DataError(f"{where}timestamps and values must be 2-D (series x rows)")
    if ts.shape != vs.shape:
        raise DataError(f"{where}shape mismatch: timestamps {ts.shape} vs values {vs.shape}")
    if ts.shape[0] < 2:
        raise DataError(f"{where}a table needs at least 2 series")
    if np.isinf(vs).any():
        raise DataError(f"{where}present values must be finite (NaN marks a missing value)")
    bad = []  # (series, row) of each present timestamp not above the series' last
    for k in range(ts.shape[0]):
        rows = np.flatnonzero(~np.isnan(ts[k]))
        present = ts[k, rows]
        bad += [(k, row) for row in rows[1:][present[1:] <= present[:-1]].tolist()]
    if bad:
        unit, names = ("line", lines()) if lines else ("row", range(1, ts.shape[1] + 1))
        raise DataError(f"{where}timestamps not strictly increasing at " + ", ".join(
            f"series {k + 1} {unit} {names[row]}" for k, row in bad))
    # NaN when no timestamp is present; a Python float difference overflows to inf quietly
    hi = float(np.fmax.reduce(ts, axis=None, initial=np.nan))
    lo = float(np.fmin.reduce(ts, axis=None, initial=np.nan))
    if hi == hi and not math.isfinite(hi - lo):
        raise DataError(f"{where}timestamps span {lo!r} to {hi!r}, "
                        "a difference that overflows a float")


def adopt(cls, **fields):
    """An instance of the frozen dataclass ``cls`` that holds ``fields`` as given.

    Nothing is copied and ``__post_init__`` does not run, so its checks are
    the caller's: this is for arrays the package has just built and checked,
    and made read-only, such as those of ``cli.ingest``.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, order=True)
class AlignedTuple:
    """One row reference per series, asserting the cells are simultaneous."""

    slots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(int(s) for s in self.slots))

    def __len__(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class WeightParams:
    """Coefficients of the tuple weight: (k1*p + b) / (k2*d + c)."""

    k1: float = 1.0
    k2: float = 1.0
    b: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k1, self.k2, self.b, self.c))):
            raise ConfigError("k1, k2, b and c must be finite")
        if self.k1 < 0 or self.k2 < 0:
            raise ConfigError("k1 and k2 must be non-negative")
        if self.b <= 0 or self.c <= 0:
            raise ConfigError("bias terms b and c must be strictly positive")


@dataclass(frozen=True)
class ConstraintConfig:
    """Thresholds for the time (theta), position (beta), and model (delta) constraints."""

    theta: float
    beta: int
    delta: float = math.inf

    def __post_init__(self):
        if math.isnan(self.theta) or self.theta < 0:
            raise ConfigError("theta must be non-negative (infinity disables the time check)")
        # nan and the infinities fail the range test before int() can see them
        if not 0 <= self.beta < math.inf or self.beta != int(self.beta):
            raise ConfigError("beta must be a non-negative integer")
        object.__setattr__(self, "beta", int(self.beta))
        if math.isnan(self.delta) or self.delta < 0:
            raise ConfigError("delta must be non-negative (infinity disables the model check)")


def check_tuple(r: AlignedTuple, t: SeriesTable) -> None:
    """Raise StructuralError unless every slot of ``r`` addresses a row of ``t``."""
    if len(r.slots) != t.m:
        raise StructuralError(f"tuple has {len(r.slots)} slots, table has {t.m} series")
    for k, row in enumerate(r.slots):
        if not 0 <= row < t.n:
            raise StructuralError(f"slot {k}: row {row} out of range [0, {t.n})")


def theta_similarity(r: AlignedTuple, t: SeriesTable) -> Optional[float]:
    """Largest pairwise gap between the tuple's non-missing timestamps.

    Returns None when fewer than two timestamps are present; such tuples
    vacuously satisfy the time constraint.
    """
    check_tuple(r, t)
    lo = math.inf
    hi = -math.inf
    count = 0
    for k, row in enumerate(r.slots):
        x = t.timestamps[k, row]
        if x == x:  # not NaN
            count += 1
            lo = min(lo, x)
            hi = max(hi, x)
    if count < 2:
        return None
    return hi - lo


def phi_similarity(r: AlignedTuple) -> int:
    """Largest pairwise row-index gap, taken over all slots."""
    if not r.slots:
        raise StructuralError("tuple has no slots")
    return max(r.slots) - min(r.slots)


def slot_array(slots) -> np.ndarray:
    """``slots`` as an integer array: int32 slots, such as a candidate set's,
    are read without a copy, and any other dtype is widened to intp."""
    slots = np.asarray(slots)
    return slots if slots.dtype == np.int32 else slots.astype(np.intp, copy=False)


def weight_terms(t: SeriesTable, slot_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts p and index spreads d of an (N, m) integer array of slot vectors.

    Both are summed one series (p) or one series pair (d) at a time, so every
    temporary holds N entries; the integer sums are exact.
    """
    # differences of int32 row indices fit in int32
    slot_rows = slot_array(slot_rows)
    if slot_rows.size == 0:
        return np.zeros(0), np.zeros(0)
    lam = np.zeros(len(slot_rows), dtype=np.intp)
    for k in range(t.m):
        lam += t.value_mask[k][slot_rows[:, k]]
    spread = np.zeros(len(slot_rows), dtype=np.intp)
    for a, b in itertools.combinations(range(t.m), 2):
        spread += np.abs(slot_rows[:, a] - slot_rows[:, b])
    return lam * (lam - 1) / 2, spread.astype(float)


def combine_weights(p: np.ndarray, d: np.ndarray, w: WeightParams) -> np.ndarray:
    """Tuple weights (k1*p + b) / (k2*d + c) from the terms of ``weight_terms``.

    Raises ConfigError when a weight overflows, as k1 = 1e308 or c = 1e-320
    can make it, or underflows to 0, as k2 = 1e300 with b = 1e-310 can, so no
    run goes on to write a non-finite weight or compose over a zero one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (w.k1 * p + w.b) / (w.k2 * d + w.c)
    if not ((weights > 0) & (weights < np.inf)).all():
        raise ConfigError("a tuple weight overflows or underflows to 0 under these "
                          "k1, k2, b and c")
    return weights


def batch_weights(t: SeriesTable, slot_rows: np.ndarray, w: WeightParams) -> np.ndarray:
    """Tuple weights (k1*p + b) / (k2*d + c) of an (N, m) integer array of slot vectors."""
    return combine_weights(*weight_terms(t, slot_rows), w)


def conflicts(r1: AlignedTuple, r2: AlignedTuple) -> bool:
    """True iff the tuples claim the same row of some series (reflexive, symmetric)."""
    if len(r1.slots) != len(r2.slots):
        raise StructuralError("tuples from tables with different series counts")
    return any(a == b for a, b in zip(r1.slots, r2.slots))

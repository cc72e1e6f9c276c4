"""Candidate tuple generation under the time and position constraints.

The generator walks one cursor per series in ascending lexicographic order.
After fixing a prefix of cursors, the remaining cursors are confined to the
window [max(prefix) - beta, min(prefix) + beta], which is exactly the set of
rows that can still satisfy the position constraint.  Timestamp monotonicity
lets the walk skip a row whose timestamp already breaks the time constraint
against the prefix without visiting any of its extensions.  The brute-force
enumerator below is the testing oracle: both must return identical sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    AlignedTuple,
    ConstraintConfig,
    SeriesTable,
    phi_similarity,
    theta_similarity,
    weight_terms,
)
from .errors import SizeError

BRUTE_FORCE_GUARD = 10_000_000


@dataclass(frozen=True)
class CandidateSet:
    """Constraint-feasible tuples in ascending lexicographic slot order.

    The weight-independent state every compose of the set needs (slot array,
    weight terms, isolated mask, fitted reports) is computed on first use and
    kept, so a tuning grid composing the same set many times builds it once.
    """

    tuples: tuple[AlignedTuple, ...]
    config: ConstraintConfig
    table: SeriesTable

    def __len__(self) -> int:
        return len(self.tuples)

    @cached_property
    def slot_array(self) -> np.ndarray:
        """The (N, m) array of slot vectors, one row per candidate."""
        slots = np.array([r.slots for r in self.tuples], dtype=np.intp)
        return slots.reshape(len(self.tuples), self.table.m)

    @cached_property
    def weight_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair counts p and index spreads d, as ``batch_weights`` computes them."""
        return weight_terms(self.table, self.slot_array)

    @cached_property
    def isolated(self) -> np.ndarray:
        """Mask of the candidates that share no cell with any other candidate."""
        m, n = self.table.m, self.table.n
        keys = self.slot_array + np.arange(m) * n
        return (np.bincount(keys.ravel(), minlength=m * n)[keys] == 1).all(axis=1)

    @cached_property
    def reports(self) -> dict:
        """Consistency reports already fitted, by sorted tuple of candidate indices."""
        return {}

    def __iter__(self):
        return iter(self.tuples)

    def __getitem__(self, i):
        return self.tuples[i]


def generate_candidates(t: SeriesTable, cfg: ConstraintConfig) -> CandidateSet:
    """All tuples with theta_similarity <= theta and phi_similarity <= beta."""
    m, n = t.m, t.n
    if n == 0:
        return CandidateSet((), cfg, t)
    theta = cfg.theta
    beta = cfg.beta
    ts_rows = [row.tolist() for row in t.timestamps]
    out: list[AlignedTuple] = []
    slots = [0] * m
    last = m - 1

    def extend(k: int, lo: int, hi: int, smin: int, smax: int, tmin: float, tmax: float) -> None:
        row_ts = ts_rows[k]
        for v in range(lo, hi + 1):
            x = row_ts[v]
            if x == x:  # timestamp present
                ntmin = x if x < tmin else tmin
                ntmax = x if x > tmax else tmax
                if ntmax - ntmin > theta:
                    continue
            else:
                ntmin, ntmax = tmin, tmax
            slots[k] = v
            if k == last:
                out.append(AlignedTuple(tuple(slots)))
            else:
                nsmin = v if v < smin else smin
                nsmax = v if v > smax else smax
                nlo = nsmax - beta
                if nlo < 0:
                    nlo = 0
                nhi = nsmin + beta
                if nhi > n - 1:
                    nhi = n - 1
                extend(k + 1, nlo, nhi, nsmin, nsmax, ntmin, ntmax)

    first_ts = ts_rows[0]
    for v0 in range(n):
        slots[0] = v0
        x = first_ts[v0]
        if x == x:
            tmin = tmax = x
        else:
            tmin, tmax = math.inf, -math.inf
        lo = max(0, v0 - beta)
        hi = min(n - 1, v0 + beta)
        extend(1, lo, hi, v0, v0, tmin, tmax)
    return CandidateSet(tuple(out), cfg, t)


def brute_force_candidates(t: SeriesTable, cfg: ConstraintConfig) -> CandidateSet:
    """Oracle: enumerate all n^m slot vectors and filter by both constraints."""
    if t.n ** t.m > BRUTE_FORCE_GUARD:
        raise SizeError(f"n^m = {t.n ** t.m} exceeds the brute-force guard {BRUTE_FORCE_GUARD}")
    out = []
    for combo in itertools.product(range(t.n), repeat=t.m):
        r = AlignedTuple(combo)
        if phi_similarity(r) > cfg.beta:
            continue
        th = theta_similarity(r, t)
        if th is not None and th > cfg.theta:
            continue
        out.append(r)
    return CandidateSet(tuple(out), cfg, t)

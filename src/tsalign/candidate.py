"""Candidate tuple generation under the time and position constraints.

Candidates are built level by level, one series at a time, straight into one
(N, m) int32 slot array.  After level k, every prefix (a slot of each of the
series 1..k) that still satisfies both constraints is kept, with its row
range (smin, smax) and the range (tmin, tmax) of its present timestamps.
A prefix can only be extended by a row of the next series in the window

    [max(smax - beta, 0), min(smin + beta, n - 1)],

which is exactly the set of rows that keeps the position constraint, so the
windows of all prefixes are expanded at once: ``np.repeat`` gives each
expanded row its parent prefix, and the row itself is its position in the
flat expansion minus the parent's offset there (a cumsum of the window
widths) plus the window's first row.  A prefix's timestamp range is within
theta, so a present timestamp x widens it past theta only at a new end:
x - tmin > theta or tmax - x > theta, the same subtractions the range check
makes.  Such rows are masked out; a missing timestamp compares False and
leaves the range as it is.

The output is in ascending lexicographic slot order with no duplicates: the
prefixes of a level are in lexicographic order, ``np.repeat`` keeps the
parents in that order, and each parent's window rows are ascending, so the
expansion is already sorted by (parent, row), which is lexicographic order
of the longer prefixes.  A level stores only each kept row's parent index
and slot; the full rows are gathered once, at the end, by following the
parent indices back to the first series.

The cost of a level is the sum of its prefixes' window widths (at most
min(2 * beta + 1, n) each), in time and in memory, including the rows the
time constraint then drops.  The tests check it against a brute-force
enumerator: both must return identical sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ConstraintConfig, SeriesTable, weight_terms
from .errors import SizeError

INT32_MAX = np.iinfo(np.int32).max


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CandidateSet:
    """Constraint-feasible tuples in ascending lexicographic slot order.

    ``slots`` is the (N, m) int32 array of slot vectors, one row per
    candidate.  It and the weight-independent state every compose of the set
    needs (weight terms, isolated mask, conflict segments, weight-class
    representatives, the row window state of ``expect``, fitted reports and
    greedy segment walks) are shared by every compose of the set, so the
    arrays are read-only; the state is computed on first use and kept, so a
    run that tunes delta on the set and then composes it builds it once.

    The group pass visits the non-isolated candidates (``visited``) in index
    order.  A conflict segment is a maximal run of them that no cell links
    to the rest: between two consecutive segments, no cell is used by a
    candidate on each side.  ``segment_bounds`` holds the S + 1 positions in
    ``visited`` where the S segments start, then ``len(visited)``.  Like the
    isolated mask, the segments do not depend on the weights.
    """

    slots: np.ndarray
    config: ConstraintConfig
    table: SeriesTable

    def __post_init__(self):
        slots = np.asarray(self.slots, dtype=np.int32).reshape(-1, self.table.m)
        object.__setattr__(self, "slots", _read_only(slots))

    def __len__(self) -> int:
        return self.slots.shape[0]

    @cached_property
    def weight_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair counts p and index spreads d, as ``batch_weights`` computes them."""
        p, d = weight_terms(self.table, self.slots)
        return _read_only(p), _read_only(d)

    @cached_property
    def isolated(self) -> np.ndarray:
        """Mask of the candidates that share no cell with any other candidate."""
        m, n = self.table.m, self.table.n
        keys = self.slots + np.arange(m) * n
        return _read_only((np.bincount(keys.ravel(), minlength=m * n)[keys] == 1).all(axis=1))

    @cached_property
    def visited(self) -> np.ndarray:
        """Indices of the candidates that are not isolated, ascending."""
        return _read_only(np.flatnonzero(~self.isolated))

    @cached_property
    def segment_bounds(self) -> np.ndarray:
        """Start positions in ``visited`` of the conflict segments, then ``len(visited)``.

        Segment j is ``visited[bounds[j]:bounds[j + 1]]``.  A segment ends
        after position q when no cell used at or before q is used after it:
        ``reach[q]``, the running maximum over positions up to q of the last
        position using any of their cells, equals q.
        """
        m, n = self.table.m, self.table.n
        count = self.visited.size
        if not count:
            return _read_only(np.zeros(1, dtype=np.intp))
        position = np.arange(count)
        # cell keys s * n + r, one series at a time
        columns = [self.slots[self.visited, s] + s * n for s in range(m)]
        last = np.zeros(m * n, dtype=np.intp)
        for keys in columns:
            np.maximum.at(last, keys, position)
        reach = last[columns[0]]
        for keys in columns[1:]:
            np.maximum(reach, last[keys], out=reach)
        np.maximum.accumulate(reach, out=reach)
        ends = np.flatnonzero(reach == position) + 1
        return _read_only(np.concatenate(([0], ends)))

    @cached_property
    def pass_lists(self) -> tuple[list[int], list[int], list[list[int]], list[int]]:
        """The group pass's Python-list view of the set, built once for all passes.

        The isolated indices, the ``visited`` indices, the cell keys
        s * n + r of each visited candidate, and ``segment_bounds``.
        """
        m, n = self.table.m, self.table.n
        cells = self.slots[self.visited] + np.arange(m) * n
        return (np.flatnonzero(self.isolated).tolist(), self.visited.tolist(), cells.tolist(),
                self.segment_bounds.tolist())

    @cached_property
    def slot_spread(self) -> int:
        """Largest slot spread (max slot minus min slot) of any candidate; 0 if empty.

        Read from the slots, not from ``config.beta``, which a hand-made set
        need not keep.
        """
        if not len(self):
            return 0
        return int((self.slots.max(axis=1) - self.slots.min(axis=1)).max())

    @cached_property
    def slot_columns(self) -> np.ndarray:
        """The slots as a contiguous (m, N) array, one row per series."""
        return _read_only(np.ascontiguousarray(self.slots.T))

    @cached_property
    def row_starts(self) -> np.ndarray:
        """``row_starts[r]``: index of the first candidate whose first slot is >= r.

        Defined for r = 0..n; the candidates whose first slot lies in
        [a, b] are ``row_starts[a]:row_starts[b + 1]``, since the slots are
        in lexicographic order with the first series as the major key.
        """
        rows = np.arange(self.table.n + 1)
        return _read_only(np.searchsorted(self.slot_columns[0], rows))

    @cached_property
    def class_representatives(self) -> np.ndarray:
        """One non-isolated candidate per distinct weight-term class (p, d).

        A weight reads only p and d, so every candidate weighs as its class's
        representative under any ``WeightParams``.  The classes are found by
        sorting on (p, d) and keeping the first candidate of each run.
        """
        p, d = self.weight_terms
        rest = self.visited
        order = rest[np.lexsort((d[rest], p[rest]))]
        po, do = p[order], d[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (po[1:] != po[:-1]) | (do[1:] != do[:-1])
        return _read_only(order[first])

    @cached_property
    def reports(self) -> dict:
        """Consistency reports already fitted, by sorted tuple of candidate indices."""
        return {}

    @cached_property
    def walks(self) -> dict:
        """Chosen indices, multi-member group count and largest group of the
        greedy segment walks that drew no tie-break.

        Keyed by (segment index, dense ranks of the segment's weights within
        the segment, as int32 bytes); see ``composers._group_pass``.
        """
        return {}


def generate_candidates(t: SeriesTable, cfg: ConstraintConfig) -> CandidateSet:
    """All tuples with theta_similarity <= theta and phi_similarity <= beta."""
    m, n = t.m, t.n
    theta = cfg.theta
    beta = min(cfg.beta, n)  # a wider window is clipped to the table anyway
    ts = t.timestamps
    # the prefixes of the first series: every row, with its timestamp as the range
    smin = smax = np.arange(n, dtype=np.int32)
    present = ~np.isnan(ts[0])
    tmin = np.where(present, ts[0], np.inf)
    tmax = np.where(present, ts[0], -np.inf)
    parents: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    for k in range(1, m):
        lo = np.maximum(smax - beta, 0)
        widths = np.minimum(smin + beta, n - 1) - lo + 1
        total = int(widths.sum())
        if total > INT32_MAX:
            raise SizeError(f"{total} partial candidates at series {k + 1} overflow int32")
        parent = np.repeat(np.arange(widths.size, dtype=np.int32), widths)
        # row = lo[parent] + (position - first position of parent)
        row = np.arange(total, dtype=np.int32)
        row -= np.repeat(np.cumsum(widths, dtype=np.int32) - widths - lo, widths)
        x = ts[k][row]
        # a missing x compares False: it never breaks theta
        keep = ~((x - np.repeat(tmin, widths) > theta) | (np.repeat(tmax, widths) - x > theta))
        parent, row = parent[keep], row[keep]
        parents.append(parent)
        rows.append(row)
        if k < m - 1:
            # fmin/fmax skip a missing timestamp, leaving the parent's range as it is
            x = x[keep]
            tmin, tmax = np.fmin(tmin[parent], x), np.fmax(tmax[parent], x)
            smin, smax = np.minimum(smin[parent], row), np.maximum(smax[parent], row)
    # gather the full rows by following the parents back to the first series
    slots = np.empty((rows[-1].size, m), dtype=np.int32)
    index = np.arange(rows[-1].size, dtype=np.int32)
    for k in range(m - 1, 0, -1):
        slots[:, k] = rows.pop()[index]
        index = parents.pop()[index]
    slots[:, 0] = index
    return CandidateSet(slots, cfg, t)

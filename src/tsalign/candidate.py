"""Candidate tuple generation under the time and position constraints.

Candidates are built level by level, one series at a time, straight into one
(m, N) int32 slot array with one row per series.  After level k, every
prefix (a slot of each of the series 1..k) that still satisfies both
constraints is kept, with its row range (smin, smax) and the range (tmin,
tmax) of its present timestamps.
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
of the longer prefixes.  The levels are one recursion over the series,
started from one empty prefix whose window is every row (smin = n - 1,
smax = 0) and whose timestamp range is empty (tmin = +inf, tmax = -inf), so
the first series is a level like any other: a level keeps only each kept
row's parent index and slot, hands its kept rows to the next series as
that level's prefixes, and fills its own row of each piece of candidates
that comes back, reading the slots through the piece's prefix indices and
passing their parents on to the level before.

A level of more than ``SPLIT_ROWS`` expanded rows is split into runs of
consecutive prefixes, each extended to the last series on its own before
the next run.  A run yields the candidates that
extend its prefixes, in order, and the runs are taken in order, so the
pieces come out in lexicographic order and their concatenation is the slot
array of the unsplit levels, row for row.  The rows a level expands are
counted over all its runs, and a level of more than ``INT32_MAX`` of them
is a ``SizeError`` as if it were not split.

The cost of a level (or of a run of it) is the sum of its prefixes' window
widths (at most min(2 * beta + 1, n) each), in time and in memory,
including the rows the time constraint then drops.  So the working set is
the output, held twice while the pieces are joined, plus the temporaries of
one level of at most about ``SPLIT_ROWS`` rows per series (a single
prefix's window, at most n rows, is never split), not a multiple of the
output.  The tests check the generator against a brute-force enumerator and
a recursive walk, with runs down to one prefix: all must return identical
arrays.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ConstraintConfig, SeriesTable, adopt, weight_terms
from .errors import SizeError, StructuralError

INT32_MAX = np.iinfo(np.int32).max
# a level of more expanded rows is split into runs of consecutive prefixes
SPLIT_ROWS = 1 << 15


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, ascending; ``np.searchsorted`` into them
    numbers each value of ``x`` by its rank among them."""
    # np.unique would do, but its first call pages in about 2 MB of numpy code;
    # equal values share a rank whichever of them is kept, so the sort need not
    # be stable
    x = np.sort(x)
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return x[first]


@dataclass(frozen=True)
class CandidateSet:
    """Constraint-feasible tuples in ascending lexicographic slot order.

    ``slots`` is the (N, m) int32 array of slot vectors, one row per
    candidate, and the transpose of the set's one slot store: ``slots.T``
    is a C-contiguous (m, N) array, one row per series, since every hot
    reader of the slots (the weight terms, the isolated mask, the beta
    scan, ``expect``'s window test) works one series at a time.  The set
    owns that array: ``__post_init__`` copies whatever it is given into it,
    so a later write to a caller's array changes nothing here, and
    ``generate_candidates`` hands over the array it built.  Every reader of
    the order (``row_starts``, ``expect``'s window, the sorted selections)
    relies on it, so ``__post_init__`` raises ``StructuralError`` at the
    first row that is not above the one before it.  It and the
    weight-independent state every compose of the set needs (the int32
    (p, d) weight class of each candidate with each class's p and d, the
    isolated mask, cell keys and conflict segments of the visited
    candidates, their weight classes per segment, the row window state of
    ``expect``, fitted reports, and the greedy segment walks, ranks and
    whole passes) are shared by every compose of the set, so the arrays are
    read-only; the state is built on first use and kept, so a run that
    tunes delta on the set and then composes it builds it once.  It holds
    no Python list and no per-candidate weight.

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
        # always a copy: the set never shares memory with a caller's array
        columns = np.array(slots.T, order="C")
        # a row is above the one before it where they first differ
        above = np.zeros(max(len(slots) - 1, 0), dtype=bool)
        for rows in columns[::-1]:
            above = (rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & above)
        if not above.all():
            i = int(np.argmin(above)) + 1
            raise StructuralError(f"candidate {i} {slots[i].tolist()} is not above candidate "
                                  f"{i - 1} {slots[i - 1].tolist()}: the slots must be in "
                                  "strictly ascending lexicographic order")
        object.__setattr__(self, "slots", _read_only(columns).T)

    def __len__(self) -> int:
        return self.slots.shape[0]

    @cached_property
    def weight_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (p, d) weight class of each candidate, and each class's p and d.

        A weight reads only the pair count p and the index spread d, so every
        candidate of a class weighs alike under any ``WeightParams``.  Returns
        the int32 class id of each candidate, then the C classes' p and d as
        ``core.weight_terms`` computes them, in ascending (p, d) order: class
        ids ascend with (p, d).  Both terms are whole numbers, so the int64
        key p * (d_max + 1) + d orders the candidates by (p, d); a class id
        is its key's position among the distinct keys, found by
        ``np.searchsorted``, and every member of a class holds its p and d.
        """
        p, d = weight_terms(self.table, self.slots)
        key = p.astype(np.int64)
        key *= int(d.max(initial=0)) + 1
        key += d.astype(np.int64)
        classes = _sorted_unique(key)
        ids = np.searchsorted(classes, key).astype(np.int32)
        del key
        # any one member of a class gives its p and d
        class_p, class_d = np.empty(classes.size), np.empty(classes.size)
        class_p[ids] = p
        class_d[ids] = d
        return _read_only(ids), _read_only(class_p), _read_only(class_d)

    def cell_keys(self, rows=slice(None)) -> np.ndarray:
        """The int32 key s * n + r of each cell (series s, row r) of candidates ``rows``;
        two candidates conflict exactly when they share a key."""
        m, n = self.table.m, self.table.n
        if m * n > INT32_MAX:
            raise SizeError(f"{m * n} cells overflow the int32 cell keys")
        # a slice is a view of the read-only, series-major slots: copy it into
        # one row per candidate; a gather is such a copy already
        keys = np.require(self.slots[rows], requirements="CW")
        keys += np.arange(m, dtype=np.int32) * n
        return keys

    @cached_property
    def isolated(self) -> np.ndarray:
        """Mask of the candidates that share no cell with any other candidate.

        A cell is one row of one series, so the rows of each series are
        counted on their own: one bincount of n entries per series.
        """
        n = self.table.n
        alone = np.ones(len(self), dtype=bool)
        for k in range(self.table.m):
            rows = self.slots[:, k]
            alone &= (np.bincount(rows, minlength=n) == 1)[rows]
        return _read_only(alone)

    @cached_property
    def visited(self) -> np.ndarray:
        """Indices of the candidates that are not isolated, ascending."""
        return _read_only(np.flatnonzero(~self.isolated))

    @cached_property
    def visited_cells(self) -> np.ndarray:
        """The (V, m) ``cell_keys`` of the ``visited`` candidates, in that order."""
        return _read_only(self.cell_keys(self.visited))

    @cached_property
    def segment_bounds(self) -> np.ndarray:
        """Start positions in ``visited`` of the conflict segments, then ``len(visited)``.

        Segment j is ``visited[bounds[j]:bounds[j + 1]]``.  A segment ends
        after position q when no cell used at or before q is used after it:
        ``reach[q]``, the running maximum over positions up to q of the last
        position using any of their cells, equals q.
        """
        # generation caps every level at INT32_MAX rows, so positions fit int32
        position = np.arange(self.visited.size, dtype=np.int32)
        columns = self.visited_cells.T
        last = np.zeros(self.table.m * self.table.n, dtype=np.int32)
        for keys in columns:
            np.maximum.at(last, keys, position)
        reach = last[columns[0]]
        for keys in columns[1:]:
            np.maximum(reach, last[keys], out=reach)
        np.maximum.accumulate(reach, out=reach)
        ends = np.flatnonzero(reach == position)
        ends += 1
        return _read_only(np.concatenate(([0], ends)))

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
    def row_starts(self) -> np.ndarray:
        """``row_starts[r]``: index of the first candidate whose first slot is >= r.

        Defined for r = 0..n; the candidates whose first slot lies in
        [a, b] are ``row_starts[a]:row_starts[b + 1]``, since the slots are
        in lexicographic order with the first series as the major key.
        """
        rows = np.arange(self.table.n + 1)
        return _read_only(np.searchsorted(self.slots[:, 0], rows))

    @cached_property
    def class_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``weight_classes`` of the visited candidates, per conflict segment.

        Returns the class of each (segment, class) pair present, in (segment,
        class) order, and the positions of each segment's first pair, then
        the pair count, so segment j's pairs are
        ``pair_bounds[j]:pair_bounds[j + 1]``.  The pairs are the distinct
        keys segment * C + class id of the visited candidates, for C the
        class count, found by one sort.
        """
        ids, p, _ = self.weight_classes
        count = max(p.size, 1)
        sizes = np.diff(self.segment_bounds)
        keys = np.repeat(np.arange(sizes.size) * count, sizes)
        keys += ids[self.visited]
        keys.sort()
        new = np.ones(keys.size, dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        keys = keys[new]
        pair_bounds = np.searchsorted(keys, np.arange(sizes.size + 1) * count)
        return _read_only(keys % count), _read_only(pair_bounds)

    @cached_property
    def reports(self) -> dict:
        """Consistency reports already fitted, by the bytes of the sorted intp
        array of the chosen candidate indices."""
        return {}

    @cached_property
    def walks(self) -> dict:
        """Chosen indices, multi-member group count and largest group of the
        greedy segment walks that drew no tie-break.

        Keyed by (segment index, dense ranks of the weights of the segment's
        ``class_table`` pairs within the segment, as int32 bytes); see
        ``composers._group_pass``.
        """
        return {}

    @cached_property
    def _ranks(self) -> dict:
        """The within-segment ranks of the ``class_table`` pairs' weights (the
        greedy ``composers.pass_key``), by the int64 bytes of the dense ranks
        of the ``weight_classes``' weights; see ``composers._segment_ranks``.
        """
        return {}

    @cached_property
    def _passes(self) -> dict:
        """Per greedy ``composers.pass_key``: the sorted read-only intp array
        of the first pass's selection without the segments that drew a
        tie-break, the indices of those segments, and its multi-member group
        count and largest group without them; see ``composers._group_pass``.
        """
        return {}


def generate_candidates(t: SeriesTable, cfg: ConstraintConfig) -> CandidateSet:
    """All tuples with theta_similarity <= theta and phi_similarity <= beta.

    ``_extend`` is called once, at the first series, from the empty prefix,
    and its (m, rows) pieces are joined along the candidate axis into one
    C-contiguous (m, N) array, which the set adopts as its own series-major
    slot store without a further copy.
    """
    n = t.n
    beta = min(cfg.beta, n)  # a wider window is clipped to the table anyway
    # one empty prefix: its window is every row and its timestamp range is empty
    pieces = [slots for _, slots in _extend(
        t.timestamps, cfg.theta, beta, 0, np.array([n - 1], dtype=np.int32),
        np.zeros(1, dtype=np.int32), np.array([np.inf]), np.array([-np.inf]), [0] * t.m)]
    columns = _read_only(np.concatenate(pieces, axis=1))
    return adopt(CandidateSet, slots=columns.T, config=cfg, table=t)


def _extend(ts: np.ndarray, theta: float, beta: int, k: int, smin: np.ndarray,
            smax: np.ndarray, tmin: np.ndarray, tmax: np.ndarray, expanded: list[int]
            ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The candidates extending the given prefixes of series 0..k-1, in order.

    Yields pieces (index, slots): ``slots`` is a C-contiguous (m, N) int32
    array with the rows of series k..m-1 filled, and ``index[i]`` is the
    prefix that candidate i extends.  A level of more than ``SPLIT_ROWS``
    expanded rows is split into runs of consecutive prefixes, each extended
    on its own;
    otherwise the kept rows of series k are the prefixes of the call for
    series k + 1, and each piece that comes back gets its row k here.
    ``expanded[k]`` counts the rows expanded so far at series k over all
    runs, so a level overflows int32 exactly when it would unsplit too.
    """
    m, n = ts.shape
    lo = np.maximum(smax - beta, 0)
    widths = np.minimum(smin + beta, n - 1) - lo + 1
    total = int(widths.sum())
    if expanded[k] + total > INT32_MAX:
        raise SizeError(f"{expanded[k] + total} partial candidates at series {k + 1} "
                        "overflow int32")
    if total > SPLIT_ROWS and widths.size > 1:
        for p, q in _runs(widths, SPLIT_ROWS):
            for index, slots in _extend(ts, theta, beta, k, smin[p:q], smax[p:q],
                                        tmin[p:q], tmax[p:q], expanded):
                index += p
                yield index, slots
        return
    expanded[k] += total
    parent = np.repeat(np.arange(widths.size, dtype=np.int32), widths)
    # row = lo[parent] + (position - first position of parent)
    row = np.arange(total, dtype=np.int32)
    row -= np.repeat(np.cumsum(widths, dtype=np.int32) - widths - lo, widths)
    x = ts[k][row]
    # a missing x compares False: it never breaks theta
    keep = ~((x - np.repeat(tmin, widths) > theta) | (np.repeat(tmax, widths) - x > theta))
    parent, row = parent[keep], row[keep]
    if k == m - 1:
        slots = np.empty((m, row.size), dtype=np.int32)
        slots[k] = row
        yield parent, slots
        return
    x = x[keep]
    # fmin/fmax skip a missing timestamp, leaving the parent's range as it is
    pieces = _extend(ts, theta, beta, k + 1, np.minimum(smin[parent], row),
                     np.maximum(smax[parent], row), np.fmin(tmin[parent], x),
                     np.fmax(tmax[parent], x), expanded)
    # the ranges live on in that call only, while it runs
    del keep, widths, lo, x, smin, smax, tmin, tmax
    for index, slots in pieces:
        slots[k] = row[index]
        yield parent[index], slots


def _runs(widths: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Runs [p, q) of consecutive prefixes whose widths sum to at most ``limit``,
    or of one prefix wider than that."""
    ends = np.cumsum(widths)
    runs, p = [], 0
    while p < widths.size:
        q = max(int(np.searchsorted(ends, ends[p] - widths[p] + limit, "right")), p + 1)
        runs.append((p, q))
        p = q
    return runs

"""Composers: select a conflict-free, model-consistent subset of the candidates.

Four strategies share one contract: maximize the summed tuple weight over
pairwise non-conflicting candidates, subject to the model-consistency bound.

* ``compose_exact`` enumerates conflict-free subsets (guarded at 24
  candidates) and is the optimality oracle for the others.
* ``compose_setpacking`` runs ratio-improving local search over replacement
  sets of at most m tuples, branching on ties.
* ``compose_greedy`` emits the heaviest member of each maximal run of
  mutually conflicting candidates.
* ``compose_expectation`` does the same but credits each group member with
  the weight of later compatible candidates it would keep available.  Every
  later candidate that can conflict with a group lies in one contiguous
  index range, the window W from ``group[0] + 1`` to the last candidate whose
  first-series row is at most twice the set's largest slot spread past the
  last member's.  A group with |G| * |W| up to ``PYTHON_SCORE_LIMIT`` is
  scored in plain Python, O(|W| * (m + |G|)), by looking up the window's
  visited candidates' cells in the group pass's own cell-to-member map; a
  larger one costs O(|G| * |W| * m) in numpy, one equality test of the
  members against the window, read from the set's own series-major slot
  store (``rc.slots.T``), in which each series' slots are contiguous.  The
  window state is cached on the ``CandidateSet``.

``STRATEGIES`` maps the strategy names to these functions and ``compose``
dispatches through it.

Cost model of the group pass behind ``greedy`` and ``expect``.  The
weight-independent state (the slots, held once as a read-only series-major
array that the set owns, the int32 (p, d) weight class of each candidate
with each class's p and d, isolated mask, the (V, m) int32 cell keys of the
V visited candidates, one row per candidate, and their conflict segments)
lives on the ``CandidateSet`` as arrays and is built on its first compose,
so a run whose tuning grid and final compose share one set builds it once.
A compose weighs the C classes and gathers each candidate's weight from its
class's (``_weights``), the one per-candidate weight array it holds.  A
pass reads indices, weights and each candidate's cell keys through
``memoryview``s, so it holds no list of the candidates it walks.
Isolated candidates, which share no cell with any other, are always chosen
and never draw from the RNG, so they are added in bulk; the Python loop
visits only the rest, at O(m) per candidate: used cells are one byte each
and a candidate joins the open group when the OR of its cells' bitmasks of
group positions covers every member.  A selection is a sorted intp array,
whose report is fitted once per distinct selection of a set.

The visited candidates fall into conflict segments: no cell is used on both
sides of the boundary between two segments.  So each segment's choices
depend only on its own weights and on the RNG draws it makes, and the
segments draw in order.  ``greedy`` compares weights only within a group,
so the dense rank of a segment's weights within the segment decides its
walk.  Candidates of one (p, d) class weigh alike, so the ranks of the
classes present in each segment (``pass_key``, 4 bytes per (segment, class)
pair, sorted once per ranking of the classes) decide the pass.  A walk that
drew no tie-break is stored on the set under (segment index, its ranks),
and a later pass under a new key reads it instead of walking.  Whether a
segment draws does not depend on the seed, so the first pass under a key
also stores its selection without the segments that drew, and a later
pass under the key walks only those: O(N) plus O(m) per candidate walked.
A walk that drew is walked again every time, so the RNG stream and the
draw count are those of a full scan.  ``expect`` adds weights into its scores,
walks every segment and has no ``pass_key``.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Optional

import numpy as np

from .candidate import CandidateSet, _read_only, _sorted_unique
from .consistency import ConsistencyReport, delta_report
# ``batch_weights`` is kept only for the benchmark's tracer (perfbench/tracing.py),
# which wraps ``composers.batch_weights``; the composers read the set's weight classes
from .core import ConstraintConfig, WeightParams, batch_weights, combine_weights
from .errors import ConfigError, SizeError

EXACT_GUARD = 24
BRANCH_CAP = 64
DEFAULT_MAX_RETRIES = 16
# expect scores a group with |G| * |W| up to this in Python, a larger one with
# numpy: the two paths' per-group times cross between 80 and 112 on the groups
# of dense and sparse inputs alike
PYTHON_SCORE_LIMIT = 96

# strategy name -> (composer function name in this module, takes seed and max_retries)
STRATEGIES = {
    "exact": ("compose_exact", False),
    "setpack": ("compose_setpacking", False),
    "greedy": ("compose_greedy", True),
    "expect": ("compose_expectation", True),
}


@dataclass(frozen=True)
class Alignment:
    """A pairwise non-conflicting tuple set with its score and consistency report.

    ``slots`` is the read-only (T, m) int32 array of the chosen slot vectors,
    in ascending lexicographic order when a composer made it.
    ``tie_breaks`` counts the seeded random tie-breaks drawn by the group pass
    that selected it; 0 means any seed would have selected the same.
    ``segment_walks`` counts the conflict segments that pass walked rather
    than read from the set's memos of greedy walks and passes.
    ``multi_member_groups`` counts the groups of two or more members that
    pass emitted and ``largest_group`` is the size of its largest group: 1
    when every group was a singleton, 0 when it chose nothing.  ``attempt_deltas`` holds
    the delta score of each attempt of a retrying composer, in attempt
    order; the unseeded composers make no attempts and leave it empty.
    """

    slots: np.ndarray
    total_weight: float
    report: ConsistencyReport
    retries_used: int = 0
    exhausted: bool = False
    truncated: bool = False
    tie_breaks: int = 0
    segment_walks: int = 0
    multi_member_groups: int = 0
    largest_group: int = 0
    attempt_deltas: tuple[float, ...] = ()

    def __post_init__(self):
        slots = np.array(self.slots, dtype=np.int32)
        slots.setflags(write=False)
        object.__setattr__(self, "slots", slots)

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def tuples(self) -> np.ndarray:
        """``slots``, under the name the benchmark's tracer counts rows by."""
        return self.slots


def _weights(rc: CandidateSet, w: WeightParams) -> np.ndarray:
    """The weight of each candidate: its (p, d) class's (``rc.weight_classes``)."""
    ids, p, d = rc.weight_classes
    return combine_weights(p, d, w)[ids]


def _sum_in_order(xs) -> float:
    """The floats ``xs`` added left to right from 0.0.  The builtin ``sum``
    compensates float rounding from Python 3.12 on, so a sum that reaches a
    report would depend on the interpreter."""
    return reduce(add, xs, 0.0)


def _report(rc: CandidateSet, indices: np.ndarray) -> ConsistencyReport:
    """``delta_report`` of a selection, fitted once per distinct selection of ``rc``.

    ``indices`` is the sorted intp array of the chosen candidates.  A set's
    table is fixed, so the report is a pure function of them; repeated
    selections (tuning grid points, retries) reuse it.
    """
    key = indices.tobytes()
    report = rc.reports.get(key)
    if report is None:
        report = rc.reports[key] = delta_report(rc.slots[indices], rc.table)
    return report


def _conflict_masks(rc: CandidateSet) -> list[int]:
    """Bitmask per candidate of the candidates it conflicts with (self included)."""
    k = len(rc)
    by_cell: dict[int, list[int]] = {}
    for i, keys in enumerate(rc.cell_keys().tolist()):
        for key in keys:
            by_cell.setdefault(key, []).append(i)
    masks = [0] * k
    for indices in by_cell.values():
        cell_mask = 0
        for i in indices:
            cell_mask |= 1 << i
        for i in indices:
            masks[i] |= cell_mask
    return masks


def _finish(indices, rc, weights, retries_used=0, exhausted=False, truncated=False,
            report=None, tie_breaks=0, segment_walks=0, groups=(0, 0),
            attempt_deltas=()) -> Alignment:
    # rc.slots is in lexicographic order, so sorted indices give sorted rows
    indices = np.sort(np.asarray(indices, dtype=np.intp))
    chosen = rc.slots[indices]
    if report is None:
        report = delta_report(chosen, rc.table)
    picked = np.asarray(weights, dtype=float)[indices]
    # add.accumulate adds left to right; adding 0.0 last turns a -0.0 total
    # into the 0.0 that ``_sum_in_order``, starting from 0.0, returns
    with np.errstate(over="ignore"):
        total = float(np.add.accumulate(picked, out=picked)[-1]) + 0.0 if picked.size else 0.0
    if not math.isfinite(total):
        raise ConfigError("the chosen tuple weights sum past the largest float under "
                          "these k1, k2, b and c")
    return Alignment(chosen, total, report, retries_used=retries_used,
                     exhausted=exhausted, truncated=truncated, tie_breaks=tie_breaks,
                     segment_walks=segment_walks, multi_member_groups=groups[0],
                     largest_group=groups[1], attempt_deltas=attempt_deltas)


def compose_exact(rc: CandidateSet, cfg: ConstraintConfig, w: WeightParams) -> Alignment:
    """Maximum-weight conflict-free subset satisfying the model constraint.

    Ties are broken toward the lexicographically smallest sorted tuple list.
    Raises SizeError beyond 24 candidates; use an approximation there.
    """
    k = len(rc)
    if k > EXACT_GUARD:
        raise SizeError(f"|R_c| = {k} > {EXACT_GUARD}: exact enumeration refused, "
                        "use setpack/greedy/expect")
    weights = _weights(rc, w).tolist()
    conflict = _conflict_masks(rc)
    check_delta = math.isfinite(cfg.delta)

    best_w = 0.0
    best_sel: tuple[int, ...] = ()
    best_report = delta_report([], rc.table)

    suffix = [0.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    def visit(selection: tuple[int, ...], total: float) -> None:
        nonlocal best_w, best_sel, best_report
        if total < best_w:
            return
        report = None
        if check_delta:
            report = delta_report(rc.slots[list(selection)], rc.table)
            if report.delta > cfg.delta:
                return
        # a selection is ascending, and rc.slots is in lexicographic order, so
        # comparing selections compares their sorted tuple lists
        if total > best_w or selection < best_sel:
            best_w, best_sel = total, selection
            best_report = report

    visit((), 0.0)

    def search(start: int, avail: int, selection: tuple[int, ...], total: float) -> None:
        if not check_delta and total + suffix[start] < best_w:
            return
        for i in range(start, k):
            if not (avail >> i) & 1:
                continue
            sub = selection + (i,)
            visit(sub, total + weights[i])
            search(i + 1, avail & ~conflict[i], sub, total + weights[i])

    search(0, (1 << k) - 1, (), 0.0)
    return _finish(best_sel, rc, weights, report=best_report)


def _segment_ranks(rc: CandidateSet, weights: np.ndarray) -> bytes:
    """Dense rank (tied weights share a rank) of the weight of each (segment,
    class) pair of ``rc.class_table`` within its conflict segment, as int32
    bytes in that table's order, from the C weights of ``rc.weight_classes``.

    Every candidate weighs as its (p, d) class, so a visited candidate's rank
    within its segment is its pair's, and weightings that rank the classes
    alike, ties included, rank every segment alike.  The ranks are computed
    once per such class ranking and kept in ``rc._ranks`` under the classes'
    dense ranks.  With R the count of distinct class ranks, each pair is the
    integer segment * R + rank; its dense rank within its segment is its
    position among the distinct pair keys less that of the key segment * R.
    """
    classes, bounds = rc.class_table
    distinct = _sorted_unique(weights)
    ranking = np.searchsorted(distinct, weights)
    key = ranking.tobytes()
    ranks = rc._ranks.get(key)
    if ranks is not None:
        return ranks
    start = np.repeat(np.arange(bounds.size - 1) * distinct.size, np.diff(bounds))
    pairs = start + ranking[classes]
    present = _sorted_unique(pairs)
    dense = np.searchsorted(present, pairs) - np.searchsorted(present, start)
    ranks = rc._ranks[key] = dense.astype(np.int32).tobytes()
    return ranks


def _group_pass(rc: CandidateSet, weights, rng: random.Random, group_scores=None,
                ranks: Optional[bytes] = None) -> tuple[np.ndarray, int, int, tuple[int, int]]:
    """One grouped selection scan; returns the chosen indices as a sorted intp
    array, the RNG draws, the segments walked, and the number of groups of two
    or more members with the size of the largest group (1 if all were
    singletons, 0 if none).

    A group grows while every new candidate conflicts with all current
    members; when that breaks, the argmax (by plain weight, or by
    ``group_scores(group, member_bits, start)``, one score per member, for
    ``start`` the position of ``group[0]`` in ``rc.visited``) is emitted and
    the breaking candidate starts the next group unless it now conflicts
    with the partial result.
    A singleton group is emitted without scoring.  The trailing group is
    flushed, otherwise its members would be dropped silently.

    An isolated candidate (no cell shared with any other) would always form
    a singleton group of its own that ends the group before it, so all of
    them are chosen in bulk and the scan visits only the others, closing the
    open group wherever an isolated one sat between two of them.  Used cells
    are one byte each, indexed by cell key, and membership is one OR over the
    candidate's cells of a per-cell bitmask of group positions, O(m) per
    candidate.

    The visited candidates are walked one conflict segment
    (``rc.segment_bounds``) at a time: a segment's choices depend only on
    its own weights and on the RNG draws it makes.  Without
    ``group_scores`` (``greedy``) the weights are read only through ``max``
    and ``==`` within a group, so the segments' ranks decide the pass;
    ``ranks`` is then the ``pass_key`` of ``weights``, or None to store
    nothing.  A walk that drew no tie-break is stored in ``rc.walks`` under
    (segment index, its ranks) with its group counts, and the first pass
    under a key stores in ``rc._passes`` its selection and counts without
    the segments that drew, and their indices.  A walk is deterministic up
    to its first draw, so a later pass under the key walks just those
    segments.  A walk that drew is never stored, so every pass makes the
    same draws in the same order and leaves the RNG as the unsegmented scan
    would.  ``group_scores`` adds weights into its scores and comes with no
    ``ranks``: every segment is walked and nothing is stored.
    """
    weights = np.ascontiguousarray(weights, dtype=float)
    whole = None if ranks is None else rc._passes.get(ranks)
    bounds = rc.segment_bounds.tolist()
    if whole is None:
        segments, kept = range(len(bounds) - 1), []
        kept_multi, kept_largest = 0, int(rc.isolated.any())
    else:
        base, segments, (kept_multi, kept_largest) = whole
    # a segment's walk is stored under its pairs' slice of the ranks
    pairs = rc.class_table[1].tolist() if whole is None and ranks is not None else None
    visit, m = memoryview(rc.visited), rc.table.m
    # memoryviews read the weights as Python floats and a candidate's cell
    # keys as a slice of one flat view, so a walk holds no list of its rows
    score, cells = memoryview(weights), memoryview(rc.visited_cells.ravel())
    used = bytearray(m * rc.table.n)
    # the bitmask of group positions of each cell of the open group's members
    member_bits: dict[int, int] = {}
    group: list[int] = []
    group_cells: list[memoryview] = []
    picks: list[int] = []
    drawn: list[int] = []
    drawing: list[int] = []
    draws = walked = multi = largest = drawn_multi = drawn_largest = 0

    def emit() -> None:
        nonlocal draws, multi, largest
        at = 0
        largest = max(largest, len(group))
        if len(group) > 1:
            multi += 1
            scores = ([score[g] for g in group] if group_scores is None
                      else group_scores(group, member_bits, group_at // m))
            top = max(scores)
            tied = [j for j, s in enumerate(scores) if s == top]
            if len(tied) == 1:
                at = tied[0]
            else:
                at = rng.choice(tied)
                draws += 1
        picks.append(group[at])
        for key in group_cells[at]:
            used[key] = 1
        member_bits.clear()
        group.clear()
        group_cells.clear()

    prev = -2
    for segment in segments:
        lo, hi = bounds[segment], bounds[segment + 1]
        if pairs is not None:
            walk_key = (segment, ranks[4 * pairs[segment]:4 * pairs[segment + 1]])
            hit = rc.walks.get(walk_key)
            if hit is not None:
                chosen, groups, most = hit
                kept += chosen
                kept_multi += groups
                kept_largest = max(kept_largest, most)
                continue
        before, multi, largest = draws, 0, 0
        picks.clear()
        walked += 1
        for i, at in zip(visit[lo:hi], range(lo * m, hi * m, m)):
            mine = cells[at:at + m]
            if group and i != prev + 1:
                emit()
            prev = i
            if any(map(used.__getitem__, mine)):
                continue
            if group:
                shared = 0
                for key in mine:
                    shared |= member_bits.get(key, 0)
                if shared != (1 << len(group)) - 1:
                    emit()
                    if any(map(used.__getitem__, mine)):
                        continue
            if not group:
                group_at = at
            bit = 1 << len(group)
            for key in mine:
                member_bits[key] = member_bits.get(key, 0) | bit
            group.append(i)
            group_cells.append(mine)
        if group:
            emit()
        if whole is None and draws == before:
            kept += picks
            kept_multi += multi
            kept_largest = max(kept_largest, largest)
            if pairs is not None:
                rc.walks[walk_key] = (tuple(picks), multi, largest)
        else:
            drawn += picks
            drawn_multi += multi
            drawn_largest = max(drawn_largest, largest)
            drawing.append(segment)
    if whole is None:
        mask = rc.isolated.copy()
        mask[kept] = True
        base = _read_only(np.flatnonzero(mask))
        if ranks is not None:
            rc._passes[ranks] = (base, tuple(drawing), (kept_multi, kept_largest))
    # the picks of the segments that drew come in ascending order, as the base does
    chosen = np.insert(base, np.searchsorted(base, drawn), drawn) if drawn else base
    return chosen, draws, walked, (kept_multi + drawn_multi, max(kept_largest, drawn_largest))


def pass_key(strategy: str, rc: CandidateSet, w: WeightParams) -> Optional[bytes]:
    """Memo key of the group passes ``strategy`` runs on ``rc`` under ``w``, or None.

    ``greedy`` reads weights only through ``max`` and ``==`` within a group,
    and a group lies in one conflict segment, so the dense rank (tied
    weights share a rank) of each visited candidate's weight within its
    segment decides each pass.  A candidate weighs as its (p, d) class, so
    the key holds that rank once per class present in a segment
    (``_segment_ranks``): two weightings with equal keys select the same
    candidates and draw the same tie-breaks under any seed.  ``expect``
    scores members by sums of weights, which no ranking decides, and so do
    the unseeded strategies: they get None.
    """
    if strategy != "greedy":
        return None
    _, p, d = rc.weight_classes
    return _segment_ranks(rc, combine_weights(p, d, w))


def _retry_compose(rc, cfg, w, seed, max_retries, scorer_factory):
    """Run ``_group_pass`` with seeds seed, seed + 1, ... until delta holds.

    ``scorer_factory(rc, weights)``, if given, returns the ``group_scores``
    hook; it is called once per compose, so its set-up serves every attempt.
    Without it the passes are ``greedy``'s, under its ``pass_key``.
    """
    weights = _weights(rc, w)
    if scorer_factory is None:
        group_scores, ranks = None, pass_key("greedy", rc, w)
    else:
        group_scores, ranks = scorer_factory(rc, weights), None
    attempts = max(1, max_retries)
    best = None
    deltas = ()
    for attempt in range(attempts):
        rng = random.Random(seed + attempt)
        chosen, draws, walked, groups = _group_pass(rc, weights, rng, group_scores, ranks)
        report = _report(rc, chosen)
        deltas += (report.delta,)
        alignment = _finish(chosen, rc, weights, retries_used=attempt,
                            report=report, tie_breaks=draws, segment_walks=walked,
                            groups=groups, attempt_deltas=deltas)
        if report.delta <= cfg.delta:
            return alignment
        if best is None or report.delta < best.report.delta:
            best = alignment
    return replace(best, retries_used=attempts - 1, exhausted=True, attempt_deltas=deltas)


def compose_greedy(rc: CandidateSet, cfg: ConstraintConfig, w: WeightParams, seed: int = 0,
                   max_retries: int = DEFAULT_MAX_RETRIES) -> Alignment:
    """Group scan emitting each group's max-weight member; ties picked by seeded RNG.

    If the scan's result violates the model constraint the pass is retried
    with seed + 1, seed + 2, ... up to ``max_retries`` attempts; the best
    attempt is returned with ``exhausted`` set when all fail.
    """
    return _retry_compose(rc, cfg, w, seed, max_retries, None)


def _expectation_scorer(rc: CandidateSet, weights: np.ndarray):
    """Group hook scoring each member by its weight plus its expectation bonus.

    Member g's bonus is the sum of w[i] over the later candidates i that
    share a cell with some member but none with g.  If i shares cell (k, r)
    with a member, both first slots lie within s of r, for s the set's
    largest slot spread, so they lie within 2s of each other.  The slots
    are in lexicographic order with the first series as the major key, so
    every such i after group[0] lies in the window W of candidates from
    group[0] + 1 up to the last whose first slot is at most the first slot
    of group[-1] plus 2s, one contiguous index range.

    A group with |G| * |W| at most ``PYTHON_SCORE_LIMIT`` is scored in plain
    Python from the pass's state of the open group: a group holds consecutive
    indices, so the visited candidates of W follow ``group[0]``, at ``start``
    in ``rc.visited``, and each one's cell keys are looked up in the pass's
    ``member_bits``; isolated candidates share no cell and add nothing.  A
    larger group takes one (m, |G|, |W|) equality test on the series-major
    slots, reduced over the series axis, which tells which members share a
    cell with which window candidates, and its row-wise ``cumsum``.  Both
    add the kept weights one at a time in ascending i, the cumsum's other
    entries adding 0.0, which is exact, so both paths equal a forward scan
    bit for bit.  ``np.sum`` adds pairwise, and from Python 3.12 the builtin
    ``sum`` of floats is compensated; either could move a tie.
    """
    w = np.ascontiguousarray(weights, dtype=float)
    # the Python path reads weights, visited indices and cell keys through memoryviews
    weights = memoryview(w)
    # the set's own series-major store: each series' slots are contiguous
    columns = rc.slots.T
    first = columns[0]
    starts = memoryview(rc.row_starts)
    reach = 2 * rc.slot_spread
    n, m = rc.table.n, rc.table.m
    visit, cells = memoryview(rc.visited), memoryview(rc.visited_cells.ravel())

    def group_scores(group: list[int], member_bits: dict[int, int], start: int) -> list[float]:
        lo = group[0] + 1
        hi = starts[min(int(first[group[-1]]) + reach + 1, n)]
        if len(group) * (hi - lo) > PYTHON_SCORE_LIMIT:
            g = np.asarray(group, dtype=np.intp)
            shares = (columns[:, g, None] == columns[:, None, lo:hi]).any(axis=0)
            keep = shares.any(axis=0) & ~shares & (np.arange(lo, hi) > g[:, None])
            bonus = np.where(keep, w[lo:hi], 0.0).cumsum(axis=1)[:, -1]
            return (w[g] + bonus).tolist()
        bonus = [0.0] * len(group)
        at = start * m
        for i in visit[start + 1:]:
            if i >= hi:
                break
            at += m
            shared = 0
            for key in cells[at:at + m]:
                shared |= member_bits.get(key, 0)
            if shared:
                for j, g in enumerate(group):
                    if g >= i:
                        break
                    if not shared >> j & 1:
                        bonus[j] += weights[i]
        return [weights[g] + b for g, b in zip(group, bonus)]

    return group_scores


def compose_expectation(rc: CandidateSet, cfg: ConstraintConfig, w: WeightParams,
                        seed: int = 0, max_retries: int = DEFAULT_MAX_RETRIES) -> Alignment:
    """Group scan scoring each member by its weight plus a forward-looking bonus.

    The bonus of group member g sums the weights of later candidates that do
    not conflict with g but conflict with at least one other group member,
    i.e. the weight g keeps available by being chosen.  The candidates that
    can conflict with the group lie in one contiguous window of first-series
    rows (see ``_expectation_scorer``), so scoring a group of |G| members
    costs O(|G| * |W| * m) for the |W| candidates in that window instead of
    a forward scan per member, in plain Python for small groups; singleton
    groups are not scored at all.  The bonus is summed in ascending candidate
    order, one addition at a time, so it is bit-identical to that scan and
    the seeded tie-breaks agree with it.
    """
    return _retry_compose(rc, cfg, w, seed, max_retries, _expectation_scorer)


def compose_setpacking(rc: CandidateSet, cfg: ConstraintConfig, w: WeightParams) -> Alignment:
    """Local search in the weighted set-packing neighborhood.

    Starts from the greedy scan-order packing, then repeatedly swaps in the
    replacement set Q (|Q| <= m, pairwise non-conflicting, every member
    conflicting with a pivot) that maximizes gained/lost weight, whenever the
    swap increases the total.  Equal-ratio maximizers branch (breadth-first,
    capped); the best terminal branch satisfying the model constraint wins.
    """
    k = len(rc)
    weights = _weights(rc, w).tolist()
    m = rc.table.m
    conflict = _conflict_masks(rc)

    def complete(state: int) -> int:
        for i in range(k):
            if not (state >> i) & 1 and not conflict[i] & state:
                state |= 1 << i
        return state

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def packings(avail: int, size: int, q_mask=0, hit=0, gain=0.0):
        """Pairwise compatible sets of ``size`` candidates of ``avail`` in
        ``itertools.combinations`` order, as (mask, OR of their conflict
        masks, weights added left to right); only compatible sets are built."""
        for q in bits(avail):
            packing = q_mask | 1 << q, hit | conflict[q], gain + weights[q]
            if size == 1:
                yield packing
            else:
                # later members come after q and conflict with no member so far
                yield from packings(avail & ~conflict[q] & -(2 << q), size - 1, *packing)

    def improving_swaps(state: int) -> list[int]:
        """Successor states of the best-ratio improving swaps, lexicographic order."""
        best_ratio = None
        results: list[int] = []
        for x in bits(state):
            pool = conflict[x] & ~state
            for size in range(1, m + 1):
                for q_mask, hit, gain in packings(pool, size):
                    hit &= state
                    loss = _sum_in_order(weights[i] for i in bits(hit))
                    if gain <= loss:
                        continue
                    ratio = gain / loss
                    if best_ratio is None or ratio > best_ratio:
                        best_ratio = ratio
                        results = [complete((state & ~hit) | q_mask)]
                    elif ratio == best_ratio:
                        results.append(complete((state & ~hit) | q_mask))
        return results

    init = complete(0)
    visited = {init}
    queue = deque([init])
    finished: list[int] = []
    truncated = False
    while queue:
        state = queue.popleft()
        successors = improving_swaps(state)
        if not successors:
            finished.append(state)
            continue
        expanded = False
        for child in successors:
            if child in visited:
                continue
            if len(visited) >= BRANCH_CAP:
                truncated = True
                break
            visited.add(child)
            queue.append(child)
            expanded = True
        if not expanded:
            finished.append(state)

    def evaluate(state: int):
        sel = list(bits(state))
        report = delta_report(rc.slots[sel], rc.table)
        total = _sum_in_order(weights[i] for i in sel)
        return total, report, sel

    best = None
    fallback = None
    for state in finished:
        total, report, sel = evaluate(state)
        # sel is ascending, and rc.slots is in lexicographic order, so comparing
        # selections compares their sorted tuple lists
        if report.delta <= cfg.delta:
            if best is None or total > best[0] or (total == best[0] and sel < best[2]):
                best = (total, report, sel)
        if fallback is None or report.delta < fallback[1].delta:
            fallback = (total, report, sel)
    total, report, sel = fallback if best is None else best
    return _finish(sel, rc, weights, exhausted=best is None, truncated=truncated, report=report)


def compose(strategy: str, rc: CandidateSet, cfg: ConstraintConfig, w: WeightParams,
            seed: int = 0, max_retries: int = DEFAULT_MAX_RETRIES) -> Alignment:
    """Run the composer registered as ``strategy`` in ``STRATEGIES``.

    The composer is looked up among this module's attributes at call time,
    so a wrapper installed on, say, ``composers.compose_greedy`` is honoured.
    The unseeded strategies ignore ``seed`` and ``max_retries``.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    name, seeded = STRATEGIES[strategy]
    composer = globals()[name]
    if seeded:
        return composer(rc, cfg, w, seed=seed, max_retries=max_retries)
    return composer(rc, cfg, w)

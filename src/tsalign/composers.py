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
  scored in plain Python, O(|W| * (m + |G|)) over the window's visited
  candidates; a larger one costs O(|G| * |W| * m) in numpy, one equality
  test of the members against the window.  The window state is cached on
  the ``CandidateSet``.

``STRATEGIES`` maps the strategy names to these functions and ``compose``
dispatches through it.

Cost model of the group pass behind ``greedy`` and ``expect``.  The
weight-independent state (slot array, weight terms p and d, isolated mask,
conflict segments and the Python lists the loop reads) lives on the
``CandidateSet`` and is built on its first compose, so a run whose tuning
grid and final compose share one set builds it once.  Isolated candidates,
which share no cell with any other, are always chosen and never draw from
the RNG, so they are added in bulk; the Python loop visits only the rest,
at O(m) per candidate: used cells are one byte each and a candidate joins
the open group when the OR of its cells' bitmasks of group positions covers
every member.  The consistency report is fitted once per distinct selection
of a set and reused by every compose that selects the same candidates.

The visited candidates fall into conflict segments: no cell is used on both
sides of the boundary between two segments.  So the first candidate after
a boundary conflicts with no member of the open group and closes it, and no
cell chosen before a boundary can make a candidate after it skip.  Each
segment's choices therefore depend only on its own weights and on the RNG
draws it makes, and the segments draw in order.  ``greedy`` compares weights
only within a group, so the dense rank of a segment's weights within the
segment decides its walk.  A walk that drew no tie-break is stored on the
set under (segment index, those ranks), and every later pass with the same
key reads it instead of walking.  A greedy pass then costs one O(N log N)
ranking of its weights and one dict lookup per segment, plus O(m) per
candidate of the segments it walks.  A walk that drew is walked again every
time, so the RNG stream and the draw count are those of a full scan.
``expect`` adds weights into its scores and walks every segment.

``pass_key`` tells a caller composing one set under many weightings which of
them run the same passes.  ``greedy`` compares weights only by order, so
weightings that rank the (p, d) classes of the set alike, ties included,
select alike under each seed; the tuning grid composes each such ranking
once.  ``expect`` adds weights into its scores, so it has no such key.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .candidate import CandidateSet
from .consistency import ConsistencyReport, delta_report
# ``batch_weights`` is kept only for the benchmark's tracer (perfbench/tracing.py),
# which wraps ``composers.batch_weights``; the composers read the set's weight terms
from .core import AlignedTuple, ConstraintConfig, WeightParams, batch_weights, combine_weights
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
    than read from the set's memo of greedy walks.  ``multi_member_groups``
    counts the groups of two or more members that pass emitted and
    ``largest_group`` is the size of its largest group: 1 when every group
    was a singleton, 0 when it chose nothing.  ``attempt_deltas`` holds
    the delta score of each attempt of a retrying composer, in attempt
    order; the unseeded composers make no attempts and leave it empty.
    """

    slots: np.ndarray
    total_weight: float
    report: ConsistencyReport
    strategy: str
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

    # Kept only for the benchmark's tracer (perfbench/tracing.py), which counts
    # the rows of ``cli.write_alignment_csv`` with ``len(alignment.tuples)``;
    # the package and its tests read ``slots``.
    @cached_property
    def tuples(self) -> tuple[AlignedTuple, ...]:
        return tuple(map(AlignedTuple, self.slots.tolist()))


def _weights(rc: CandidateSet, w: WeightParams) -> list[float]:
    return combine_weights(*rc.weight_terms, w).tolist()


def _report(rc: CandidateSet, indices) -> ConsistencyReport:
    """``delta_report`` of a selection, fitted once per distinct selection of ``rc``.

    A set's table is fixed, so the report is a pure function of the chosen
    indices; repeated selections (tuning grid points, retries) reuse it.
    """
    key = tuple(sorted(indices))
    report = rc.reports.get(key)
    if report is None:
        report = rc.reports[key] = delta_report(rc.slots[list(key)], rc.table)
    return report


def _conflict_masks(rc: CandidateSet) -> list[int]:
    """Bitmask per candidate of the candidates it conflicts with (self included)."""
    k = len(rc)
    by_cell: dict[tuple[int, int], list[int]] = {}
    for i, slots in enumerate(rc.slots.tolist()):
        for series, row in enumerate(slots):
            by_cell.setdefault((series, row), []).append(i)
    masks = [0] * k
    for indices in by_cell.values():
        cell_mask = 0
        for i in indices:
            cell_mask |= 1 << i
        for i in indices:
            masks[i] |= cell_mask
    return masks


def _finish(indices, rc, weights, strategy, retries_used=0, exhausted=False,
            truncated=False, report=None, tie_breaks=0, segment_walks=0,
            groups=(0, 0), attempt_deltas=()) -> Alignment:
    # rc.slots is in lexicographic order, so sorted indices give sorted rows
    indices = sorted(indices)
    chosen = rc.slots[indices]
    if report is None:
        report = delta_report(chosen, rc.table)
    # adds left to right, as a generator over the indices would
    total = float(sum(map(weights.__getitem__, indices)))
    return Alignment(chosen, total, report, strategy, retries_used=retries_used,
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
                        "use setpacking/greedy/expectation")
    weights = _weights(rc, w)
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
    return _finish(best_sel, rc, weights, "exact", report=best_report)


def _segment_ranks(rc: CandidateSet, weights: list[float]) -> bytes:
    """Dense rank (tied weights share a rank) of each visited candidate's weight
    within its conflict segment, as int32 bytes in ``rc.visited`` order."""
    _, visit, _, _ = rc.pass_lists
    bounds = rc.segment_bounds
    sizes = np.diff(bounds)
    w = np.fromiter(map(weights.__getitem__, visit), float, len(visit))
    # sorted by segment, then weight, so segment j keeps positions bounds[j]:bounds[j + 1]
    order = np.lexsort((w, np.repeat(np.arange(sizes.size), sizes)))
    ws = w[order]
    new = np.ones(ws.size, dtype=bool)
    new[1:] = ws[1:] != ws[:-1]
    new[bounds[:-1]] = True
    rank = np.cumsum(new)
    ranks = np.empty(ws.size, dtype=np.int32)
    ranks[order] = rank - np.repeat(rank[bounds[:-1]], sizes)
    return ranks.tobytes()


def _group_pass(rc: CandidateSet, weights: list[float], rng: random.Random,
                group_scores=None) -> tuple[list[int], int, int, tuple[int, int]]:
    """One grouped selection scan; returns the chosen indices, the RNG draws,
    the segments walked, and the number of groups of two or more members with
    the size of the largest group (1 if all were singletons, 0 if none).

    A group grows while every new candidate conflicts with all current
    members; when that breaks, the argmax (by ``group_scores(group)``, one
    score per member, or plain weight) is emitted and the breaking candidate
    starts the next group unless it now conflicts with the partial result.
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
    (``rc.segment_bounds``) at a time.  The first candidate of a segment
    shares no cell with any earlier one, so it closes the open group, and
    no cell chosen in an earlier segment can make a later one skip a
    candidate: a segment's choices depend only on its own weights and on the
    RNG draws it makes.  Without ``group_scores`` (``greedy``) the weights
    are read only through ``max`` and ``==`` among one group's members, all
    inside one segment, so the dense rank of the segment's weights within
    the segment decides its walk.  A walk that drew no tie-break is stored
    in ``rc.walks`` under (segment index, those ranks), with its count of
    multi-member groups and its largest group, and a later pass with the same
    key takes its choices and counts without walking; a walk that drew
    is never stored, so every pass makes the same draws in the same order
    and leaves the RNG as the unsegmented scan would.  ``group_scores`` adds
    weights into its scores, so with it every segment is walked.
    """
    isolated, visit, visit_cells, bounds = rc.pass_lists
    chosen = isolated[:]
    multi, largest = 0, min(len(chosen), 1)
    if not visit:
        return chosen, 0, 0, (multi, largest)
    m, n = rc.table.m, rc.table.n
    used = bytearray(m * n)
    member_bits = [0] * (m * n)
    group: list[int] = []
    group_cells: list[list[int]] = []
    draws = walked = 0
    memo = rc.walks if group_scores is None else None
    ranks = _segment_ranks(rc, weights) if memo is not None else b""

    def emit() -> None:
        nonlocal draws, multi, segment_largest
        at = 0
        segment_largest = max(segment_largest, len(group))
        if len(group) > 1:
            multi += 1
            scores = [weights[g] for g in group] if group_scores is None else group_scores(group)
            top = max(scores)
            tied = [j for j, s in enumerate(scores) if s == top]
            if len(tied) == 1:
                at = tied[0]
            else:
                at = rng.choice(tied)
                draws += 1
        chosen.append(group[at])
        for key in group_cells[at]:
            used[key] = 1
        for cells in group_cells:
            for key in cells:
                member_bits[key] = 0
        group.clear()
        group_cells.clear()

    prev = -2
    for segment, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if memo is not None:
            walk_key = (segment, ranks[4 * lo:4 * hi])
            hit = memo.get(walk_key)
            if hit is not None:
                picks, groups, most = hit
                chosen += picks
                multi += groups
                largest = max(largest, most)
                continue
        start, drawn, grouped, segment_largest = len(chosen), draws, multi, 0
        walked += 1
        for i, mine in zip(visit[lo:hi], visit_cells[lo:hi]):
            if group and i != prev + 1:
                emit()
            prev = i
            if any(map(used.__getitem__, mine)):
                continue
            if group:
                shared = 0
                for key in mine:
                    shared |= member_bits[key]
                if shared != (1 << len(group)) - 1:
                    emit()
                    if any(map(used.__getitem__, mine)):
                        continue
            bit = 1 << len(group)
            for key in mine:
                member_bits[key] |= bit
            group.append(i)
            group_cells.append(mine)
        if group:
            emit()
        largest = max(largest, segment_largest)
        if memo is not None and draws == drawn:
            memo[walk_key] = (tuple(chosen[start:]), multi - grouped, segment_largest)
    return chosen, draws, walked, (multi, largest)


def pass_key(strategy: str, rc: CandidateSet, w: WeightParams) -> Optional[bytes]:
    """Memo key of the group passes ``strategy`` runs on ``rc`` under ``w``, or None.

    ``greedy`` reads weights only through ``max`` and ``==`` among the
    non-isolated candidates, and every candidate weighs as the representative
    of its (p, d) class, so the dense rank (tied weights share a rank) of the
    representatives' weights decides each pass.  Two weightings with equal
    keys select the same candidates and draw the same tie-breaks under any
    seed.  ``expect`` scores members by sums of weights, which no ranking
    decides, and so do the unseeded strategies: they get None.
    """
    if strategy != "greedy":
        return None
    reps = rc.class_representatives
    p, d = rc.weight_terms
    weights = combine_weights(p[reps], d[reps], w)
    return np.searchsorted(_sorted_unique(weights), weights).tobytes()


def _retry_compose(rc, cfg, w, seed, max_retries, strategy, scorer_factory):
    """Run ``_group_pass`` with seeds seed, seed + 1, ... until delta holds.

    ``scorer_factory(rc, weights)``, if given, returns the ``group_scores``
    hook; it is called once per compose, so its set-up serves every attempt.
    """
    weights = _weights(rc, w)
    group_scores = scorer_factory(rc, weights) if scorer_factory is not None else None
    attempts = max(1, max_retries)
    best = None
    deltas = ()
    for attempt in range(attempts):
        rng = random.Random(seed + attempt)
        chosen, draws, walked, groups = _group_pass(rc, weights, rng, group_scores)
        report = _report(rc, chosen)
        deltas += (report.delta,)
        alignment = _finish(chosen, rc, weights, strategy, retries_used=attempt,
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
    return _retry_compose(rc, cfg, w, seed, max_retries, "greedy", None)


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    # np.unique would do, but its first call pages in about 2 MB of numpy code
    x = np.sort(x, kind="stable")
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return x[first]


def _expectation_scorer(rc: CandidateSet, weights: list[float]):
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
    Python: a dict from cell key to the bitmask of the members using it,
    then one walk over the visited candidates of W, found by bisecting
    ``rc.visited``; isolated candidates share no cell and add nothing.  A
    larger group takes one (m, |G|, |W|) equality test on the column-major
    slots, reduced over the series axis, which tells which members share a
    cell with which window candidates, and its row-wise ``cumsum``.  Both
    add the kept weights one at a time in ascending i, the cumsum's other
    entries adding 0.0, which is exact, so both paths equal a forward scan
    bit for bit.  ``np.sum`` adds pairwise, and from Python 3.12 the builtin
    ``sum`` of floats is compensated; either could move a tie.
    """
    w = np.asarray(weights, dtype=float)
    columns = rc.slot_columns
    first = columns[0]
    starts = rc.row_starts.tolist()
    reach = 2 * rc.slot_spread
    n = rc.table.n
    _, visit, visit_cells, _ = rc.pass_lists

    def group_scores(group: list[int]) -> list[float]:
        lo = group[0] + 1
        hi = starts[min(int(first[group[-1]]) + reach + 1, n)]
        if len(group) * (hi - lo) > PYTHON_SCORE_LIMIT:
            g = np.asarray(group, dtype=np.intp)
            shares = (columns[:, g, None] == columns[:, None, lo:hi]).any(axis=0)
            keep = shares.any(axis=0) & ~shares & (np.arange(lo, hi) > g[:, None])
            bonus = np.where(keep, w[lo:hi], 0.0).cumsum(axis=1)[:, -1]
            return (w[g] + bonus).tolist()
        owner: dict[int, int] = {}
        at = p = bisect_left(visit, group[0])
        for j, g in enumerate(group):
            p = bisect_left(visit, g, p)
            for key in visit_cells[p]:
                owner[key] = owner.get(key, 0) | 1 << j
        bonus = [0.0] * len(group)
        for p in range(at + 1, bisect_left(visit, hi, p)):
            shared = 0
            for key in visit_cells[p]:
                shared |= owner.get(key, 0)
            if shared:
                i = visit[p]
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
    return _retry_compose(rc, cfg, w, seed, max_retries, "expectation",
                          _expectation_scorer)


def compose_setpacking(rc: CandidateSet, cfg: ConstraintConfig, w: WeightParams) -> Alignment:
    """Local search in the weighted set-packing neighborhood.

    Starts from the greedy scan-order packing, then repeatedly swaps in the
    replacement set Q (|Q| <= m, pairwise non-conflicting, every member
    conflicting with a pivot) that maximizes gained/lost weight, whenever the
    swap increases the total.  Equal-ratio maximizers branch (breadth-first,
    capped); the best terminal branch satisfying the model constraint wins.
    """
    k = len(rc)
    weights = _weights(rc, w)
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

    def improving_swaps(state: int) -> list[int]:
        """Successor states of the best-ratio improving swaps, lexicographic order."""
        best_ratio = None
        results: list[int] = []
        for x in bits(state):
            pool = list(bits(conflict[x] & ~state))
            for size in range(1, m + 1):
                for combo in itertools.combinations(pool, size):
                    ok = True
                    for a in range(size):
                        for b in range(a + 1, size):
                            if conflict[combo[a]] >> combo[b] & 1:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
                    q_mask = 0
                    for q in combo:
                        q_mask |= 1 << q
                    hit = 0
                    for q in combo:
                        hit |= conflict[q] & state
                    gain = sum(weights[q] for q in combo)
                    loss = sum(weights[i] for i in bits(hit))
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
        total = sum(weights[i] for i in sel)
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
    return _finish(sel, rc, weights, "setpacking", exhausted=best is None,
                   truncated=truncated, report=report)


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

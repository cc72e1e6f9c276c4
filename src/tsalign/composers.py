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
  the weight of later compatible candidates it would keep available.  The
  credit is read from a per-cell candidate index (CSR over the (series, row)
  cells) built once per compose, so a group of |G| members costs O(|G| * |U|), where U is the set
  of candidates touching any member's cell.

``STRATEGIES`` maps the strategy names to these functions and ``compose``
dispatches through it.

Cost model of the group pass behind ``greedy`` and ``expect``.  The
weight-independent state (slot array, weight terms p and d, isolated mask)
lives on the ``CandidateSet`` and is built on its first compose, so a tuning grid that composes one set 144 times builds it once.
Isolated candidates, which share no cell with any other, are always chosen
and never draw from the RNG, so they are added in bulk; the Python loop
visits only the rest, at O(m) per candidate: used cells are one byte each
and a candidate joins the open group when the OR of its cells' bitmasks of
group positions covers every member.  The consistency report is fitted
once per distinct selection of a set and reused by every compose that
selects the same candidates.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .candidate import CandidateSet
from .consistency import ConsistencyReport, delta_report
from .core import (AlignedTuple, ConstraintConfig, SeriesTable, WeightParams, batch_weights,
                   combine_weights)
from .errors import ConfigError, SizeError

EXACT_GUARD = 24
BRANCH_CAP = 64
DEFAULT_MAX_RETRIES = 16

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

    ``tie_breaks`` counts the seeded random tie-breaks drawn by the group pass
    that selected it; 0 means any seed would have selected the same.
    """

    tuples: tuple[AlignedTuple, ...]
    total_weight: float
    report: ConsistencyReport
    strategy: str
    retries_used: int = 0
    exhausted: bool = False
    truncated: bool = False
    tie_breaks: int = 0

    def __len__(self) -> int:
        return len(self.tuples)


def _weights(rc: CandidateSet, t: SeriesTable, w: WeightParams) -> list[float]:
    if t is not rc.table:
        return batch_weights(t, rc.slot_array, w).tolist()
    return combine_weights(*rc.weight_terms, w).tolist()


def _report(rc: CandidateSet, t: SeriesTable, indices) -> ConsistencyReport:
    """``delta_report`` of a selection, fitted once per distinct selection of ``rc``.

    A set's table is fixed, so the report is a pure function of the chosen
    indices; repeated selections (tuning grid points, retries) reuse it.
    """
    key = tuple(sorted(indices))
    cache = rc.reports if t is rc.table else {}
    report = cache.get(key)
    if report is None:
        report = cache[key] = delta_report([rc.tuples[i] for i in key], t)
    return report


def _conflict_masks(rc: CandidateSet) -> list[int]:
    """Bitmask per candidate of the candidates it conflicts with (self included)."""
    k = len(rc)
    by_cell: dict[tuple[int, int], list[int]] = {}
    for i, r in enumerate(rc.tuples):
        for series, row in enumerate(r.slots):
            by_cell.setdefault((series, row), []).append(i)
    masks = [0] * k
    for indices in by_cell.values():
        cell_mask = 0
        for i in indices:
            cell_mask |= 1 << i
        for i in indices:
            masks[i] |= cell_mask
    return masks


def _finish(indices, rc, t, weights, strategy, retries_used=0, exhausted=False,
            truncated=False, report=None, tie_breaks=0) -> Alignment:
    # rc.tuples is in lexicographic order, so sorted indices give sorted tuples
    indices = sorted(indices)
    chosen = tuple(rc.tuples[i] for i in indices)
    if report is None:
        report = delta_report(chosen, t)
    total = float(sum(weights[i] for i in indices))
    return Alignment(chosen, total, report, strategy, retries_used=retries_used,
                     exhausted=exhausted, truncated=truncated, tie_breaks=tie_breaks)


def compose_exact(rc: CandidateSet, cfg: ConstraintConfig, t: SeriesTable,
                  w: WeightParams) -> Alignment:
    """Maximum-weight conflict-free subset satisfying the model constraint.

    Ties are broken toward the lexicographically smallest sorted tuple list.
    Raises SizeError beyond 24 candidates; use an approximation there.
    """
    k = len(rc)
    if k > EXACT_GUARD:
        raise SizeError(f"|R_c| = {k} > {EXACT_GUARD}: exact enumeration refused, "
                        "use setpacking/greedy/expectation")
    weights = _weights(rc, t, w)
    conflict = _conflict_masks(rc)
    check_delta = math.isfinite(cfg.delta)

    best_w = 0.0
    best_sel: tuple[int, ...] = ()
    best_key = ()
    empty_report = delta_report([], t)
    best_report = empty_report

    suffix = [0.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    def visit(selection: tuple[int, ...], total: float) -> None:
        nonlocal best_w, best_sel, best_key, best_report
        if total < best_w:
            return
        report = None
        if check_delta:
            report = delta_report([rc.tuples[i] for i in selection], t)
            if report.delta > cfg.delta:
                return
        key = tuple(sorted(rc.tuples[i].slots for i in selection))
        if total > best_w or key < best_key:
            best_w, best_sel, best_key = total, selection, key
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
    return _finish(best_sel, rc, t, weights, "exact", report=best_report)


def _group_pass(rc: CandidateSet, weights: list[float], rng: random.Random,
                group_scores=None) -> tuple[list[int], int]:
    """One grouped selection scan; returns the chosen indices and the RNG draws.

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
    """
    isolated = rc.isolated
    chosen = np.flatnonzero(isolated).tolist()
    rest = np.flatnonzero(~isolated)
    if not rest.size:
        return chosen, 0
    m, n = rc.table.m, rc.table.n
    # cell keys s * n + r of the visited candidates, as Python ints
    rest_cells = (rc.slot_array[rest] + np.arange(m) * n).tolist()
    used = bytearray(m * n)
    member_bits = [0] * (m * n)
    group: list[int] = []
    group_cells: list[list[int]] = []
    draws = 0

    def emit() -> None:
        nonlocal draws
        at = 0
        if len(group) > 1:
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
    for i, mine in zip(rest.tolist(), rest_cells):
        if group and i != prev + 1:
            emit()
        prev = i
        if any(used[key] for key in mine):
            continue
        if group:
            shared = 0
            for key in mine:
                shared |= member_bits[key]
            if shared != (1 << len(group)) - 1:
                emit()
                if any(used[key] for key in mine):
                    continue
        bit = 1 << len(group)
        for key in mine:
            member_bits[key] |= bit
        group.append(i)
        group_cells.append(mine)
    if group:
        emit()
    return chosen, draws


def _retry_compose(rc, cfg, t, w, seed, max_retries, strategy, scorer_factory):
    """Run ``_group_pass`` with seeds seed, seed + 1, ... until delta holds.

    ``scorer_factory(rc, weights)``, if given, returns the ``group_scores``
    hook; it is called once per compose, so its set-up serves every attempt.
    """
    weights = _weights(rc, t, w)
    group_scores = scorer_factory(rc, weights) if scorer_factory is not None else None
    attempts = max(1, max_retries)
    best = None
    for attempt in range(attempts):
        rng = random.Random(seed + attempt)
        chosen, draws = _group_pass(rc, weights, rng, group_scores)
        report = _report(rc, t, chosen)
        alignment = _finish(chosen, rc, t, weights, strategy,
                            retries_used=attempt, report=report, tie_breaks=draws)
        if report.delta <= cfg.delta:
            return alignment
        if best is None or report.delta < best.report.delta:
            best = alignment
    return Alignment(best.tuples, best.total_weight, best.report, strategy,
                     retries_used=attempts - 1, exhausted=True, tie_breaks=best.tie_breaks)


def compose_greedy(rc: CandidateSet, cfg: ConstraintConfig, t: SeriesTable,
                   w: WeightParams, seed: int = 0,
                   max_retries: int = DEFAULT_MAX_RETRIES) -> Alignment:
    """Group scan emitting each group's max-weight member; ties picked by seeded RNG.

    If the scan's result violates the model constraint the pass is retried
    with seed + 1, seed + 2, ... up to ``max_retries`` attempts; the best
    attempt is returned with ``exhausted`` set when all fail.
    """
    return _retry_compose(rc, cfg, t, w, seed, max_retries, "greedy", None)


def _cell_index(slots: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR index from cell to candidates: ``(order, indptr)``.

    Cell (series s, row r) has key ``s * n + r``; the candidates using it are
    ``order[indptr[key]:indptr[key + 1]]``, in ascending order because the
    argsort over the row-major key array is stable.
    """
    m = slots.shape[1]
    keys = (slots + np.arange(m) * n).ravel()
    order = np.argsort(keys, kind="stable") // m
    indptr = np.zeros(m * n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=m * n), out=indptr[1:])
    return order, indptr


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    # np.unique would do, but its first call pages in about 2 MB of numpy code
    x = np.sort(x, kind="stable")
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _expectation_scorer(rc: CandidateSet, weights: list[float]):
    """Group hook scoring each member by its weight plus its expectation bonus.

    Only candidates in U, the union of the index rows of the members' cells,
    can conflict with the group, so member g's bonus is the sum of w[i] over
    i in U with i > g and no cell shared with g.  The row-wise ``cumsum``
    adds those weights one at a time in ascending i (masked entries add 0.0,
    which is exact), as a forward scan does; ``np.sum`` adds pairwise and
    could move a tie.
    """
    w = np.asarray(weights, dtype=float)
    slots = rc.slot_array
    n = rc.table.n
    order, indptr = _cell_index(slots, n)
    offsets = np.arange(slots.shape[1]) * n

    def group_scores(group: list[int]) -> list[float]:
        g = np.asarray(group, dtype=np.intp)
        members = slots[g]
        cells = _sorted_unique((members + offsets).ravel())
        starts = indptr[cells]
        lengths = indptr[cells + 1] - starts
        # concatenate the ranges [start, start + length) of every member cell
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        u = _sorted_unique(order[shift + np.arange(lengths.sum())])
        disjoint = ~(members[:, None, :] == slots[u][None, :, :]).any(axis=2)
        keep = disjoint & (u[None, :] > g[:, None])
        bonus = np.cumsum(np.where(keep, w[u], 0.0), axis=1)[:, -1]
        return (w[g] + bonus).tolist()

    return group_scores


def compose_expectation(rc: CandidateSet, cfg: ConstraintConfig, t: SeriesTable,
                        w: WeightParams, seed: int = 0,
                        max_retries: int = DEFAULT_MAX_RETRIES) -> Alignment:
    """Group scan scoring each member by its weight plus a forward-looking bonus.

    The bonus of group member g sums the weights of later candidates that do
    not conflict with g but conflict with at least one other group member,
    i.e. the weight g keeps available by being chosen.  The candidates that
    conflict with the group are read from a cell index built once per
    compose (see ``_expectation_scorer``), so scoring a group of |G| members
    costs O(|G| * |U|) for the |U| candidates touching its cells instead of a
    forward scan per member; singleton groups are not scored at all.  The
    bonus is summed in ascending candidate order, one addition at a time, so
    it is bit-identical to that scan and the seeded tie-breaks agree with it.
    """
    return _retry_compose(rc, cfg, t, w, seed, max_retries, "expectation",
                          _expectation_scorer)


def compose_setpacking(rc: CandidateSet, cfg: ConstraintConfig, t: SeriesTable,
                       w: WeightParams) -> Alignment:
    """Local search in the weighted set-packing neighborhood.

    Starts from the greedy scan-order packing, then repeatedly swaps in the
    replacement set Q (|Q| <= m, pairwise non-conflicting, every member
    conflicting with a pivot) that maximizes gained/lost weight, whenever the
    swap increases the total.  Equal-ratio maximizers branch (breadth-first,
    capped); the best terminal branch satisfying the model constraint wins.
    """
    k = len(rc)
    weights = _weights(rc, t, w)
    m = t.m
    tuples = rc.tuples
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
        ordered = sorted(tuples[i] for i in sel)
        report = delta_report(ordered, t)
        total = sum(weights[i] for i in sel)
        return total, report, sel

    best = None
    fallback = None
    for state in finished:
        total, report, sel = evaluate(state)
        key = tuple(sorted(tuples[i].slots for i in sel))
        if report.delta <= cfg.delta:
            if best is None or total > best[0] or (total == best[0] and key < best[3]):
                best = (total, report, sel, key)
        if fallback is None or report.delta < fallback[1].delta:
            fallback = (total, report, sel, key)
    if best is not None:
        total, report, sel, _ = best
        return _finish(sel, rc, t, weights, "setpacking",
                       truncated=truncated, report=report)
    total, report, sel, _ = fallback
    alignment = _finish(sel, rc, t, weights, "setpacking",
                        truncated=truncated, report=report)
    return Alignment(alignment.tuples, alignment.total_weight, alignment.report,
                     "setpacking", exhausted=True, truncated=truncated)


def compose(strategy: str, rc: CandidateSet, cfg: ConstraintConfig, t: SeriesTable,
            w: WeightParams, seed: int = 0,
            max_retries: int = DEFAULT_MAX_RETRIES) -> Alignment:
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
        return composer(rc, cfg, t, w, seed=seed, max_retries=max_retries)
    return composer(rc, cfg, t, w)

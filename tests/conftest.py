import csv
import dataclasses
import itertools
import math
import random
import time
from collections import Counter, deque

import numpy as np
import pytest

from tsalign import SeriesTable, WeightParams, composers, tuning
from tsalign.candidate import CandidateSet, generate_candidates
from tsalign.composers import (BRANCH_CAP, DEFAULT_MAX_RETRIES, _conflict_masks, _finish,
                               _retry_compose, _sum_in_order)
from tsalign.consistency import ConsistencyReport, delta_report, fit_model
from tsalign.core import (AlignedTuple, ConstraintConfig, batch_weights, check_tuple,
                          phi_similarity, theta_similarity, weight_terms)
from tsalign.errors import ConfigError, DataError, SizeError, StructuralError
from tsalign.evaluation import (GroundTruth, ScoreReport, generate_synthetic, inject_mcar,
                                score)


def random_table(rng: np.random.Generator, m: int, n: int,
                 missing_rate: float = 0.2) -> SeriesTable:
    """Small random table: sorted distinct timestamps, independent missing cells."""
    ts = np.sort(rng.uniform(0, 10 * n, size=(m, n)), axis=1)
    ts += np.arange(n)[None, :] * 1e-6  # break accidental ties
    values = rng.normal(size=(m, n))
    ts = np.where(rng.random((m, n)) < missing_rate, np.nan, ts)
    values = np.where(rng.random((m, n)) < missing_rate, np.nan, values)
    return SeriesTable(ts, values)


def gappy_table(rng: np.random.Generator, m: int, n: int) -> SeriesTable:
    """``random_table`` plus one all-missing row and one series with no timestamps
    or no values at all (when n allows)."""
    t = random_table(rng, m, n, missing_rate=float(rng.uniform(0.0, 0.5)))
    ts, vs = np.array(t.timestamps), np.array(t.values)
    if n:
        row = rng.integers(n)
        ts[:, row] = vs[:, row] = np.nan
        (ts if rng.random() < 0.5 else vs)[rng.integers(m)] = np.nan
    return SeriesTable(ts, vs)


def assert_same_table(a: SeriesTable, b: SeriesTable):
    """Bit-equal timestamps and values: NaN matches NaN, -0.0 does not match 0.0."""
    assert a.timestamps.shape == b.timestamps.shape
    assert np.array_equal(a.timestamps.view(np.int64), b.timestamps.view(np.int64))
    assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))


def sorted_rank(samples, percentile: float):
    """Nearest-rank percentile by sorting a list: the ceil(p/100 * N)-th smallest."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1]


def csv_lines(reader):
    """(line, record) for each record ``reader`` reads from here on, ``line``
    the file line the record starts on: one past the lines read before it."""
    while True:
        line = reader.line_num + 1
        row = next(reader, None)
        if row is None:
            return
        yield line, row


def ingest_scan(path: str) -> SeriesTable:
    """Oracle for ``cli.ingest``: the row-major scan that parses cell by cell.

    Raises the DataError of the first defect in file order, a record that
    ``csv`` cannot read included; the strictly-increasing check runs only
    once every cell has parsed.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        m = len(header) // 2
        ts_cols = [[] for _ in range(m)]
        v_cols = [[] for _ in range(m)]
        linenos = []
        try:
            for lineno, row in csv_lines(reader):
                if not row:
                    continue
                linenos.append(lineno)
                if len(row) != 2 * m:
                    raise DataError(f"{path}:{lineno}: expected {2 * m} cells, got {len(row)}")
                for k in range(m):
                    ts_cols[k].append(_parse_cell_scan(row[2 * k], path, lineno))
                    v_cols[k].append(_parse_cell_scan(row[2 * k + 1], path, lineno))
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    bad = []
    for k in range(m):
        prev = None
        for i, x in enumerate(ts_cols[k]):
            if x is None:
                continue
            if prev is not None and x <= prev:
                bad.append(f"series {k + 1} line {linenos[i]}")
            prev = x
    if bad:
        raise DataError(f"{path}: timestamps not strictly increasing at " + ", ".join(bad))
    return SeriesTable.from_columns(list(zip(ts_cols, v_cols)))


def _parse_cell_scan(cell, path, lineno):
    cell = cell.strip()
    if not cell:
        return None
    try:
        x = float(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: not a number: {cell!r}") from None
    if not math.isfinite(x):
        raise DataError(f"{path}:{lineno}: not a finite number: {cell!r} "
                        "(leave the cell empty to mark it missing)")
    return x


def read_alignment_scan(path: str, m: int):
    """Oracle for ``cli._read_alignment_csv``: the row-by-row reader that keeps
    every row's line, slots, t/v cells and theta_sim/phi_sim cells as Python
    lists until the end, and reads each cell as ``ingest_scan`` does."""
    lines, slots, cells, sims = [], [], [], []
    total = 0.0
    names = [f"{name}_{k + 1}" for k in range(m) for name in ("idx", "t", "v")]
    names += ["weight", "theta_sim", "phi_sim"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != names:
            raise DataError(f"{path}: expected an alignment CSV for {m} series")
        try:
            for lineno, row in csv_lines(reader):
                if not row:
                    continue
                if len(row) != 3 * m + 3:
                    raise DataError(f"{path}:{lineno}: expected {3 * m + 3} cells, "
                                    f"got {len(row)}")
                x = [_parse_cell_scan(cell, path, lineno) for cell in row]
                index = x[:3 * m:3]
                if any(i is None or i != int(i) or abs(i) >= 2 ** 63 for i in index):
                    raise DataError(f"{path}:{lineno}: malformed alignment row")
                slots.append([int(i) - 1 for i in index])
                cells.append([math.nan if x[3 * k + j] is None else x[3 * k + j]
                              for k in range(m) for j in (1, 2)])
                sims.append([math.nan if c is None else c for c in x[3 * m + 1:]])
                if x[3 * m] is not None:
                    total += x[3 * m]
                lines.append(lineno)
                if not math.isfinite(total):
                    raise DataError(f"{path}:{lineno}: weight {x[3 * m]!r} makes the "
                                    "weight sum non-finite")
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return lines, slots, cells, sims, total


def check_rows_scan(path: str, lines, slots, cells, sims) -> None:
    """Oracle for ``cli._check_rows``: the rows one at a time in file order,
    with a dict per series from each index to the line it was first seen on."""
    seen = [{} for _ in range(len(slots[0]) if len(slots) else 0)]
    for line, row, tv, (theta, phi) in zip(*(np.asarray(a).tolist()
                                             for a in (lines, slots, cells, sims))):
        where = f"{path}:{line}: "
        for k, i in enumerate(row):
            if i in seen[k]:
                raise DataError(where + f"idx_{k + 1} {i + 1} is also on line {seen[k][i]}: "
                                "two rows share a cell")
            seen[k][i] = line
        spread = phi_similarity(AlignedTuple(row))
        if phi != spread:
            shown = "is blank," if math.isnan(phi) else f"{phi!r} is"
            raise DataError(where + f"phi_sim {shown} not {spread}, the row's largest index "
                            "minus its smallest")
        present = [t for t in tv[::2] if not math.isnan(t)]
        if len(present) >= 2 and math.isinf(max(present) - min(present)):
            lo, hi = tv[::2].index(min(present)), tv[::2].index(max(present))
            raise DataError(where + f"t_{lo + 1} {tv[2 * lo]!r} and t_{hi + 1} {tv[2 * hi]!r} "
                            "span more than a float can hold")
        if len(present) < 2:
            if not math.isnan(theta):
                raise DataError(where + f"theta_sim {theta!r} must be blank: the row has "
                                "fewer than two present t cells")
        elif theta != max(present) - min(present):
            shown = "is blank," if math.isnan(theta) else f"{theta!r} is"
            raise DataError(where + f"theta_sim {shown} not {max(present) - min(present)!r}, "
                            "the spread of the row's present t cells")


def aligned_tuples(slots) -> list:
    """The rows of an (N, m) slot array (``rc.slots``, ``alignment.slots``) as
    ``AlignedTuple``s, for the per-tuple oracles."""
    return [AlignedTuple(row) for row in np.asarray(slots).tolist()]


def pair_count(r: AlignedTuple, t: SeriesTable) -> int:
    """Number of non-missing value pairs: lambda * (lambda - 1) / 2."""
    check_tuple(r, t)
    lam = sum(1 for k, row in enumerate(r.slots) if t.values[k, row] == t.values[k, row])
    return lam * (lam - 1) // 2


def index_spread(r: AlignedTuple) -> int:
    """Sum of |slots[i] - slots[j]| over all slot pairs, masks ignored."""
    slots = r.slots
    total = 0
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            total += abs(slots[i] - slots[j])
    return total


def weight(r: AlignedTuple, t: SeriesTable, w: WeightParams) -> float:
    """Tuple weight (k1*p + b) / (k2*d + c); strictly positive for valid params."""
    p = pair_count(r, t)
    d = index_spread(r)
    return (w.k1 * p + w.b) / (w.k2 * d + w.c)


def _format_cell_scan(x) -> str:
    return "" if x != x else repr(float(x))


def write_table_scan(table, path) -> None:
    """Oracle for ``cli.write_table``: one row per table row, cell by cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{p}_{k + 1}" for k in range(table.m) for p in ("t", "v")])
        for i in range(table.n):
            row = []
            for k in range(table.m):
                row.append(_format_cell_scan(table.timestamps[k, i]))
                row.append(_format_cell_scan(table.values[k, i]))
            writer.writerow(row)


def write_alignment_scan(alignment, table, params, path) -> None:
    """Oracle for ``cli.write_alignment_csv``: one row per sorted tuple, cell by cell,
    with the scalar ``theta_similarity``, ``phi_similarity`` and ``weight``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = []
        for k in range(table.m):
            header += [f"idx_{k + 1}", f"t_{k + 1}", f"v_{k + 1}"]
        writer.writerow(header + ["weight", "theta_sim", "phi_sim"])
        for r in sorted(aligned_tuples(alignment.slots)):
            row = []
            for k, slot in enumerate(r.slots):
                row += [str(slot + 1),
                        _format_cell_scan(table.timestamps[k, slot]),
                        _format_cell_scan(table.values[k, slot])]
            th = theta_similarity(r, table)
            row += [repr(float(weight(r, table, params))),
                    "" if th is None else repr(float(th)),
                    str(phi_similarity(r))]
            writer.writerow(row)


def same_row_groups_scan(table) -> tuple:
    """Oracle for ``GroundTruth.same_row``: one group per row with a present cell,
    holding that row's present (series, row) cells in series order."""
    groups = []
    for i in range(table.n):
        group = tuple((k, i) for k in range(table.m)
                      if table.timestamp_mask[k, i] or table.value_mask[k, i])
        if group:
            groups.append(group)
    return tuple(groups)


def truth_pair_set(truth) -> set:
    """Every unordered pair of cells that share a truth group, as frozensets."""
    pairs = set()
    for group in same_row_groups_scan(truth.table):
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                pairs.add(frozenset((group[a], group[b])))
    return pairs


def score_scan(alignment, truth) -> ScoreReport:
    """Oracle for ``evaluation.score``: aligned and true cell pairs as frozenset sets."""
    m, n = truth.table.m, truth.table.n
    tuples = aligned_tuples(alignment.slots)
    aligned_pairs = set()
    for r in tuples:
        if len(r.slots) != m or any(not 0 <= row < n for row in r.slots):
            raise StructuralError("alignment does not fit the truth table")
        for a in range(m):
            for b in range(a + 1, m):
                aligned_pairs.add(frozenset(((a, r.slots[a]), (b, r.slots[b]))))
    truth_pairs = truth_pair_set(truth)
    hit = len(aligned_pairs & truth_pairs)
    precision = hit / len(aligned_pairs) if aligned_pairs else 0.0
    recall = hit / len(truth_pairs) if truth_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ScoreReport(precision, recall, f1)


def pair_accuracy_all_pairs(slots, truth) -> tuple[float, float, float]:
    """Oracle for ``evaluation.pair_accuracy``: the keys of every series pair
    built, sorted and deduplicated at once, as cell_a * (m * n) + cell_b."""
    m, n = truth.table.m, truth.table.n
    try:
        slots = np.asarray(slots, dtype=np.intp)
    except ValueError:
        raise StructuralError("alignment does not fit the truth table") from None
    if slots.size == 0:
        slots = slots.reshape(0, m)
    if slots.ndim != 2 or slots.shape[1] != m or ((slots < 0) | (slots >= n)).any():
        raise StructuralError("alignment does not fit the truth table")
    cells = slots + np.arange(m) * n
    a, b = np.triu_indices(m, 1)
    keys = np.sort((cells[:, a] * (m * n) + cells[:, b]).ravel())
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys
    ids = truth.cell_groups
    first, second = ids[keys // (m * n)], ids[keys % (m * n)]
    hit = int(np.count_nonzero((first == second) & (first >= 0)))
    sizes = np.bincount(ids[ids >= 0])
    truth_pairs = int((sizes * (sizes - 1) // 2).sum())
    precision = hit / keys.size if keys.size else 0.0
    recall = hit / truth_pairs if truth_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def predict_scan(model, values: np.ndarray) -> np.ndarray:
    """Oracle for ``ConsistencyModel.predict``: gaps filled by ``np.where``."""
    values = np.asarray(values, dtype=float)
    rows = values.shape[0]
    if rows == 0:
        return np.zeros_like(values)
    prev = np.empty_like(values)
    prev[0] = model.means
    prev[1:] = values[:-1]
    gaps = np.isnan(prev)
    if gaps.any():
        prev = np.where(gaps, np.broadcast_to(model.means, prev.shape), prev)
    return prev @ model.coeff.T + model.intercept


def consistency_delta_scan(aligned_values: np.ndarray, model) -> ConsistencyReport:
    """Oracle for ``consistency.consistency_delta``: the prediction of
    ``predict_scan``, and the errors and column extremes by ``np.where`` copies."""
    values = np.asarray(aligned_values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    rows, width = values.shape
    mask = ~np.isnan(values)
    abs_errors = np.zeros_like(values)
    if rows:
        preds = predict_scan(model, values)
        abs_errors = np.where(mask, np.abs(preds - values), 0.0)
    counts = mask.sum(axis=0)
    vmax = np.where(counts > 0, np.nanmax(np.where(mask, values, -np.inf), axis=0,
                                          initial=-np.inf), 0.0)
    vmin = np.where(counts > 0, np.nanmin(np.where(mask, values, np.inf), axis=0,
                                          initial=np.inf), 0.0)
    normalizers = counts * (vmax - vmin)
    losses = np.zeros(width)
    degenerate = []
    for j in range(width):
        if normalizers[j] > 0:
            losses[j] = abs_errors[:, j].sum() / normalizers[j]
        else:
            degenerate.append(j)
    delta = float(losses.mean()) if width else 0.0
    if not math.isfinite(delta):
        raise DataError("the consistency score overflowed: the aligned values are "
                        "too large in magnitude for the AR(1) fit")
    return ConsistencyReport(losses, normalizers, delta, tuple(degenerate), not mask.any())


def delta_report_scan(slots, t: SeriesTable) -> ConsistencyReport:
    """Oracle for ``consistency.delta_report``: the slots widened to intp,
    scored by ``consistency_delta_scan``."""
    slots = np.asarray(slots, dtype=np.intp).reshape(-1, t.m)
    matrix = t.values[np.arange(t.m), slots[np.lexsort(slots.T[::-1])]]
    with np.errstate(over="ignore", invalid="ignore"):
        model = fit_model(matrix)
        report = consistency_delta_scan(matrix, model)
    return dataclasses.replace(report, fallback_series=model.fallback_series,
                               full_fallback=model.full_fallback)


def generate_synthetic_scan(n: int, m: int, timestamp_jitter: float,
                            value_model: str = "ar1", seed: int = 0, tick: float = 10.0):
    """Oracle for ``evaluation.generate_synthetic`` (valid arguments only): the
    tie bump over every timestamp and the AR(1) recurrence in numpy scalars."""
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
    else:
        walk = np.cumsum(rng.normal(size=n))
        loadings = rng.uniform(0.5, 1.5, size=m)
        values = loadings[:, None] * walk[None, :] + 0.05 * noise
    table = SeriesTable(ts, values)
    return table, GroundTruth.same_row(table)


def theta_scan(t: SeriesTable, percentile: float = 95.0) -> float:
    """Oracle for ``tuning.determine_theta``: the row-by-row scan of present timestamps."""
    diffs = []
    ts = t.timestamps
    for i in range(t.n):
        col = ts[:, i]
        present = col[col == col]
        for a in range(len(present)):
            for b in range(a + 1, len(present)):
                diffs.append(abs(float(present[a]) - float(present[b])))
    if not diffs:
        raise ConfigError("no row has two or more non-missing timestamps; cannot determine theta")
    return float(sorted_rank(diffs, percentile))


def beta_samples_scan(t: SeriesTable, theta: float, beta_lower: int = 0) -> list[int]:
    """Oracle for the gap samples of ``tuning.determine_beta``: a double loop per tuple."""
    samples = []
    for slots in walk_scan(t, ConstraintConfig(theta=theta, beta=beta_lower + t.m)).tolist():
        for a in range(len(slots)):
            for b in range(a + 1, len(slots)):
                samples.append(abs(slots[a] - slots[b]))
    return samples


BRUTE_FORCE_GUARD = 10_000_000


def brute_force_candidates(t: SeriesTable, cfg: ConstraintConfig) -> CandidateSet:
    """Oracle for ``generate_candidates``: enumerate all n^m slot vectors and
    filter by both constraints."""
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
        out.append(combo)
    return CandidateSet(np.array(out, dtype=np.int32).reshape(-1, t.m), cfg, t)


def walk_scan(t: SeriesTable, cfg: ConstraintConfig) -> np.ndarray:
    """Oracle for ``generate_candidates``: the recursive walk, one cursor per series.

    After fixing a prefix of cursors, the next cursor runs over the window
    [max(prefix) - beta, min(prefix) + beta] in ascending order, skipping a
    row whose present timestamp breaks theta against the prefix together
    with all its extensions.  Returns the (N, m) int32 slot array in the
    order the walk emits it, which is ascending lexicographic.
    """
    m, n = t.m, t.n
    theta, beta = cfg.theta, cfg.beta
    ts_rows = [row.tolist() for row in t.timestamps]
    out: list[int] = []
    slots = [0] * m
    last = m - 1

    def extend(k, lo, hi, smin, smax, tmin, tmax):
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
                out.extend(slots)
            else:
                nsmin = v if v < smin else smin
                nsmax = v if v > smax else smax
                extend(k + 1, max(0, nsmax - beta), min(n - 1, nsmin + beta),
                       nsmin, nsmax, ntmin, ntmax)

    first_ts = ts_rows[0]
    for v0 in range(n):
        slots[0] = v0
        x = first_ts[v0]
        tmin, tmax = (x, x) if x == x else (math.inf, -math.inf)
        extend(1, max(0, v0 - beta), min(n - 1, v0 + beta), v0, v0, tmin, tmax)
    return np.array(out, dtype=np.int32).reshape(-1, m)


def weight_terms_tensor(t: SeriesTable, slot_rows) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for ``core.weight_terms``: p from an (N, m) mask gather, d from the
    (N, m, m) difference tensor, which counts each unordered pair twice."""
    slot_rows = np.asarray(slot_rows, dtype=np.intp)
    lam = t.value_mask[np.arange(t.m)[None, :], slot_rows].sum(axis=1)
    d = np.abs(slot_rows[:, :, None] - slot_rows[:, None, :]).sum(axis=(1, 2)) / 2
    return lam * (lam - 1) / 2, d


def mwis_bruteforce(weights, conflict_pairs, k):
    """Independent oracle: max-weight independent set by bitmask enumeration."""
    best = 0.0
    for mask in range(1 << k):
        ok = True
        for i, j in conflict_pairs:
            if mask >> i & 1 and mask >> j & 1:
                ok = False
                break
        if not ok:
            continue
        total = sum(weights[i] for i in range(k) if mask >> i & 1)
        if total > best:
            best = total
    return best


def _share_slot(r1, r2) -> bool:
    return any(a == b for a, b in zip(r1.slots, r2.slots))


class CountingRandom(random.Random):
    """``random.Random`` that counts its ``choice`` calls in ``draws``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def choice(self, seq):
        self.draws += 1
        return super().choice(seq)


def segment_bounds_scan(rc) -> list[int]:
    """Oracle for ``CandidateSet.segment_bounds``: every split of the visited order
    that no cell crosses.

    The visited candidates are the non-isolated ones in index order.  For each
    position q, the cells used before q are intersected with those used from q
    on; q is a boundary when the intersection is empty.  Returns 0, the
    boundaries, then the number of visited candidates (just [0] when none).
    """
    rows = [tuple(r) for r, alone in zip(rc.slots.tolist(), rc.isolated.tolist()) if not alone]
    cells = [{(s, row) for s, row in enumerate(r)} for r in rows]
    bounds = [0]
    for q in range(1, len(rows)):
        before = set().union(*cells[:q])
        after = set().union(*cells[q:])
        if not before & after:
            bounds.append(q)
    if rows:
        bounds.append(len(rows))
    return bounds


def group_state_scan(rc):
    """Oracle for the state of the open group that ``composers._group_pass``
    hands its ``group_scores`` hook.

    Returns ``state(group)``: the map from each cell key s * n + r of the
    members to the bitmask of the positions in ``group`` of the members
    using it, and the number of candidates before ``group[0]`` that share a
    slot with some other candidate, its position among the visited ones.
    """
    tuples = aligned_tuples(rc.slots)
    n = rc.table.n
    uses = Counter(cell for r in tuples for cell in enumerate(r.slots))
    shares = [any(uses[cell] > 1 for cell in enumerate(r.slots)) for r in tuples]

    def state(group):
        member_bits = {}
        for j, g in enumerate(group):
            for series, row in enumerate(tuples[g].slots):
                key = series * n + row
                member_bits[key] = member_bits.get(key, 0) | 1 << j
        return member_bits, sum(shares[:group[0]])

    return state


def group_pass_scan(rc, weights, rng, group_scores=None) -> list[int]:
    """Oracle for ``composers._group_pass``: the plain scan over every candidate.

    Used rows are kept in per-series sets, a candidate joins the group only if
    it shares a slot with every member (checked pairwise), and isolated
    candidates take no shortcut.  ``group_scores`` gets the group's state from
    ``group_state_scan``.  Returns the chosen indices in emit order.
    """
    tuples = aligned_tuples(rc.slots)
    state = group_state_scan(rc) if group_scores is not None else None
    m = len(tuples[0].slots) if len(rc) else 0
    used = [set() for _ in range(m)]
    chosen = []
    group = []

    def emit():
        if len(group) == 1:
            pick = group[0]
        else:
            if group_scores is None:
                scores = [weights[g] for g in group]
            else:
                scores = group_scores(group, *state(group))
            top = max(scores)
            tied = [g for g, s in zip(group, scores) if s == top]
            pick = tied[0] if len(tied) == 1 else rng.choice(tied)
        chosen.append(pick)
        for series, row in enumerate(tuples[pick].slots):
            used[series].add(row)

    for i, r in enumerate(tuples):
        if any(row in used[series] for series, row in enumerate(r.slots)):
            continue
        if not group or all(_share_slot(r, tuples[g]) for g in group):
            group.append(i)
            continue
        emit()
        group = []
        if not any(row in used[series] for series, row in enumerate(r.slots)):
            group = [i]
    if group:
        emit()
    return chosen


def segment_ranks_scan(rc, weights) -> tuple:
    """Oracle for the greedy ``composers.pass_key``: the dense rank (tied weights
    share a rank, numbered from 0) of each non-isolated candidate's weight
    among the weights of its ``segment_bounds_scan`` segment, in index order."""
    rest = [x for x, alone in zip(weights, rc.isolated.tolist()) if not alone]
    bounds = segment_bounds_scan(rc)
    ranks = []
    for lo, hi in zip(bounds, bounds[1:]):
        distinct = sorted(set(rest[lo:hi]))
        ranks += [distinct.index(x) for x in rest[lo:hi]]
    return tuple(ranks)


def class_ranks_scan(rc, weights) -> tuple:
    """Oracle for the bytes of the greedy ``composers.pass_key``: per
    ``segment_bounds_scan`` segment, the (p, d) classes of its candidates in
    ascending order, each with the dense rank (numbered from 0) of its weight
    among the segment's distinct weights."""
    p, d = (x.tolist() for x in weight_terms(rc.table, rc.slots))
    visited = [i for i, alone in enumerate(rc.isolated.tolist()) if not alone]
    bounds = segment_bounds_scan(rc)
    ranks = []
    for lo, hi in zip(bounds, bounds[1:]):
        weight_of = {(p[i], d[i]): weights[i] for i in visited[lo:hi]}
        distinct = sorted(set(weight_of.values()))
        ranks += [distinct.index(weight_of[c]) for c in sorted(weight_of)]
    return tuple(ranks)


def drawing_segments_scan(rc, weights, seed) -> set:
    """The ``segment_bounds_scan`` segments in which ``group_pass_scan`` draws a
    tie-break under ``seed``, by their index."""
    visited = [i for i, alone in enumerate(rc.isolated.tolist()) if not alone]
    bounds = segment_bounds_scan(rc)
    tied = []

    class Recording(random.Random):
        def choice(self, seq):
            tied.append(seq[0])
            return super().choice(seq)

    group_pass_scan(rc, weights, Recording(seed))
    return {next(j for j, hi in enumerate(bounds[1:]) if visited.index(i) < hi) for i in tied}


def expectation_scan(rc, cfg, w, seed=0, max_retries=DEFAULT_MAX_RETRIES, pruned=True):
    """Oracle for ``compose_expectation``: each member's bonus from a forward scan.

    The bonus of group member g sums, in ascending candidate order, the
    weights of later candidates that share no slot with g but share one with
    some group member.  The pruned scan stops at the first candidate whose
    first slot exceeds the group's row window (max slot + beta) and skips any
    candidate with a slot beyond it; the unpruned scan visits every later
    candidate.  Both must select exactly as the indexed composer does.
    """
    tuples = aligned_tuples(rc.slots)
    k = len(tuples)

    def scorer_factory(rc, weights):
        def score(g_idx, group):
            limit = max(s for j in group for s in tuples[j].slots) + cfg.beta
            g = tuples[g_idx]
            members = [tuples[j] for j in group]
            bonus = 0.0
            for i in range(g_idx + 1, k):
                r = tuples[i]
                if pruned:
                    if r.slots[0] > limit:
                        break
                    if any(s > limit for s in r.slots):
                        continue
                if _share_slot(r, g):
                    continue
                if any(_share_slot(r, mem) for mem in members):
                    bonus += weights[i]
            return weights[g_idx] + bonus

        return lambda group, member_bits, start: [score(g, group) for g in group]

    return _retry_compose(rc, cfg, w, seed, max_retries, scorer_factory)


def union_scorer(rc, weights):
    """Oracle for ``composers._expectation_scorer``: scores over the CSR cell union.

    A CSR index maps cell key ``s * n + r`` to the candidates using it, in
    ascending order.  A group's U is the union of its members' index rows,
    and member g's bonus adds w[i] over i in U with i > g and no cell shared
    with g, one at a time in ascending i.
    """
    w = np.asarray(weights, dtype=float)
    slots = rc.slots
    m, n = slots.shape[1], rc.table.n
    offsets = np.arange(m) * n
    keys = (slots + offsets).ravel()
    order = np.argsort(keys, kind="stable") // m
    indptr = np.zeros(m * n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=m * n), out=indptr[1:])

    def group_scores(group):
        g = np.asarray(group, dtype=np.intp)
        members = slots[g]
        cells = np.unique(members + offsets)
        u = np.unique(np.concatenate([order[indptr[c]:indptr[c + 1]] for c in cells]))
        disjoint = ~(members[:, None, :] == slots[u][None, :, :]).any(axis=2)
        keep = disjoint & (u[None, :] > g[:, None])
        bonus = np.cumsum(np.where(keep, w[u], 0.0), axis=1)[:, -1]
        return (w[g] + bonus).tolist()

    return group_scores


def setpack_scan(rc, cfg, w):
    """Oracle for ``compose_setpacking``: every combination of at most m members
    of a pivot's conflict pool is listed, and those whose members conflict are
    dropped; the rest, the BFS over equal-ratio swaps and its cap are the same.
    """
    k = len(rc)
    weights = batch_weights(rc.table, rc.slots, w).tolist()
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
                    gain = _sum_in_order(weights[q] for q in combo)
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

    best = None
    fallback = None
    for state in finished:
        sel = list(bits(state))
        report = delta_report(rc.slots[sel], rc.table)
        total = _sum_in_order(weights[i] for i in sel)
        if report.delta <= cfg.delta:
            if best is None or total > best[0] or (total == best[0] and sel < best[2]):
                best = (total, report, sel)
        if fallback is None or report.delta < fallback[1].delta:
            fallback = (total, report, sel)
    total, report, sel = fallback if best is None else best
    return _finish(sel, rc, weights, exhausted=best is None, truncated=truncated, report=report)


def benchmark_scan(n: int, m: int, jitter: float, rate: float, strategy: str,
                   seed: int, *, tick: float = 10.0, value_model: str = "ar1") -> dict:
    """Oracle for ``cli.run_pipeline`` as ``bench`` runs it, with both windows
    tuned: the stage sequence spelled out, theta at the 100th percentile and
    beta above 0."""
    complete, truth = generate_synthetic(n, m, jitter, value_model=value_model,
                                         seed=seed, tick=tick)
    masked = inject_mcar(complete, rate, seed=seed + 1, target="values")
    theta = tuning.determine_theta(masked, percentile=100.0)
    beta = tuning.determine_beta(masked, theta, beta_lower=0)
    cfg = ConstraintConfig(theta=theta, beta=beta, delta=math.inf)
    start = time.perf_counter()
    rc = generate_candidates(masked, cfg)
    alignment = composers.compose(strategy, rc, cfg, WeightParams(3, 2, 1, 1),
                                  seed=seed, max_retries=16)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = score(alignment, truth)
    return {
        "strategy": strategy, "n": n, "m": m, "rate": rate, "seed": seed,
        "theta": theta, "beta": beta,
        "candidate_count": len(rc),
        "aligned_tuple_count": len(alignment),
        "total_weight": alignment.total_weight,
        "delta_score": alignment.report.delta,
        "precision": report.precision, "recall": report.recall, "f1": report.f1,
        "wall_time_ms": elapsed_ms,
    }


def assert_same_alignment(a, b):
    """Equal selections, totals and retry outcomes (the consistency report aside)."""
    assert a.slots.tolist() == b.slots.tolist()
    assert a.total_weight == b.total_weight
    assert a.retries_used == b.retries_used
    assert a.exhausted == b.exhausted


@pytest.fixture
def fig_params():
    """Weight coefficients used throughout the worked examples."""
    return WeightParams(k1=3, k2=2, b=1, c=1)


@pytest.fixture
def staggered_table():
    """Two series, three rows, timestamps offset by one unit; middle value missing."""
    return SeriesTable.from_columns([
        ([0.0, 10.0, 20.0], [1.0, None, 3.0]),
        ([1.0, 11.0, 21.0], [2.0, 2.5, 4.0]),
    ])

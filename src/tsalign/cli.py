"""Command-line interface: ingestion, pipeline orchestration, reporting.

Subcommands: align, tune, synth, score, bench.  Data files are wide CSVs
with header t_1,v_1,...,t_m,v_m where an empty cell means missing.

The data path works on blocks of ``BLOCK_ROWS`` rows, so it holds the
Python strings of one block at a time.  ``ingest`` reads the records with
``csv.reader`` block by block, parses each column of a block with Python
``float`` per cell into a (2, m, rows) array of its timestamps and values
and rejects a block's first defect at once, so several defects report the
first in file order; the timestamp order is checked on whole columns at the
end, and the table holds the two halves of the joined blocks without a
copy.  ``score`` reads the aligned CSV in the same blocks.
``write_alignment_csv`` gathers the cells of all tuples with one index into
numeric columns, and both writers format, join and write one block of rows
at a time.  A file that is not UTF-8, or that ``csv`` cannot read, is a
DataError.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import statistics
import sys
import time
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from . import composers, evaluation, tuning
from .candidate import generate_candidates
from .composers import Alignment
from .core import ConstraintConfig, SeriesTable, WeightParams, adopt, batch_weights
from .errors import AlignmentError, ConfigError, DataError, SizeError, StructuralError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SIZE = 4
EXIT_EXHAUSTED = 5

STRATEGIES = tuple(composers.STRATEGIES)

# records read, and rows formatted and written, per block, so the data path
# holds the Python strings of one block, never of the whole file.  On an
# n=8000, m=4 align, 256 gives the lowest peak RSS (38.3 MB; 39.4 at 1024,
# 41.5 at 2048), and read and write times are flat from 128 to 8192.
BLOCK_ROWS = 256

# the weights every ``bench`` run composes under
BENCH_WEIGHTS = WeightParams(3.0, 2.0, 1.0, 1.0)


@contextlib.contextmanager
def _csv_reader(path: str):
    """A ``csv.reader`` over the file at ``path``.

    A leading byte-order mark is dropped.  A file that cannot be opened, is
    not UTF-8 text or holds a record ``csv`` cannot read (such as a cell
    over its field size limit) raises a DataError naming the file, and the
    line for the record.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                            f"{exc.reason})") from None


def _blocks(reader) -> Iterator[list[list[str]]]:
    """The records of ``reader`` in lists of at most ``BLOCK_ROWS``.

    A ``csv.Error`` is raised only after the records before it have been
    yielded, so a defect in them is still the first one reported.
    """
    while True:
        block, error = [], None
        try:
            for row in islice(reader, BLOCK_ROWS):
                block.append(row)
        except csv.Error as exc:
            error = exc
        if block:
            yield block
        if error is not None:
            raise error
        if not block:
            return


def ingest(path: str) -> SeriesTable:
    """Parse a wide CSV into a SeriesTable, with line-numbered diagnostics.

    The records are read with ``csv.reader`` in blocks of ``BLOCK_ROWS``, and
    each block is handled column by column: every cell is parsed with Python
    ``float`` (so surrounding blanks, ``1_000``, ``.5`` and ``-0.0`` read as
    ``float`` reads them), a blank cell is missing (NaN), and non-finite
    cells are found on whole columns.  A block with a defect raises at once,
    so a file with several defects reports the first one in file order: a
    ragged row, or a cell that is not a number or not finite.  The
    strictly-increasing check runs on whole columns once every block has
    parsed, and the table is handed the contiguous timestamp and value
    halves of the joined blocks without the copy and checks of
    ``SeriesTable(...)``.
    """
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if not header:
            raise DataError(f"{path}: empty file")
        m, rem = divmod(len(header), 2)
        expected = [f"t_{k + 1}" if i % 2 == 0 else f"v_{k + 1}"
                    for k in range(m) for i in range(2)]
        if rem or m < 2 or [h.strip() for h in header] != expected:
            raise DataError(f"{path}: header must be t_1,v_1,...,t_m,v_m with m >= 2")
        parts = [np.empty((2, m, 0))]  # the (2, m, rows) cells of each block
        skips = []  # per blank record, the number of non-blank records before it
        n = 0
        for records in _blocks(reader):
            if not all(records):
                kept = []
                for row in records:
                    if row:
                        kept.append(row)
                    else:
                        skips.append(n + len(kept))
                records = kept
            cells, defect = _parse_block(records, m)
            if defect is not None:
                row, message = defect
                raise DataError(f"{path}:{_lines(n + row, skips)}: {message}")
            parts.append(cells)
            n += len(records)
    # the timestamps and values are the contiguous halves of one array
    cells = np.concatenate(parts, axis=2)
    del parts
    cells.setflags(write=False)
    ts, vs = cells
    bad = []
    for k in range(m):
        rows = np.flatnonzero(~np.isnan(ts[k]))
        present = ts[k, rows]
        bad += [f"series {k + 1} line {line}"
                for line in _lines(rows[1:][present[1:] <= present[:-1]], skips).tolist()]
    if bad:
        raise DataError(f"{path}: timestamps not strictly increasing at " + ", ".join(bad))
    return adopt(SeriesTable, timestamps=ts, values=vs)


def _lines(rows, skips: list[int]):
    """The file lines of non-blank records ``rows`` (0-based), given the
    blank records' ``skips`` of ``ingest``: the header is line 1."""
    return np.asarray(rows) + 2 + np.searchsorted(skips, rows, side="right")


def _parse_block(records: list[list[str]], m: int
                 ) -> tuple[np.ndarray, Optional[tuple[int, str]]]:
    """The (2, m, rows) timestamps and values of a block of non-blank
    records, and its first defect in file order as (row, message), or None.

    Only the rows before the first ragged one are parsed.
    """
    widths = np.fromiter(map(len, records), np.intp, len(records))
    ragged = np.flatnonzero(widths != 2 * m)
    n = int(ragged[0]) if ragged.size else len(records)
    columns = list(zip(*records[:n])) or [()] * (2 * m)
    cells = np.empty((2, m, n))
    first = None
    for c, col in enumerate(columns):
        defect = _parse_column(col, cells[c % 2, c // 2])
        if defect is not None and (first is None or defect[0] < first[0]):
            first = defect
    if first is None and n < len(records):
        first = n, f"expected {2 * m} cells, got {widths[n]}"
    return cells, first


def _parse_column(col: Sequence[str], out: np.ndarray) -> Optional[tuple[int, str]]:
    """Parse one column into ``out``: Python ``float`` per cell, NaN for a blank cell.

    Returns the column's first defect as (row, message), or None.
    """
    stop = len(col)  # cells from here on are left unparsed
    try:
        out[:] = np.fromiter(map(float, [cell or "nan" for cell in col]), float, len(col))
    except ValueError:
        # a cell of blanks, or one that is not a number: find it cell by cell
        out[:] = np.nan
        for i, cell in enumerate(col):
            if cell.strip():
                try:
                    out[i] = float(cell)
                except ValueError:
                    stop = i
                    break
    # a blank cell parses to NaN; any other cell that is not finite is a defect
    odd = [i for i in np.flatnonzero(~np.isfinite(out[:stop])).tolist() if col[i].strip()]
    if odd:
        return odd[0], (f"not a finite number: {col[odd[0]].strip()!r} "
                        "(leave the cell empty to mark it missing)")
    if stop < len(col):
        return stop, f"not a number: {col[stop].strip()!r}"
    return None


def write_table(table: SeriesTable, path: str) -> None:
    """Inverse of ingest: write a SeriesTable as a wide CSV."""
    header, columns = [], []
    for k in range(table.m):
        header += [f"t_{k + 1}", f"v_{k + 1}"]
        columns += [table.timestamps[k], table.values[k]]
    _write_rows(header, columns, path)


def write_alignment_csv(alignment: Alignment, table: SeriesTable,
                        params: WeightParams, path: str) -> None:
    """One row per tuple: 1-based row index, timestamp, value per series, then W/theta/phi.

    Rows follow the tuples' slot order.  The cells of all tuples are gathered
    with one index into the table into numeric columns, which ``_write_rows``
    formats: a missing cell (or a theta_sim over fewer than two timestamps)
    as an empty cell.
    """
    m = table.m
    slots = alignment.slots.reshape(-1, m)
    slots = slots[np.lexsort(slots.T[::-1])]
    series = np.arange(m)
    ts = table.timestamps[series, slots]
    vs = table.values[series, slots]
    present = ~np.isnan(ts)
    hi = np.where(present, ts, -np.inf).max(axis=1)
    lo = np.where(present, ts, np.inf).min(axis=1)
    theta = np.where(present.sum(axis=1) >= 2, hi - lo, np.nan)
    columns = []
    header = []
    for k in range(m):
        header += [f"idx_{k + 1}", f"t_{k + 1}", f"v_{k + 1}"]
        columns += [slots[:, k] + 1, ts[:, k], vs[:, k]]
    columns += [batch_weights(table, slots, params), theta,
                slots.max(axis=1) - slots.min(axis=1)]
    _write_rows(header + ["weight", "theta_sim", "phi_sim"], columns, path)


def _write_rows(header: list[str], columns: list[np.ndarray], path: str) -> None:
    """Write ``header`` and then the rows of the numeric ``columns`` as CSV
    lines ending in CRLF.

    Each block of ``BLOCK_ROWS`` rows is formatted, joined and written on its
    own: a cell is the ``repr`` of its Python int or float, or empty for NaN,
    and each row is its cells joined by commas.  The bytes are those of
    ``csv.writer``: no cell holds a comma, a quote or a line break, and every
    row has at least two cells, so no cell needs quoting.
    """
    n = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, BLOCK_ROWS):
            cells = [_format_column(x[start:start + BLOCK_ROWS]) for x in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _format_column(x: np.ndarray) -> list[str]:
    """``repr`` of every number of ``x``, and an empty string for NaN."""
    out = list(map(repr, x.tolist()))
    for i in np.flatnonzero(np.isnan(x)).tolist():
        out[i] = ""
    return out


def run_pipeline(table: SeriesTable, strategy: str, params: WeightParams, *,
                 theta: Optional[float] = None, beta: Optional[int] = None,
                 delta: float = math.inf, grid=None, seed: int = 0,
                 max_retries: int = composers.DEFAULT_MAX_RETRIES,
                 percentile: float = 95.0, beta_lower: int = 0
                 ) -> tuple[Alignment, WeightParams, dict]:
    """The stages ``align`` and ``bench`` share: tune each window not given
    (theta at ``percentile``), generate, tune delta and (k1, k2) over
    ``grid`` if given, compose.  Returns the alignment, the weights it was
    composed under and the report's deterministic fields; the candidate set
    is freed on return, before the alignment is scored and written."""
    theta, beta = tuning.determine_windows(table, theta, beta, percentile=percentile,
                                           beta_lower=beta_lower)
    # the tuning grid and the final compose share this set; each reads delta
    # from the constraint it is given
    rc = generate_candidates(table, ConstraintConfig(theta=theta, beta=beta))
    diagnostics = {}
    if grid is not None:
        report = tuning.determine_weights_and_delta(rc, grid=grid, strategy=strategy, seed=seed)
        delta = report.delta
        params = WeightParams(k1=report.k1, k2=report.k2, b=params.b, c=params.c)
        diagnostics = {key: report.diagnostics[key]
                       for key in ("grid_composes", "grid_distinct_passes", "grid_segment_walks")}
    cfg = ConstraintConfig(theta=theta, beta=beta, delta=delta)
    alignment = composers.compose(strategy, rc, cfg, params, seed=seed, max_retries=max_retries)
    fields = {
        "strategy": strategy,
        "theta": None if math.isinf(theta) else theta,
        "beta": beta,
        "delta": None if math.isinf(delta) else delta,
        "k1": params.k1, "k2": params.k2, "b": params.b, "c": params.c,
        "seed": seed,
        "candidate_count": len(rc),
        "aligned_tuple_count": len(alignment),
        "total_weight": alignment.total_weight,
        "delta_score": alignment.report.delta,
        "retries_used": alignment.retries_used,
        "exhausted": alignment.exhausted,
        # deterministic outcomes the fields above leave out
        "diagnostics": {"tie_breaks": alignment.tie_breaks,
                        "truncated": alignment.truncated,
                        **_model_flags(alignment.report),
                        "segments": len(rc.segment_bounds) - 1, **diagnostics,
                        **_group_counts(strategy, alignment),
                        "attempt_deltas": list(alignment.attempt_deltas)},
    }
    return alignment, params, fields


def run(args) -> int:
    """``align``: check the options, ingest, read the truth, run the stages of
    ``run_pipeline``, score, write artifacts."""
    if (args.theta is None) == (not args.tune_theta):
        raise ConfigError("pass exactly one of --theta or --tune-theta")
    if (args.beta is None) == (not args.tune_beta):
        raise ConfigError("pass exactly one of --beta or --tune-beta")
    if args.delta is not None and args.tune_delta:
        raise ConfigError("pass at most one of --delta or --tune-delta")
    if args.max_retries < 0:
        raise ConfigError("--max-retries must be at least 0")
    if args.beta_lower < 0:
        raise ConfigError("--beta-lower must be at least 0")
    # the checks of the weights and windows given, before any file is read
    params = WeightParams(k1=1.0 if args.k1 is None else args.k1,
                          k2=1.0 if args.k2 is None else args.k2, b=args.b, c=args.c)
    delta = math.inf if args.delta is None else args.delta
    ConstraintConfig(theta=0.0 if args.theta is None else args.theta,
                     beta=0 if args.beta is None else args.beta, delta=delta)
    # an explicit weight fixes its coordinate; the grid searches the other
    grid = list(dict.fromkeys(
        (g1 if args.k1 is None else args.k1, g2 if args.k2 is None else args.k2)
        for g1, g2 in tuning.DEFAULT_GRID)) if args.tune_delta else None
    started = time.perf_counter()
    table = ingest(args.input)
    truth_present, truth_s = None, 0.0  # truth_s is left out of wall_time_ms
    if args.truth:
        # read and checked before any work, and kept only as the mask of its
        # present cells: the group ids are built from it after the compose,
        # in memory the beta scan and the candidate set have freed
        truth_started = time.perf_counter()
        truth_present = _truth_present(args.truth, table)
        truth_s = time.perf_counter() - truth_started
    alignment, params, fields = run_pipeline(
        table, args.strategy, params, theta=args.theta, beta=args.beta, delta=delta,
        grid=grid, seed=args.seed, max_retries=args.max_retries, beta_lower=args.beta_lower)
    scores = {}
    if truth_present is not None:
        truth_started = time.perf_counter()
        sr = evaluation.score(alignment, evaluation.same_row_groups(truth_present))
        scores = {"precision": sr.precision, "recall": sr.recall, "f1": sr.f1}
        truth_s += time.perf_counter() - truth_started
    write_alignment_csv(alignment, table, params, args.out)
    metrics = {**fields, "wall_time_ms": (time.perf_counter() - started - truth_s) * 1000.0,
               **scores}
    _write_json(metrics, args.report)
    return EXIT_EXHAUSTED if alignment.exhausted else EXIT_OK


def _truth_present(path: str, table: SeriesTable) -> np.ndarray:
    """The (m, n) mask of the cells with a timestamp or a value in the truth
    CSV at ``path``, from which ``evaluation.same_row_groups`` builds its ids.

    The truth must have the input's series and rows.  Its cells are dropped
    on return, so one byte per cell stays alive through the stages that follow.
    """
    truth = ingest(path)
    if (truth.m, truth.n) != (table.m, table.n):
        raise StructuralError(
            f"{path}: truth has {truth.m} series of {truth.n} rows, "
            f"input has {table.m} series of {table.n} rows")
    return truth.timestamp_mask | truth.value_mask


def _group_counts(strategy: str, alignment: Alignment) -> dict:
    """The group counts of the final pass, for the strategies that run one."""
    if strategy not in ("greedy", "expect"):
        return {}
    return {"multi_member_groups": alignment.multi_member_groups,
            "largest_group": alignment.largest_group}


def _model_flags(report) -> dict:
    """The degenerate and fallback flags of a consistency report, series numbered from 1."""
    return {"degenerate_series": [j + 1 for j in report.degenerate_series],
            "all_missing": report.all_missing,
            "fallback_series": [j + 1 for j in report.fallback_series],
            "full_fallback": report.full_fallback}


def _write_json(payload, path: str) -> str:
    """Write ``payload`` as JSON to ``path`` unless it is empty, and return the text.

    It is serialised before the file is opened, so a value JSON cannot
    represent raises before anything is written.
    """
    text = json.dumps(payload, indent=2, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def _add_align_parser(sub) -> None:
    p = sub.add_parser("align", help="align one wide CSV of m series")
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="expect")
    p.add_argument("--theta", type=float)
    p.add_argument("--tune-theta", action="store_true")
    p.add_argument("--beta", type=int)
    p.add_argument("--tune-beta", action="store_true")
    p.add_argument("--delta", type=float)
    p.add_argument("--tune-delta", action="store_true")
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=int, default=16)
    p.add_argument("--beta-lower", type=int, default=0)
    p.add_argument("--truth")
    p.add_argument("--out", default="aligned.csv")
    p.add_argument("--report", default="report.json")


def _cmd_tune(args) -> int:
    if args.beta_lower < 0:
        raise ConfigError("--beta-lower must be at least 0")
    if args.k_max < 1:
        raise ConfigError("--k-max must be at least 1")
    if not 0 <= args.percentile <= 100:
        raise ConfigError("--percentile must lie in [0, 100]")
    table = ingest(args.input)
    theta, beta = tuning.determine_windows(table, percentile=args.percentile,
                                           beta_lower=args.beta_lower)
    rc = generate_candidates(table, ConstraintConfig(theta=theta, beta=beta))
    grid = [(k1, k2) for k1 in range(1, args.k_max + 1) for k2 in range(1, args.k_max + 1)]
    report = tuning.determine_weights_and_delta(
        rc, grid=grid, strategy=args.strategy, seed=args.seed)
    payload = {
        "theta": report.theta, "beta": report.beta, "delta": report.delta,
        "k1": report.k1, "k2": report.k2, "b": report.b, "c": report.c,
        "diagnostics": report.diagnostics,
    }
    _write_json(payload, args.report)
    print(f"theta={report.theta} beta={report.beta} delta={report.delta} "
          f"k1={report.k1} k2={report.k2}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    table, truth = evaluation.generate_synthetic(
        args.n, args.m, args.jitter, value_model=args.value_model,
        seed=args.seed, tick=args.tick)
    # a rate of 0 masks nothing; inject_mcar checks every rate, NaN included
    observed = evaluation.inject_mcar(table, args.rate, seed=args.seed + 1, target=args.target)
    write_table(observed, args.out)
    if args.truth_out:
        write_table(truth.table, args.truth_out)
    return EXIT_OK


def _cmd_score(args) -> int:
    truth = evaluation.GroundTruth.same_row(ingest(args.truth))
    lines, slots, cells, weight_sum = _read_alignment_csv(args.aligned, truth.table.m)
    precision, recall, f1 = evaluation.pair_accuracy(slots, truth)
    _check_cells(args.aligned, lines, slots, cells, truth.table)
    payload = {
        "precision": precision, "recall": recall, "f1": f1,
        "aligned_tuple_count": len(slots),
        "total_weight": weight_sum,
    }
    print(_write_json(payload, args.report))
    return EXIT_OK


def _read_alignment_csv(path: str, m: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The line numbers, (T, m) 0-based slots and (T, 2m) t/v cells of an
    aligned CSV's rows, and its weight sum.

    The records are read in blocks of ``BLOCK_ROWS``; each block's rows
    become arrays before the next block is read.  A row's cells are t_1,
    v_1, ..., t_m, v_m, NaN where the cell is empty.  A row whose index does
    not fit a 64-bit integer is malformed.  A weight that is not finite, or
    one that takes the sum past the largest float, is a DataError naming its
    line.
    """
    # one array per block, after an empty one for a file without rows
    lines, slots = [np.empty(0, np.intp)], [np.empty((0, m), np.intp)]
    cells = [np.empty((0, 2 * m))]
    total = 0.0
    lineno = 1
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if not header or len(header) != 3 * m + 3:
            raise DataError(f"{path}: expected an alignment CSV for {m} series")
        for records in _blocks(reader):
            block_lines, block_slots, block_cells = [], [], []
            for row in records:
                lineno += 1
                if not row:
                    continue
                try:
                    slot = [int(row[3 * k]) - 1 for k in range(m)]
                    if max(map(abs, slot)) >= 2 ** 63:
                        raise ValueError
                    block_slots.append(slot)
                    block_cells.append([float(row[3 * k + j]) if row[3 * k + j] else math.nan
                                        for k in range(m) for j in (1, 2)])
                    if row[3 * m]:
                        total += float(row[3 * m])
                except (ValueError, IndexError):
                    raise DataError(f"{path}:{lineno}: malformed alignment row") from None
                block_lines.append(lineno)
                if not math.isfinite(total):
                    # a nan or inf weight, or a sum past the largest float
                    raise DataError(f"{path}:{lineno}: weight {row[3 * m]!r} makes the "
                                    "weight sum non-finite")
            lines.append(np.array(block_lines, dtype=np.intp))
            slots.append(np.array(block_slots, dtype=np.intp).reshape(-1, m))
            cells.append(np.array(block_cells, dtype=float).reshape(-1, 2 * m))
    return np.concatenate(lines), np.concatenate(slots), np.concatenate(cells), total


def _check_cells(path: str, lines: np.ndarray, slots: np.ndarray,
                 cells: np.ndarray, table: SeriesTable) -> None:
    """DataError naming the first line with a present t/v cell that differs
    from the truth table's cell at that row's slot.

    The slots must lie inside the table, as ``evaluation.pair_accuracy`` checks.
    """
    m = table.m
    got = cells.reshape(-1, m, 2)
    series = np.arange(m)
    want = np.stack([table.timestamps[series, slots], table.values[series, slots]], axis=2)
    bad = ~np.isnan(got) & (got != want)
    rows = np.flatnonzero(bad.any(axis=(1, 2)))
    if rows.size:
        r = int(rows[0])
        k, j = divmod(int(np.flatnonzero(bad[r])[0]), 2)
        name = f"{'tv'[j]}_{k + 1}"
        raise DataError(f"{path}:{lines[r]}: {name} {float(got[r, k, j])!r} differs from "
                        f"the truth's {float(want[r, k, j])!r} at row {slots[r, k] + 1}; "
                        "is the truth that of the aligned input?")


def _cmd_bench(args) -> int:
    """Run the strategy x size x missing-rate matrix; print each run, then a summary.

    Each run masks the values of a synthetic table and runs ``run_pipeline``
    on it under ``BENCH_WEIGHTS``, theta at the 100th percentile if not given.
    Its row is n, m and the rate, then the fields of ``align``'s report, with
    ``wall_time_ms`` over the pipeline.  Every option is checked first.

    The summary has one line per (strategy, n, rate): the mean F1, aligned
    tuples and candidates over the seeds, the median ``wall_time_ms``, and
    from the second size on its growth factor over the previous size.
    """
    if args.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    for n in args.n:
        evaluation.check_synthetic(n, args.m, args.jitter, args.tick, args.seed)
    for rate in args.rates:
        evaluation.check_mcar(rate)
    ConstraintConfig(theta=0.0 if args.theta is None else args.theta,
                     beta=0 if args.beta is None else args.beta)
    rows, summary = [], []
    for strategy in args.strategies:
        previous = {}  # rate -> median wall time at the previous size
        for n in args.n:
            for rate in args.rates:
                runs = []
                for seed in range(args.seed, args.seed + args.seeds):
                    complete, truth = evaluation.generate_synthetic(
                        n, args.m, args.jitter, value_model=args.value_model, seed=seed,
                        tick=args.tick)
                    masked = evaluation.inject_mcar(complete, rate, seed=seed + 1)
                    started = time.perf_counter()
                    alignment, _, fields = run_pipeline(
                        masked, strategy, BENCH_WEIGHTS, theta=args.theta, beta=args.beta,
                        seed=seed, percentile=100.0)
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    sr = evaluation.score(alignment, truth)
                    row = {"n": n, "m": args.m, "rate": rate, **fields, "wall_time_ms": elapsed_ms,
                           "precision": sr.precision, "recall": sr.recall, "f1": sr.f1}
                    runs.append(row)
                    print(f"{strategy:7s} n={n} rate={rate:.2f} seed={seed} "
                          f"f1={row['f1']:.4f} tuples={row['aligned_tuple_count']} "
                          f"candidates={row['candidate_count']}")
                rows += runs
                median = statistics.median(r["wall_time_ms"] for r in runs)
                growth = f" x{median / previous[rate]:.2f}" if rate in previous else ""
                previous[rate] = median
                summary.append(
                    f"{strategy:7s} n={n} rate={rate:.2f} "
                    f"f1={statistics.mean(r['f1'] for r in runs):.4f} "
                    f"tuples={statistics.mean(r['aligned_tuple_count'] for r in runs):.1f} "
                    f"candidates={statistics.mean(r['candidate_count'] for r in runs):.1f} "
                    f"median_ms={median:.1f}{growth}")
    print("-- mean over seeds, median wall time")
    print("\n".join(summary))
    _write_json(rows, args.report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsalign",
        description="Constraint-based alignment of incomplete multivariate time series")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_align_parser(sub)

    p = sub.add_parser("tune", help="determine theta, beta, delta, k1, k2 from data")
    p.add_argument("--input", required=True)
    p.add_argument("--percentile", type=float, default=95.0)
    p.add_argument("--beta-lower", type=int, default=0)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--strategy", choices=STRATEGIES, default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default="tuning.json")

    p = sub.add_parser("synth", help="generate a synthetic benchmark table")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--jitter", type=float, default=2.5)
    p.add_argument("--tick", type=float, default=10.0)
    p.add_argument("--value-model", choices=("ar1", "sine", "walk"), default="ar1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--target", choices=("values", "timestamps", "both"), default="values")
    p.add_argument("--out", default="synthetic.csv")
    p.add_argument("--truth-out", default="")

    p = sub.add_parser("score", help="score an aligned CSV against a truth table")
    p.add_argument("--aligned", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--report", default="")

    p = sub.add_parser("bench", help="strategy x size x missing-rate benchmark matrix")
    p.add_argument("--n", type=int, nargs="+", default=[500])
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--jitter", type=float, default=2.5)
    p.add_argument("--tick", type=float, default=10.0)
    p.add_argument("--value-model", choices=("ar1", "sine", "walk"), default="ar1")
    p.add_argument("--theta", type=float)
    p.add_argument("--beta", type=int)
    p.add_argument("--rates", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategies", nargs="+", choices=STRATEGIES,
                   default=["greedy", "expect"])
    p.add_argument("--report", default="")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"align": run, "tune": _cmd_tune, "synth": _cmd_synth,
                "score": _cmd_score, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, StructuralError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SizeError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except AlignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

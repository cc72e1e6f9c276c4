"""Command-line interface: ingestion, pipeline orchestration, reporting.

Subcommands: align, tune, synth, score, bench.  Data files are wide CSVs
with header t_1,v_1,...,t_m,v_m where an empty cell means missing.

The data path works on blocks of ``BLOCK_ROWS`` rows, so it holds the
Python strings of one block at a time.  ``_blocks`` reads every CSV the
program reads, the input, the truth and the aligned CSV of ``score``, a
block of lines at a time, and splits each line on commas; from the first
block with a quote, a NUL or a line over csv's field size limit on,
``csv.reader`` reads the rest of the file; each block comes with the file
line each of its records starts on.  ``_cell_blocks``, the one cell parser
of every file, parses a block's cells in one pass of Python ``float`` and
scans row by row only a block with a defect, so several defects report the
first in file order.  ``ingest`` views each block as a (2, m, rows) array
of timestamps and values, checks them under the table rule at the end
and keeps the two halves of the joined blocks without a copy.
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
import os
import sys
import time
from dataclasses import asdict, replace
from itertools import chain, islice, repeat
from typing import Iterator, Optional, Sequence

import numpy as np

from . import composers, evaluation, tuning
from .candidate import CandidateSet, _sorted_unique, generate_candidates
from .composers import Alignment
from .core import ConstraintConfig, SeriesTable, WeightParams, _check_table, adopt, batch_weights
from .errors import AlignmentError, ConfigError, DataError, SizeError, StructuralError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SIZE = 4
EXIT_EXHAUSTED = 5

STRATEGIES = tuple(composers.STRATEGIES)

# records read, and rows formatted and written, per block, so the data path
# holds the Python strings of one block, never of the whole file.  The write
# runs at the peak of an align, after the compose, whose arrays leave no
# freed Python objects for the block's strings to reuse; 128 rows hold half
# the strings of 256, and read and write times are flat from 128 to 8192.
BLOCK_ROWS = 128

# the weights every ``bench`` run composes under
BENCH_WEIGHTS = WeightParams(3.0, 2.0, 1.0, 1.0)


@contextlib.contextmanager
def _csv_blocks(path: str):
    """The records of the CSV file at ``path``, as ``_blocks`` yields them.

    A leading byte-order mark is dropped.  A file that cannot be opened or is
    not UTF-8 text raises a DataError naming the file.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            yield _blocks(fh, path)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                            f"{exc.reason})") from None


def _blocks(fh, path: str) -> Iterator[tuple[list[list[str]], Sequence[int]]]:
    """The records ``csv.reader`` reads from ``fh``, opened with ``newline=""``,
    each block with the file line each of its records starts on: the first
    record in a block of its own, then blocks of at most ``BLOCK_ROWS``.

    With ``newline=""`` the file's lines end where csv's records do, at
    ``\\n``, ``\\r\\n`` or a lone ``\\r``, so a block of lines is split by
    stripping each line's terminator and splitting it on commas; an empty
    line is the blank record ``[]``, and the block's lines are a ``range``.
    A block with a quote (a quoted field may span lines), a NUL (which csv
    reads by rules of its own) or a line longer than
    ``csv.field_size_limit()`` is read by ``csv.reader`` instead, and so is
    the rest of the file.  A record csv cannot read raises a DataError naming
    its file line, but only after the records before it have been yielded,
    so a defect in them is still the first one reported.
    """
    limit = csv.field_size_limit()
    size, read = 1, 0  # the records of the next block, and the lines before it
    while True:
        lines = list(islice(fh, size))
        if not lines:
            return
        text = "".join(lines)
        if '"' in text or "\0" in text or max(map(len, lines)) > limit:
            break
        yield ([line.split(",") if line else []
                for line in map(str.rstrip, lines, repeat("\r\n"))],
               range(read + 1, read + 1 + len(lines)))
        size, read = BLOCK_ROWS, read + len(lines)
    reader = csv.reader(chain(lines, fh))
    while True:
        block, starts, error = [], [], None
        start = read + reader.line_num + 1  # the line the next record starts on
        try:
            for row in islice(reader, size):
                block.append(row)
                starts.append(start)
                start = read + reader.line_num + 1
        except csv.Error as exc:
            error = DataError(f"{path}:{read + reader.line_num}: {exc}")
        if block:
            yield block, starts
        if error is not None:
            raise error
        if not block:
            return
        size = BLOCK_ROWS


def _cell_blocks(blocks, path: str, width: int) -> Iterator[tuple[Sequence[int], np.ndarray]]:
    """The file lines and (rows, width) cells of the non-blank records of
    ``_blocks``, a block at a time, under the one cell rule of every CSV read:
    a blank cell, or a cell of blanks, is missing (NaN), and any other cell
    must be a finite Python ``float``.  In a block ``_parse_cells`` rejects,
    the rows before its first defect are yielded, then the defect is raised
    at its line, so a reader that checks each block finds the first in file
    order."""
    for records, lines in blocks:
        if not all(records):
            lines = [line for row, line in zip(records, lines) if row]
            records = list(filter(None, records))
        cells = _parse_cells(records, width)
        if cells is None:
            row, message = _first_defect(records, width)
            if row:
                yield lines[:row], _parse_cells(records[:row], width)
            raise DataError(f"{path}:{lines[row]}: {message}")
        yield lines, cells


def _header(m: int, aligned: bool = False) -> list[str]:
    """The header of a table CSV of ``m`` series, t_1,v_1,...,t_m,v_m, or of
    an aligned CSV: idx_k,t_k,v_k per series, then weight,theta_sim,phi_sim."""
    names = ("idx", "t", "v") if aligned else ("t", "v")
    header = [f"{name}_{k + 1}" for k in range(m) for name in names]
    return header + ["weight", "theta_sim", "phi_sim"] if aligned else header


def ingest(path: str) -> SeriesTable:
    """Parse a wide CSV into a SeriesTable, with line-numbered diagnostics.

    The cells come from ``_cell_blocks`` in blocks of ``BLOCK_ROWS``, each
    viewed as its (2, m, rows) timestamps and values.  Once every block has
    parsed, the table rule runs on whole columns, naming an out-of-order
    timestamp by its file line, and the table is handed the contiguous halves
    of the joined blocks without the copy of ``SeriesTable(...)``.
    """
    with _csv_blocks(path) as blocks:
        first = next(blocks, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        header = first[0][0]  # a blank first record fails the header check
        m, rem = divmod(len(header), 2)
        if rem or m < 2 or [h.strip() for h in header] != _header(m):
            raise DataError(f"{path}: header must be t_1,v_1,...,t_m,v_m with m >= 2")
        parts = [np.empty((2, m, 0))]  # the (2, m, rows) cells of each block
        spans = []  # the file lines of each block's rows, as ``_blocks`` yields them
        for lines, cells in _cell_blocks(blocks, path, 2 * m):
            parts.append(cells.reshape(-1, m, 2).transpose(2, 1, 0))
            spans.append(lines)
    # the timestamps and values are the contiguous halves of one array
    cells = np.concatenate(parts, axis=2)
    del parts
    cells.setflags(write=False)
    ts, vs = cells
    _check_table(ts, vs, f"{path}: ", lambda: list(chain.from_iterable(spans)))
    return adopt(SeriesTable, timestamps=ts, values=vs)


def _parse_cells(records: list[list[str]], width: int) -> Optional[np.ndarray]:
    """The (rows, width) cells of a block of non-blank records, in one pass
    of Python ``float`` over its cells (NaN for a blank cell), or None if a
    row does not have ``width`` cells or a cell is not a number or not finite.

    A block ``float`` rejects is parsed once more with every cell stripped,
    as a cell of blanks is missing too.
    """
    if not set(map(len, records)) <= {width}:
        return None
    cells = list(chain.from_iterable(records))
    for attempt in range(2):
        if attempt:
            cells = [cell.strip() for cell in cells]
        try:
            x = np.fromiter(map(float, [cell or "nan" for cell in cells]), float, len(cells))
        except ValueError:
            continue
        # a blank cell parses to NaN; any other cell that is not finite is a defect
        if len(cells) - np.count_nonzero(np.isfinite(x)) != cells.count(""):
            return None
        return x.reshape(-1, width)
    return None


def _first_defect(records: list[list[str]], width: int) -> Optional[tuple[int, str]]:
    """The first defect of a block of non-blank records in file order, as
    (row, message): a row without ``width`` cells, a cell that is not a
    number, or a present cell that is not finite.  None if the block has none."""
    for row, record in enumerate(records):
        if len(record) != width:
            return row, f"expected {width} cells, got {len(record)}"
        for cell in map(str.strip, record):
            if not cell:
                continue
            try:
                x = float(cell)
            except ValueError:
                return row, f"not a number: {cell!r}"
            if not math.isfinite(x):
                return row, (f"not a finite number: {cell!r} "
                             "(leave the cell empty to mark it missing)")
    return None


def write_table(table: SeriesTable, path: str) -> None:
    """Inverse of ingest: write a SeriesTable as a wide CSV."""
    columns = list(chain.from_iterable(zip(table.timestamps, table.values)))
    _write_rows(_header(table.m), columns, path)


def write_alignment_csv(alignment: Alignment, table: SeriesTable,
                        params: WeightParams, path: str) -> None:
    """One row per tuple: 1-based row index, timestamp, value per series, then W/theta/phi.

    Rows follow the tuples' slot order.  The cells of all tuples are gathered
    with one index into the table into numeric columns, which ``_write_rows``
    formats: a missing cell (or a theta_sim over fewer than two timestamps)
    as an empty cell.  A weight is fixed by the tuple's (p, d), so the weight
    column holds few distinct values, and each is formatted once.
    """
    m = table.m
    slots = alignment.slots.reshape(-1, m)
    slots = slots[np.lexsort(slots.T[::-1])]
    series = np.arange(m)
    ts = table.timestamps[series, slots]
    vs = table.values[series, slots]
    columns = [x for k in range(m) for x in (slots[:, k] + 1, ts[:, k], vs[:, k])]
    columns += [_format_distinct(batch_weights(table, slots, params)), _theta_sims(ts),
                slots.max(axis=1) - slots.min(axis=1)]
    _write_rows(_header(m, aligned=True), columns, path)


def _theta_sims(ts: np.ndarray) -> np.ndarray:
    """The theta_sim of each row of the (rows, m) timestamps ``ts``: its
    largest present timestamp minus its smallest, NaN with fewer than two,
    inf where the difference overflows."""
    present = ~np.isnan(ts)
    hi = np.where(present, ts, -np.inf).max(axis=1)
    lo = np.where(present, ts, np.inf).min(axis=1)
    with np.errstate(over="ignore"):
        return np.where(present.sum(axis=1) >= 2, hi - lo, np.nan)


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
    with _open_output(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, BLOCK_ROWS):
            cells = [_format_column(x[start:start + BLOCK_ROWS]) for x in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _format_distinct(x: np.ndarray) -> np.ndarray:
    """The cells ``_format_column`` makes of the floats ``x``, as an object
    array that shares one string per distinct value.

    The values are told apart by their bits, as ``repr`` tells them apart.
    """
    bits = x.view(np.int64)
    keys = _sorted_unique(bits)
    return np.array(_format_column(keys.view(float)), dtype=object)[np.searchsorted(keys, bits)]


def _format_column(x: np.ndarray) -> list[str]:
    """``repr`` of every number of ``x``, and an empty string for NaN; the
    cells of an array of strings as they are."""
    if x.dtype == object:
        return x.tolist()
    out = list(map(repr, x.tolist()))
    for i in np.flatnonzero(np.isnan(x)).tolist():
        out[i] = ""
    return out


def _configure(table: SeriesTable, strategy: str, params: WeightParams, *,
               theta: Optional[float] = None, beta: Optional[int] = None,
               delta: float = math.inf, grid=None, seed: int = 0, percentile: float = 95.0,
               beta_lower: int = 0) -> tuple[CandidateSet, tuning.TuningReport]:
    """The stages before the compose, shared by ``align``, ``bench`` and ``tune``: tune each
    window not given (theta at ``percentile``), generate the candidate set, and tune delta
    and (k1, k2) over ``grid`` if given.  Returns the set and the configuration to compose
    it under, which holds ``delta`` and ``params`` as given when there is no grid."""
    theta, beta = tuning.determine_windows(table, theta, beta, percentile=percentile,
                                           beta_lower=beta_lower)
    # the tuning grid and the final compose share this set; each reads delta
    # from the constraint it is given
    rc = generate_candidates(table, ConstraintConfig(theta=theta, beta=beta))
    if grid is None:
        return rc, tuning.TuningReport(replace(rc.config, delta=delta), params)
    return rc, tuning.determine_weights_and_delta(rc, params, grid=grid, strategy=strategy,
                                                  seed=seed)


def run_pipeline(table: SeriesTable, strategy: str, params: WeightParams, *, seed: int = 0,
                 max_retries: int = composers.DEFAULT_MAX_RETRIES, **options
                 ) -> tuple[Alignment, WeightParams, dict]:
    """The stages of ``align`` and ``bench``: ``_configure``'s under ``options``, then the
    compose under the configuration it returns.  Returns the alignment, its weights and the
    report's deterministic fields; the candidate set is freed on return, before scoring."""
    rc, tuned = _configure(table, strategy, params, seed=seed, **options)
    cfg, params = tuned.config, tuned.weights
    alignment = composers.compose(strategy, rc, cfg, params, seed=seed, max_retries=max_retries)
    fields = {
        "strategy": strategy,
        "theta": None if math.isinf(cfg.theta) else cfg.theta,
        "beta": cfg.beta,
        "delta": None if math.isinf(cfg.delta) else cfg.delta,
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
                        "segments": len(rc.segment_bounds) - 1,
                        **{key: count for key, count in tuned.diagnostics.items()
                           if key.startswith("grid_")},
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
    _check_outputs(args, "out", "report", inputs=("input", "truth"))
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
        with _open_output(path) as fh:
            fh.write(text + "\n")
    return text


# the files opened for writing by the command ``main`` runs; None outside ``main``
_written: Optional[list[str]] = None


def _open_output(path: str, newline: Optional[str] = None):
    """``path`` opened for writing UTF-8 text; an OSError is a ConfigError.

    Within ``main`` the file is listed in ``_written``, and a file that
    cannot be opened first removes the ones listed: a command that cannot
    write one of its outputs leaves none of them.
    """
    try:
        fh = open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        for done in _written or ():
            with contextlib.suppress(OSError):
                os.remove(done)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    if _written is not None:
        _written.append(path)
    return fh


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file: by ``os.path.samefile`` if
    both exist, else by their real paths."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args, *dests: str, inputs: Sequence[str] = ()) -> None:
    """ConfigError naming the option unless each output option ``dests`` of ``args``
    names a file to write, not a directory, in a directory that exists, and not
    the file of another output or of an input option ``inputs`` (that error
    names both options).  An empty ``--out`` is an error; an empty ``--report``
    or ``--truth-out`` writes nothing.  Each command calls it before it reads
    or writes a file."""
    named = [("--" + dest.replace("_", "-"), getattr(args, dest)) for dest in (*dests, *inputs)]
    for i, (option, path) in enumerate(named[:len(dests)]):
        if not path:
            if option == "--out":
                raise ConfigError(f"{option} must name a file")
        elif os.path.isdir(path):
            raise ConfigError(f"{option} {path}: is a directory")
        elif not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{option} {path}: no directory {os.path.dirname(path)}")
        else:
            for other, given in named[i + 1:]:
                if given and _same_file(path, given):
                    raise ConfigError(f"{option} {path}: the same file as {other} {given}")


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
    p.add_argument("--max-retries", type=int, default=composers.DEFAULT_MAX_RETRIES)
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
    _check_outputs(args, "report", inputs=("input",))
    table = ingest(args.input)
    grid = [(k1, k2) for k1 in range(1, args.k_max + 1) for k2 in range(1, args.k_max + 1)]
    _, report = _configure(table, args.strategy, WeightParams(), grid=grid, seed=args.seed,
                           percentile=args.percentile, beta_lower=args.beta_lower)
    payload = {**asdict(report.config), **asdict(report.weights)}
    _write_json({**payload, "diagnostics": report.diagnostics}, args.report)
    print(" ".join(f"{key}={payload[key]}" for key in ("theta", "beta", "delta", "k1", "k2")))
    return EXIT_OK


def _cmd_synth(args) -> int:
    _check_outputs(args, "out", "truth_out")
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
    _check_outputs(args, "report", inputs=("aligned", "truth"))
    truth = evaluation.GroundTruth.same_row(ingest(args.truth))
    lines, slots, cells, sims, weight_sum = _read_alignment_csv(args.aligned, truth.table.m)
    _check_rows(args.aligned, lines, slots, cells, sims)
    _check_cells(args.aligned, lines, slots, cells, truth.table)
    precision, recall, f1 = evaluation.pair_accuracy(slots, truth)
    payload = {
        "precision": precision, "recall": recall, "f1": f1,
        "aligned_tuple_count": len(slots),
        "total_weight": weight_sum,
    }
    print(_write_json(payload, args.report))
    return EXIT_OK


def _read_alignment_csv(path: str, m: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The line numbers, (T, m) 0-based slots, (T, 2m) t/v cells and (T, 2)
    theta_sim/phi_sim cells of an aligned CSV's rows, and its weight sum.

    The header must be the one ``write_alignment_csv`` writes for ``m``
    series, and the cells come from ``_cell_blocks``; a row's t/v cells are
    t_1, v_1, ..., t_m, v_m, NaN where missing, as are blank theta_sim and
    phi_sim cells.  On each block's floats, in file order: an index that is
    not a present whole number below 2^63 in magnitude makes its row
    malformed, and a weight (a missing one adds 0.0) that takes the sum past
    the largest float is a DataError at its line.
    """
    tv = [3 * k + j for k in range(m) for j in (1, 2)]
    # one array per block, after an empty one for a file without rows
    lines, slots = [np.empty(0, np.intp)], [np.empty((0, m), np.intp)]
    cells, sims = [np.empty((0, 2 * m))], [np.empty((0, 2))]
    total = 0.0
    with _csv_blocks(path) as blocks:
        header = next(blocks, ([[]],))[0][0]
        if [h.strip() for h in header] != _header(m, aligned=True):
            raise DataError(f"{path}: expected an alignment CSV for {m} series")
        for block_lines, x in _cell_blocks(blocks, path, 3 * m + 3):
            idx = x[:, :3 * m:3]
            # one sequential sum from the running total, as a row-by-row loop adds
            with np.errstate(over="ignore"):
                sums = np.cumsum(np.append(total, np.nan_to_num(x[:, 3 * m])))
            total = float(sums[-1])
            malformed = ~((idx == np.floor(idx)) & (np.abs(idx) < 2.0 ** 63)).all(axis=1)
            defects = np.flatnonzero(malformed | ~np.isfinite(sums[1:]))
            if defects.size:
                r = defects[0]
                raise DataError(f"{path}:{block_lines[r]}: " + (
                    "malformed alignment row" if malformed[r] else
                    f"weight {float(x[r, 3 * m])!r} makes the weight sum non-finite"))
            lines.append(np.array(block_lines, dtype=np.intp))
            slots.append(idx.astype(np.intp) - 1)
            cells.append(x[:, tv])
            sims.append(x[:, 3 * m + 1:])
    return (np.concatenate(lines), np.concatenate(slots), np.concatenate(cells),
            np.concatenate(sims), total)


def _check_rows(path: str, lines: np.ndarray, slots: np.ndarray, cells: np.ndarray,
                sims: np.ndarray) -> None:
    """DataError naming the first line, in file order, whose row is not one of
    an alignment as ``write_alignment_csv`` writes it.

    Its index in some series repeats an earlier row's (the two rows share a
    cell), its phi_sim is not its largest index minus its smallest, the
    spread of its present t cells overflows a float, or its theta_sim is not
    that spread, computed as the writer computes it, or is not blank with
    fewer than two present.  The weight is not checked: it needs the run's
    k1 and k2.
    """
    m = slots.shape[1]
    repeats = np.zeros(len(slots), dtype=bool)
    for k in range(m):
        order = np.argsort(slots[:, k], kind="stable")
        ordered = slots[order, k]
        # the stable order keeps equal indices in file order: all but the first repeat
        repeats[order[1:][ordered[1:] == ordered[:-1]]] = True
    spread = slots.max(axis=1) - slots.min(axis=1)
    theta = _theta_sims(cells[:, ::2])
    theta_ok = (sims[:, 0] == theta) | (np.isnan(sims[:, 0]) & np.isnan(theta))
    bad = np.flatnonzero(repeats | (sims[:, 1] != spread) | ~theta_ok)
    if not bad.size:
        return
    r = int(bad[0])
    where = f"{path}:{lines[r]}: "
    if repeats[r]:
        k = next(k for k in range(m) if (slots[:r, k] == slots[r, k]).any())
        first = int(np.flatnonzero(slots[:r, k] == slots[r, k])[0])
        raise DataError(where + f"idx_{k + 1} {slots[r, k] + 1} is also on line {lines[first]}: "
                        "two rows share a cell")
    got, want = float(sims[r, 1]), int(spread[r])
    if got != want:
        raise DataError(where + (f"phi_sim {got!r} is not {want}" if got == got else
                                 f"phi_sim is blank, not {want}")
                        + ", the row's largest index minus its smallest")
    got, want = float(sims[r, 0]), float(theta[r])
    if math.isinf(want):
        t = cells[r, ::2]
        lo, hi = int(np.nanargmin(t)), int(np.nanargmax(t))
        raise DataError(where + f"t_{lo + 1} {float(t[lo])!r} and t_{hi + 1} {float(t[hi])!r} "
                        "span more than a float can hold")
    if want != want:
        raise DataError(where + f"theta_sim {got!r} must be blank: the row has fewer "
                        "than two present t cells")
    raise DataError(where + (f"theta_sim {got!r} is not {want!r}" if got == got else
                             f"theta_sim is blank, not {want!r}")
                    + ", the spread of the row's present t cells")


def _check_cells(path: str, lines: np.ndarray, slots: np.ndarray,
                 cells: np.ndarray, table: SeriesTable) -> None:
    """DataError naming the first line with an index outside the truth
    table's rows, or else the first with a present t/v cell that differs
    from the truth table's cell at that row's slot.
    """
    m, n = table.m, table.n
    outside = (slots < 0) | (slots >= n)
    rows = np.flatnonzero(outside.any(axis=1))
    if rows.size:
        r = int(rows[0])
        k = int(np.flatnonzero(outside[r])[0])
        raise DataError(f"{path}:{lines[r]}: idx_{k + 1} {slots[r, k] + 1} is outside "
                        f"the truth's rows 1..{n}")
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
    ``wall_time_ms`` over the pipeline.  Every option is checked first.  A
    run that hits a size guard ends the matrix, and the rows of the runs
    before it are written to ``--report`` before the guard is reported.

    The summary has one line per (strategy, n, rate): the mean F1, aligned
    tuples and candidates over the seeds, the median ``wall_time_ms``, and
    from the second size on its growth factor over the previous size.
    """
    import statistics  # here, so the other commands do not load it

    if args.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    for n in args.n:
        evaluation.check_synthetic(n, args.m, args.jitter, args.tick, args.seed)
    for rate in args.rates:
        evaluation.check_mcar(rate)
    ConstraintConfig(theta=0.0 if args.theta is None else args.theta,
                     beta=0 if args.beta is None else args.beta)
    _check_outputs(args, "report")
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
                    try:
                        alignment, _, fields = run_pipeline(
                            masked, strategy, BENCH_WEIGHTS, theta=args.theta, beta=args.beta,
                            seed=seed, percentile=100.0)
                    except SizeError:
                        # keep the runs that finished; ``main`` reports the guard
                        _write_json(rows + runs, args.report)
                        raise
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
    global _written
    _written = []
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
    finally:
        _written = None


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

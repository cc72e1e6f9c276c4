"""Command-line interface: ingestion, pipeline orchestration, reporting.

Subcommands: align, tune, synth, score, bench.  Data files are wide CSVs
with header t_1,v_1,...,t_m,v_m where an empty cell means missing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import composers, evaluation, tuning
from .candidate import generate_candidates
from .composers import Alignment
from .consistency import ConsistencyReport
from .core import (
    AlignedTuple,
    ConstraintConfig,
    SeriesTable,
    WeightParams,
    phi_similarity,
    theta_similarity,
)
from .core import weight as tuple_weight
from .errors import AlignmentError, ConfigError, DataError, SizeError, StructuralError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SIZE = 4
EXIT_EXHAUSTED = 5

STRATEGIES = tuple(composers.STRATEGIES)


@dataclass
class RunConfig:
    input_path: str
    strategy: str = "expect"
    theta: Optional[float] = None
    tune_theta: bool = False
    beta: Optional[int] = None
    tune_beta: bool = False
    delta: Optional[float] = None
    tune_delta: bool = False
    k1: Optional[float] = None
    k2: Optional[float] = None
    b: float = 1.0
    c: float = 1.0
    seed: int = 0
    max_retries: int = 16
    beta_lower: int = 0
    truth_path: Optional[str] = None
    out_path: str = "aligned.csv"
    report_path: str = "report.json"

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if (self.theta is None) == (not self.tune_theta):
            raise ConfigError("pass exactly one of --theta or --tune-theta")
        if (self.beta is None) == (not self.tune_beta):
            raise ConfigError("pass exactly one of --beta or --tune-beta")
        if self.delta is not None and self.tune_delta:
            raise ConfigError("pass at most one of --delta or --tune-delta")


def ingest(path: str) -> SeriesTable:
    """Parse a wide CSV into a SeriesTable, with line-numbered diagnostics."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise DataError(f"{path}: empty file")
        m, rem = divmod(len(header), 2)
        expected = [f"t_{k + 1}" if i % 2 == 0 else f"v_{k + 1}"
                    for k in range(m) for i in range(2)]
        if rem or m < 2 or [h.strip() for h in header] != expected:
            raise DataError(f"{path}: header must be t_1,v_1,...,t_m,v_m with m >= 2")
        ts_cols: list[list[Optional[float]]] = [[] for _ in range(m)]
        v_cols: list[list[Optional[float]]] = [[] for _ in range(m)]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 * m:
                raise DataError(f"{path}:{lineno}: expected {2 * m} cells, got {len(row)}")
            for k in range(m):
                ts_cols[k].append(_parse_cell(row[2 * k], path, lineno))
                v_cols[k].append(_parse_cell(row[2 * k + 1], path, lineno))
    bad = []
    for k in range(m):
        prev = None
        for i, x in enumerate(ts_cols[k]):
            if x is None:
                continue
            if prev is not None and x <= prev:
                bad.append(f"series {k + 1} line {i + 2}")
            prev = x
    if bad:
        raise DataError(f"{path}: timestamps not strictly increasing at " + ", ".join(bad))
    return SeriesTable.from_columns(list(zip(ts_cols, v_cols)))


def _parse_cell(cell: str, path: str, lineno: int) -> Optional[float]:
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


def write_table(table: SeriesTable, path: str) -> None:
    """Inverse of ingest: write a SeriesTable as a wide CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{p}_{k + 1}" for k in range(table.m) for p in ("t", "v")])
        for i in range(table.n):
            row = []
            for k in range(table.m):
                row.append(_format_cell(table.timestamps[k, i]))
                row.append(_format_cell(table.values[k, i]))
            writer.writerow(row)


def _format_cell(x: float) -> str:
    return "" if x != x else repr(float(x))


def write_alignment_csv(alignment: Alignment, table: SeriesTable,
                        params: WeightParams, path: str) -> None:
    """One row per tuple: 1-based row index, timestamp, value per series, then W/theta/phi."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = []
        for k in range(table.m):
            header += [f"idx_{k + 1}", f"t_{k + 1}", f"v_{k + 1}"]
        writer.writerow(header + ["weight", "theta_sim", "phi_sim"])
        for r in sorted(alignment.tuples):
            row = []
            for k, slot in enumerate(r.slots):
                row += [str(slot + 1),
                        _format_cell(table.timestamps[k, slot]),
                        _format_cell(table.values[k, slot])]
            th = theta_similarity(r, table)
            row += [repr(float(tuple_weight(r, table, params))),
                    "" if th is None else repr(float(th)),
                    str(phi_similarity(r))]
            writer.writerow(row)


def run(cfg: RunConfig) -> int:
    """Full pipeline: ingest, tune, generate, compose, score, write artifacts."""
    cfg.validate()
    started = time.perf_counter()
    table = ingest(cfg.input_path)
    theta = cfg.theta if cfg.theta is not None else tuning.determine_theta(table)
    beta = cfg.beta if cfg.beta is not None else tuning.determine_beta(
        table, theta, beta_lower=cfg.beta_lower)
    k1 = 1.0 if cfg.k1 is None else cfg.k1
    k2 = 1.0 if cfg.k2 is None else cfg.k2
    if cfg.tune_delta:
        # explicit weights narrow the search to a single grid point
        grid = ([(k1, k2)] if cfg.k1 is not None and cfg.k2 is not None
                else tuning.DEFAULT_GRID)
        report = tuning.determine_weights_and_delta(
            table, theta, beta, grid=grid, strategy=cfg.strategy, seed=cfg.seed)
        delta, k1, k2 = report.delta, report.k1, report.k2
    else:
        delta = cfg.delta if cfg.delta is not None else math.inf
    params = WeightParams(k1=k1, k2=k2, b=cfg.b, c=cfg.c)
    constraint = ConstraintConfig(theta=theta, beta=beta, delta=delta)
    rc = generate_candidates(table, constraint)
    alignment = composers.compose(cfg.strategy, rc, constraint, table, params,
                                  seed=cfg.seed, max_retries=cfg.max_retries)
    write_alignment_csv(alignment, table, params, cfg.out_path)

    metrics = {
        "strategy": cfg.strategy,
        "theta": theta,
        "beta": beta,
        "delta": None if math.isinf(delta) else delta,
        "k1": k1, "k2": k2, "b": cfg.b, "c": cfg.c,
        "seed": cfg.seed,
        "candidate_count": len(rc),
        "aligned_tuple_count": len(alignment.tuples),
        "total_weight": alignment.total_weight,
        "delta_score": alignment.report.delta,
        "retries_used": alignment.retries_used,
        "exhausted": alignment.exhausted,
        "wall_time_ms": (time.perf_counter() - started) * 1000.0,
    }
    if cfg.truth_path:
        truth = evaluation.GroundTruth.same_row(ingest(cfg.truth_path))
        sr = evaluation.score(alignment, truth)
        metrics["precision"] = sr.precision
        metrics["recall"] = sr.recall
        metrics["f1"] = sr.f1
    _write_json(metrics, cfg.report_path)
    return EXIT_EXHAUSTED if alignment.exhausted else EXIT_OK


def _write_json(payload, path: str) -> None:
    """Write ``payload`` as JSON; it is serialised before the file is opened, so a
    value JSON cannot represent raises before anything is written."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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


def _cmd_align(args) -> int:
    cfg = RunConfig(
        input_path=args.input, strategy=args.strategy,
        theta=args.theta, tune_theta=args.tune_theta,
        beta=args.beta, tune_beta=args.tune_beta,
        delta=args.delta, tune_delta=args.tune_delta,
        k1=args.k1, k2=args.k2, b=args.b, c=args.c,
        seed=args.seed, max_retries=args.max_retries, beta_lower=args.beta_lower,
        truth_path=args.truth, out_path=args.out, report_path=args.report)
    return run(cfg)


def _cmd_tune(args) -> int:
    table = ingest(args.input)
    theta = tuning.determine_theta(table, percentile=args.percentile)
    beta = tuning.determine_beta(table, theta, beta_lower=args.beta_lower)
    grid = [(k1, k2) for k1 in range(1, args.k_max + 1) for k2 in range(1, args.k_max + 1)]
    report = tuning.determine_weights_and_delta(
        table, theta, beta, grid=grid, strategy=args.strategy, seed=args.seed)
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
    observed = table
    if args.rate > 0:
        observed = evaluation.inject_mcar(table, args.rate, seed=args.seed + 1,
                                          target=args.target)
    write_table(observed, args.out)
    if args.truth_out:
        write_table(truth.table, args.truth_out)
    return EXIT_OK


def _cmd_score(args) -> int:
    truth = evaluation.GroundTruth.same_row(ingest(args.truth))
    tuples, weight_sum = _read_alignment_csv(args.aligned, truth.table.m)
    placeholder = ConsistencyReport(np.zeros(0), np.zeros(0), 0.0,
                                    np.zeros((0, 0)), (), True)
    alignment = Alignment(tuples=tuples, total_weight=weight_sum,
                          report=placeholder, strategy="from-file")
    report = evaluation.score(alignment, truth)
    payload = {
        "precision": report.precision, "recall": report.recall, "f1": report.f1,
        "aligned_tuple_count": report.aligned_tuple_count,
        "total_weight": report.total_weight,
    }
    out = json.dumps(payload, indent=2, allow_nan=False)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    print(out)
    return EXIT_OK


def _read_alignment_csv(path: str, m: int):
    tuples = []
    total = 0.0
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) != 3 * m + 3:
            raise DataError(f"{path}: expected an alignment CSV for {m} series")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                slots = tuple(int(row[3 * k]) - 1 for k in range(m))
                if row[3 * m]:
                    total += float(row[3 * m])
            except (ValueError, IndexError):
                raise DataError(f"{path}:{lineno}: malformed alignment row") from None
            tuples.append(AlignedTuple(slots))
    return tuple(tuples), total


def _cmd_bench(args) -> int:
    rows = []
    for strategy in args.strategies:
        for rate in args.rates:
            for s in range(args.seeds):
                row = evaluation.benchmark_alignment(
                    args.n, args.m, args.jitter, rate, strategy, args.seed + s,
                    tick=args.tick, value_model=args.value_model)
                rows.append(row)
                print(f"{strategy:7s} rate={rate:.2f} seed={args.seed + s} "
                      f"f1={row['f1']:.4f} tuples={row['aligned_tuple_count']} "
                      f"candidates={row['candidate_count']}")
    if args.report:
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

    p = sub.add_parser("bench", help="strategy x missing-rate benchmark matrix")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--jitter", type=float, default=2.5)
    p.add_argument("--tick", type=float, default=10.0)
    p.add_argument("--value-model", choices=("ar1", "sine", "walk"), default="ar1")
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
    handlers = {"align": _cmd_align, "tune": _cmd_tune, "synth": _cmd_synth,
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

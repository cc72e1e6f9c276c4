"""The benchmark's workloads and the set-up that writes their input files.

Every workload is a synthetic table from ``generate_synthetic`` (jitter 4.0,
tick 10) with MCAR gaps from ``inject_mcar``, aligned with ``--tune-theta
--tune-beta --truth``.  The run's seed drives ``generate_synthetic``, so
timestamps and values change with it.  The missingness mask comes from a
fixed seed: at these sizes the number of candidates is set by where masked
timestamps happen to cluster, and a seed-drawn mask gave the candidate count
a quartile spread of 15-22 % over ten seeds (n=500, m=4 and n=160, m=6 with
20-30 % of timestamps missing), more than a performance bound should absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from tsalign import cli, evaluation
from tsalign.core import SeriesTable

JITTER = 4.0
TICK = 10.0
MASK_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    rate: float
    target: str
    align_args: tuple[str, ...]


# The reason for each workload is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("long_values", 8000, 4, 0.2, "values",
             ("--strategy", "expect", "--k1", "3", "--k2", "2")),
    Workload("dense_expect", 300, 4, 0.2, "both",
             ("--strategy", "expect", "--k1", "3", "--k2", "2")),
    Workload("tuned_delta", 1000, 4, 0.2, "values",
             ("--strategy", "greedy", "--tune-delta")),
)}


def make_inputs(w: Workload, seed: int, workdir: Path, n: int | None = None) -> SeriesTable:
    """Write ``data.csv`` and ``truth.csv`` into ``workdir``; return the observed table."""
    table, truth = evaluation.generate_synthetic(n or w.n, w.m, JITTER, seed=seed, tick=TICK)
    observed = evaluation.inject_mcar(table, w.rate, seed=MASK_SEED, target=w.target)
    cli.write_table(observed, str(workdir / "data.csv"))
    cli.write_table(truth.table, str(workdir / "truth.csv"))
    return observed


def align_argv(w: Workload, workdir: Path) -> list[str]:
    return ["align", "--input", str(workdir / "data.csv"),
            "--truth", str(workdir / "truth.csv"),
            "--tune-theta", "--tune-beta", *w.align_args,
            "--out", str(workdir / "aligned.csv"),
            "--report", str(workdir / "report.json")]

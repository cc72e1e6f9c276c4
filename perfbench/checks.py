"""Checks on the artifacts of one ``align`` invocation, and the determinism guard.

The checks recompute what they need from the benchmark's own copy of the
input table, so a defect in the program's helpers cannot hide itself:
pairwise conflicts (``core.conflicts``: two tuples share a row of some
series), the theta and beta windows (``core.theta_similarity`` and
``core.phi_similarity``), the tuple weights and the pair-level F1 are all
recomputed with numpy here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# fields that criterion 13 requires to repeat exactly, plus the CSV digest
GUARDED = ("candidate_count", "aligned_tuple_count", "total_weight", "f1", "retries_used")


@dataclass
class Outcome:
    problems: list[str]
    report: dict | None = None
    fingerprint: tuple | None = None


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def read_aligned(path: Path, table) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Return 0-based slots (T, m), the raw cells and the weight column."""
    m = table.m
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = [f"{p}_{k + 1}" for k in range(m) for p in ("idx", "t", "v")]
    if not rows or rows[0] != header + ["weight", "theta_sim", "phi_sim"]:
        raise ValueError("aligned CSV header is not idx_k,t_k,v_k...,weight,theta_sim,phi_sim")
    body = rows[1:]
    if any(len(r) != 3 * m + 3 for r in body):
        raise ValueError("aligned CSV row with the wrong number of cells")
    slots = np.array([[int(r[3 * k]) - 1 for k in range(m)] for r in body],
                     dtype=np.int64).reshape(len(body), m)
    weights = np.array([float(r[3 * m]) for r in body])
    return slots, body, weights


def _cell(x: float) -> str:
    return "" if x != x else repr(float(x))


def check_invocation(exit_code: int, workdir: Path, table) -> Outcome:
    """Run every check; an empty ``problems`` list means the invocation passed."""
    if exit_code != 0:
        return Outcome([f"align exited with code {exit_code}"])
    try:
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"),
                            parse_constant=_reject_constant)
        raw = (workdir / "aligned.csv").read_bytes()
        slots, body, weights = read_aligned(workdir / "aligned.csv", table)
    except (OSError, ValueError) as exc:
        return Outcome([str(exc)])
    return Outcome(check_alignment(report, slots, body, weights, table), report,
                   tuple(report.get(k) for k in GUARDED) + (hashlib.sha256(raw).hexdigest(),))


def check_alignment(report: dict, slots: np.ndarray, body: list[list[str]],
                    weights: np.ndarray, table) -> list[str]:
    problems = []
    m, n = table.m, table.n
    count = slots.shape[0]
    if count != report["aligned_tuple_count"]:
        problems.append(f"{count} rows but aligned_tuple_count={report['aligned_tuple_count']}")
    if count and (slots.min() < 0 or slots.max() >= n):
        return problems + ["row index out of range"]
    for k in range(m):
        if np.unique(slots[:, k]).size != count:
            problems.append(f"two tuples share a row of series {k + 1}")
    if count == 0:
        return problems

    cols = np.arange(m)[None, :]
    ts = table.timestamps[cols, slots]
    present = ~np.isnan(ts)
    spread = np.where(present.sum(axis=1) >= 2,
                      np.nanmax(np.where(present, ts, -np.inf), axis=1)
                      - np.nanmin(np.where(present, ts, np.inf), axis=1), 0.0)
    if (spread > report["theta"]).any():
        problems.append("a tuple breaks the theta window")
    if (slots.max(axis=1) - slots.min(axis=1) > report["beta"]).any():
        problems.append("a tuple breaks the beta window")
    values = table.values[cols, slots]
    cells = [c for r in body for k in range(m) for c in r[3 * k + 1:3 * k + 3]]
    expected = [_cell(x) for i in range(count) for k in range(m) for x in (ts[i, k], values[i, k])]
    if cells != expected:
        problems.append("timestamp or value cells differ from the input table")

    lam = (~np.isnan(values)).sum(axis=1)
    d = np.abs(slots[:, :, None] - slots[:, None, :]).sum(axis=(1, 2)) / 2
    w = (report["k1"] * lam * (lam - 1) / 2 + report["b"]) / (report["k2"] * d + report["c"])
    if not np.allclose(weights, w, rtol=1e-12, atol=0):
        problems.append("weight column differs from (k1*p + b) / (k2*d + c)")
    if not math.isclose(weights.sum(), report["total_weight"], rel_tol=1e-9):
        problems.append("total_weight differs from the sum of the weight column")

    # synthetic truth: row i of every series is simultaneous and complete
    pairs = m * (m - 1) // 2
    hits = sum(int((slots[:, a] == slots[:, b]).sum()) for a in range(m) for b in range(a + 1, m))
    precision = hits / (count * pairs)
    recall = hits / (n * pairs)
    f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
    if not math.isclose(f1, report.get("f1", math.nan), rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"f1 {report.get('f1')} differs from the recomputed {f1}")
    return problems

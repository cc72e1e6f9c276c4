#!/usr/bin/env python3
"""Benchmark of one ``tsalign align`` run, end to end and module by module.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's inputs from the seed (timed as ``setup_s``),
then runs ``align`` in a fresh child process again and again until the
seconds are spent.  Times are rescaled to a reference host speed measured
next to them (see ``hostspeed.py``); the raw wall times are printed too.
Each invocation's artifacts are checked, and the deterministic outputs must
repeat across invocations.  With ``--trace 1``
traced and untraced invocations alternate and the per-module metrics are
reported instead of the end-to-end ones.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# a run must end within 180 s; no child may outlive this share of it
DEADLINE_S = 150.0
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

END_TO_END = (
    ("align_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_share", "ratio"),
)
# deterministic for a seed, but they move with it far more than any bound allows
# (tuned_delta's tuned k1 and k2 change with the seed), so they are reported
# with the per-layer metrics
QUALITY = (
    ("evaluation.score.f1", "ratio"),
    ("composers.compose.total_weight", "weight"),
)


def nearest_rank(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def tail_percentile(samples: list[float]) -> str:
    """The highest of PERCENTILES with at least ten samples beyond it, if any."""
    usable = [p for p in PERCENTILES if len(samples) * (100 - p) / 100 >= 10]
    return f" p{usable[-1]:g}={nearest_rank(samples, usable[-1]):.4f}" if usable else ""


def run_child(workdir: Path, argv: list[str], spans: Path | None, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd + ["--", *argv], capture_output=True, text=True,
                              timeout=timeout, cwd=workdir)
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"align did not finish within {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": None, "error": f"child failed: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path,
            rows: int | None, started: float) -> dict:
    import workloads

    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        table = workloads.make_inputs(w, seed, workdir, n=rows)
        setup.append({"wall_s": time.perf_counter() - t0, "loops": hostspeed.loop_times()})
    argv = workloads.align_argv(w, workdir)
    spans_path = workdir / "spans.json"

    plain, traced, layers, problems = [], [], [], []
    attempted = failed = 0
    first = None
    end = time.perf_counter() + seconds
    while attempted < (2 if trace else 1) or time.perf_counter() < end:
        use_trace = trace and attempted % 2 == 1
        timeout = DEADLINE_S - (time.perf_counter() - started)
        if timeout <= 0:
            problems.append(f"stopped at the {DEADLINE_S:.0f} s run deadline")
            break
        spans_path.unlink(missing_ok=True)
        sample = run_child(workdir, argv, spans_path if use_trace else None, timeout)
        attempted += 1
        if sample["exit"] is None:
            failed += 1
            problems.append(sample["error"])
            break
        outcome = checks.check_invocation(sample["exit"], workdir, table)
        if outcome.problems:
            failed += 1
            problems.extend(outcome.problems)
            continue
        if first is None:
            first = outcome
        elif outcome.fingerprint != first.fingerprint:
            problems.append("deterministic outputs differ between invocations: "
                            f"{first.fingerprint} vs {outcome.fingerprint}")
        if use_trace:
            spans = json.loads(spans_path.read_text())
            total = sum(tracing.self_times(spans))
            if abs(total - sample["align_s"]) > 1e-9 * max(1.0, sample["align_s"]):
                problems.append(f"self times sum to {total}, traced align_s is {sample['align_s']}")
            traced.append(sample)
            layers.append(tracing.layer_metrics(spans))
        else:
            plain.append(sample)

    return {"attempted": attempted, "failed": failed, "problems": problems,
            "setup": setup, "plain": plain, "traced": traced, "layers": layers,
            "report": first.report if first else None}


def median_align_s(samples: list[dict]) -> float:
    """Median align seconds, each invocation rescaled to the reference host speed."""
    return statistics.median(hostspeed.rescale(s["align_s"], s["loops"])
                             for s in samples) if samples else 0.0


def end_to_end_metrics(r: dict) -> dict[str, float]:
    plain = r["plain"]
    return {
        "align_s": median_align_s(plain),
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] / 1024 for s in plain) if plain else 0.0,
        "setup_s": statistics.median(hostspeed.rescale(s["wall_s"], s["loops"]) for s in r["setup"]),
        "ok_share": (r["attempted"] - r["failed"]) / r["attempted"],
    }


def per_layer_metrics(r: dict) -> dict[str, float]:
    out = tracing.median_metrics(r["layers"]) if r["layers"] else {
        name: 0.0 for name, _ in tracing.LAYER_METRICS}
    report = r["report"] or {}
    out["trace.align_s"] = statistics.median(s["align_s"] for s in r["traced"]) if r["traced"] else 0.0
    out["trace_overhead_s"] = median_align_s(r["traced"]) - median_align_s(r["plain"])
    out["evaluation.score.f1"] = report.get("f1", 0.0)
    out["composers.compose.total_weight"] = report.get("total_weight", 0.0)
    return out


def per_layer_units() -> list[tuple[str, str]]:
    return [*tracing.LAYER_METRICS, ("trace.align_s", "s"), ("trace_overhead_s", "s"), *QUALITY]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, help="override the workload's row count (self-test)")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "tsalign" / "cli.py").is_file():
        print(f"benchmark: no tsalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        r = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                    bool(args.trace), workdir, args.rows, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    if args.trace:
        values, units = per_layer_metrics(r), per_layer_units()
    else:
        values, units = end_to_end_metrics(r), END_TO_END
    for problem in dict.fromkeys(r["problems"]):
        print(f"FAILED: {problem}")
    if r["plain"]:
        times = [hostspeed.rescale(s["align_s"], s["loops"]) for s in r["plain"]]
        wall = [s["align_s"] for s in r["plain"]]
        print(f"{args.workload} seed={args.seed}: align_s median={statistics.median(times):.4f}"
              f"{tail_percentile(times)} min={min(times):.4f} over {len(times)} untraced samples; "
              f"wall median={statistics.median(wall):.4f} min={min(wall):.4f}; "
              f"setup wall median={statistics.median(s['wall_s'] for s in r['setup']):.4f}")
    correct = not r["problems"] and r["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

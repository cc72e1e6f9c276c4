#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload runs at toy size, untraced and traced, and prints exactly
   the metrics named in BENCHMARK.json, each with its unit.
2. A doctored aligned CSV in which two tuples share a row is caught, and the
   vectorised checks agree with ``core.conflicts``, ``core.theta_similarity``
   and ``core.phi_similarity`` on a real and on the doctored output.
3. Without the program's sources the benchmark fails without printing a result.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tsalign import cli, core  # noqa: E402

TOY_ROWS = {"long_values": 300, "dense_expect": 60, "tuned_delta": 120}


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--rows", str(TOY_ROWS[workload])],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def check_metrics_printed(spec: dict) -> None:
    assert set(TOY_ROWS) == {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for workload in TOY_ROWS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stdout, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert list(result) == ["correct", "attempted", "failed", "metrics"], result
            assert result["correct"] is True and result["failed"] == 0, result
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in spec[key]}, (workload, key, printed)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics, "
                  f"{result['attempted']} invocations")


def core_view(slots, table):
    """Conflict flag and theta/phi similarities of each tuple, from the program's helpers."""
    tuples = [core.AlignedTuple(tuple(int(s) for s in row)) for row in slots]
    conflict = any(core.conflicts(a, b) for i, a in enumerate(tuples) for b in tuples[i + 1:])
    return (conflict, [core.theta_similarity(r, table) for r in tuples],
            [core.phi_similarity(r) for r in tuples])


def check_doctored_csv() -> None:
    w = workloads.WORKLOADS["dense_expect"]
    workdir = ROOT / ".perfbench_work" / "selftest-doctored"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        table = workloads.make_inputs(w, 5, workdir, n=TOY_ROWS[w.name])
        assert cli.main(workloads.align_argv(w, workdir)) == 0
        outcome = checks.check_invocation(0, workdir, table)
        assert outcome.problems == [], outcome.problems
        slots, _, _ = checks.read_aligned(workdir / "aligned.csv", table)
        report = outcome.report
        conflict, thetas, phis = core_view(slots, table)
        assert not conflict
        assert all(t is None or t <= report["theta"] for t in thetas)
        assert all(p <= report["beta"] for p in phis)

        path = workdir / "aligned.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[2][0] = rows[1][0]  # the second tuple now claims the first tuple's row of series 1
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        doctored = checks.check_invocation(0, workdir, table)
        assert any("share a row" in p for p in doctored.problems), doctored.problems
        slots, _, _ = checks.read_aligned(path, table)
        assert core_view(slots, table)[0]
        print(f"ok  doctored aligned CSV caught: {doctored.problems}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_fails_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("long_values", 0, cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
        print(f"ok  without sources: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_doctored_csv()
    check_fails_without_sources()
    check_metrics_printed(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

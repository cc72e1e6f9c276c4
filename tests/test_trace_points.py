"""The benchmark's trace points must name callables that a run actually calls.

``perfbench/tracing.py`` wraps module attributes by name; a renamed or
bypassed attribute would not fail the benchmark, it would read 0 in a
per-layer metric.  These tests load that file read-only and check its
targets against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tsalign.cli import main, write_table
from tsalign.evaluation import generate_synthetic, inject_mcar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_callable(tracing):
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"tsalign.{module}"), attr, None)), \
            f"tsalign.{module}.{attr}"


@pytest.fixture
def traced_align(tracing, tmp_path, monkeypatch):
    """Run ``align`` with the benchmark's tracer installed; returns the spans."""
    table, truth = generate_synthetic(60, 3, 1.0, seed=51)
    write_table(inject_mcar(table, 0.2, seed=52), str(tmp_path / "data.csv"))
    write_table(truth.table, str(tmp_path / "truth.csv"))
    for module, attr, _, _ in tracing.TARGETS:
        # restore each wrapped attribute after the test
        mod = importlib.import_module(f"tsalign.{module}")
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = tracing.Tracer()
    tracer.install()

    def run(*args):
        assert main(["align", "--input", str(tmp_path / "data.csv"),
                     "--truth", str(tmp_path / "truth.csv"), "--tune-theta", "--tune-beta",
                     *args, "--out", str(tmp_path / "aligned.csv"),
                     "--report", str(tmp_path / "report.json")]) == 0
        return tracer.spans

    return run


def test_traced_run_records_the_stage_spans(traced_align):
    names = {span["name"] for span in traced_align()}
    for name in ("cli.ingest", "cli.write_alignment_csv", "evaluation.score",
                 "tuning.determine_theta", "tuning.determine_beta"):
        assert name in names


def test_traced_tune_delta_run_generates_one_candidate_set(traced_align):
    # candidate.generate_candidates.candidates reads the spans under cli.run,
    # and the grid's composes must show under tuning.determine_weights_and_delta
    spans = traced_align("--strategy", "greedy", "--tune-delta")

    def children(parent):
        return [s["name"] for s in spans
                if s["parent"] is not None and spans[s["parent"]]["name"] == parent]

    assert "composers.compose" in children("tuning.determine_weights_and_delta")
    generated = [s for s in spans if s["name"] == "candidate.generate_candidates"]
    assert len(generated) == 2
    assert children("cli.run").count("candidate.generate_candidates") == 1
    assert children("tuning.determine_beta").count("candidate.generate_candidates") == 1

"""In-memory spans around the calls into each tsalign module.

``Tracer.install`` replaces module attributes (for example
``tsalign.composers.delta_report``) with wrappers that record a span: name,
start, end, parent and a few counts taken from the call's arguments or
result.  Nothing inside ``src/`` is edited; a call is traced when the caller
looks the name up through the wrapped module attribute.  The process is
single-threaded, so child spans nest inside their parent one after another
and a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "cli.main"
COMPOSERS = ("compose_exact", "compose_setpacking", "compose_greedy", "compose_expectation")


def _candidates(args, kwargs, result):
    table = args[0] if args else kwargs["t"]
    return {"candidates": len(result), "rows": table.n}


def _compose(args, kwargs, result):
    return {"attempts": result.retries_used + 1, "accepted": int(not result.exhausted)}


# (module, attribute, span name, counter); the counter maps (args, kwargs, result) to counts
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("cli", "ingest", "cli.ingest", lambda a, k, r: {"rows": r.n}),
    ("cli", "write_alignment_csv", "cli.write_alignment_csv",
     lambda a, k, r: {"rows": len((a[0] if a else k["alignment"]).tuples)}),
    ("cli", "generate_candidates", "candidate.generate_candidates", _candidates),
    ("tuning", "generate_candidates", "candidate.generate_candidates", _candidates),
    ("tuning", "determine_theta", "tuning.determine_theta", None),
    ("tuning", "determine_beta", "tuning.determine_beta", None),
    ("tuning", "determine_weights_and_delta", "tuning.determine_weights_and_delta", None),
    *(("composers", name, "composers.compose", _compose) for name in COMPOSERS),
    ("composers", "batch_weights", "core.batch_weights",
     lambda a, k, r: {"rows": len(r)}),
    ("composers", "delta_report", "consistency.delta_report", None),
    ("evaluation", "score", "evaluation.score", None),
)

# per-layer metrics reported from a traced run, with their units
LAYER_METRICS = (
    ("cli.main.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.ingest.s", "s"),
    ("cli.ingest.rows", "count"),
    ("cli.write_alignment_csv.s", "s"),
    ("cli.write_alignment_csv.rows", "count"),
    ("evaluation.score.s", "s"),
    ("evaluation.score.calls", "count"),
    ("tuning.determine_theta.s", "s"),
    ("tuning.determine_beta.s", "s"),
    ("tuning.determine_beta.scan_candidates", "count"),
    ("tuning.determine_weights_and_delta.s", "s"),
    ("tuning.determine_weights_and_delta.compose_calls", "count"),
    ("candidate.generate_candidates.s", "s"),
    ("candidate.generate_candidates.calls", "count"),
    ("candidate.generate_candidates.candidates", "count"),
    ("candidate.candidates_per_row", "count"),
    ("composers.compose.s", "s"),
    ("composers.compose.calls", "count"),
    ("composers.compose.attempts", "count"),
    ("composers.compose.accept_ratio", "ratio"),
    ("core.batch_weights.s", "s"),
    ("core.batch_weights.calls", "count"),
    ("core.batch_weights.rows", "count"),
    ("consistency.delta_report.s", "s"),
    ("consistency.delta_report.calls", "count"),
)


class Tracer:
    """Collects spans in memory; ``spans`` is written out once, at exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, counter) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"] = counter(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        for module, attr, name, counter in TARGETS:
            self.wrap(importlib.import_module(f"tsalign.{module}"), attr, name, counter)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced ``align`` invocation."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def self_s(name):
        return sum(selfs[i] for i in by_name[name])

    def picked(name, parent=None):
        """Spans called ``name``, optionally only those whose parent span is called ``parent``."""
        return [i for i in by_name[name] if parent is None or (
            spans[i]["parent"] is not None and spans[spans[i]["parent"]]["name"] == parent)]

    def total(name, key, parent=None):
        return sum(spans[i]["counts"].get(key, 0) for i in picked(name, parent))

    gen = "candidate.generate_candidates"
    compose = "composers.compose"
    candidates = total(gen, "candidates", parent="cli.run")
    gen_rows = total(gen, "rows", parent="cli.run")
    attempts = total(compose, "attempts")
    out = {
        "cli.main.self_s": self_s(ROOT_SPAN),
        "cli.run.self_s": self_s("cli.run"),
        "cli.ingest.rows": total("cli.ingest", "rows"),
        "cli.write_alignment_csv.rows": total("cli.write_alignment_csv", "rows"),
        "tuning.determine_beta.scan_candidates": total(gen, "candidates", parent="tuning.determine_beta"),
        "tuning.determine_weights_and_delta.compose_calls":
            len(picked(compose, parent="tuning.determine_weights_and_delta")),
        "candidate.generate_candidates.candidates": candidates,
        "candidate.candidates_per_row": candidates / gen_rows if gen_rows else 0.0,
        "composers.compose.attempts": attempts,
        "composers.compose.accept_ratio": total(compose, "accepted") / attempts if attempts else 0.0,
        "core.batch_weights.rows": total("core.batch_weights", "rows"),
    }
    for metric, _ in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "s":
            out[metric] = self_s(layer)
        elif stat == "calls":
            out[metric] = len(picked(layer))
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name, _ in LAYER_METRICS}

"""Run one ``tsalign align`` invocation in its own process and report on it.

Usage: python3 perfbench/child.py [--spans PATH] -- align ARGS...

Prints one JSON line: the exit code, the wall seconds of ``cli.main``
(imports excluded), the process's peak resident memory and the times of the
host-speed loop, run after the peak is read.  The peak is VmHWM of this
process's own address space: ``ru_maxrss`` of a child started by fork or
vfork also counts the parent's resident memory at the time of the fork.  With
``--spans`` the calls into each module are traced and the spans are written
to PATH when the invocation ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, align_argv = argv[:sep], argv[sep + 1:]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import hostspeed
    from tsalign import cli

    tracer = None
    if spans_path:
        from tracing import ROOT_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
    if tracer is None:
        start = time.perf_counter()
        code = cli.main(align_argv)
        align_s = time.perf_counter() - start
    else:
        with tracer.span(ROOT_SPAN) as root:
            code = cli.main(align_argv)
        align_s = root["end"] - root["start"]
        Path(spans_path).write_text(json.dumps(tracer.spans))
    rss_kb = peak_rss_kb()
    print(json.dumps({"exit": code, "align_s": align_s, "peak_rss_kb": rss_kb,
                      "loops": hostspeed.loop_times()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

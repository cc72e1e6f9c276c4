"""A fixed reference loop that measures how fast the host runs this process right now.

On a shared host, other tenants slow a vCPU by up to 2x for stretches of
seconds to minutes, and user CPU time moves with wall time, so raw wall
times from two runs a few minutes apart cannot be compared.  On the 2-vCPU
Intel Xeon KVM guest this benchmark was built on, the quartile spread of the
per-run median ``align`` wall time over ten runs of one workload was 12-36 %.
Each timing is therefore rescaled to a reference host speed: multiplied by
``REFERENCE_S / loop_s``, where ``loop_s`` is the median time of the loop
below, run in the same process right next to the timed work.  The loop builds
and indexes 150,000 tuples, so it feels the memory contention
that slows the program's own object-heavy loops; it does not use tsalign, so
a change to the program moves the rescaled time just as it moves wall time.
"""

from __future__ import annotations

import statistics
import time

# the loop's median time on the uncontended host the baseline was recorded on
REFERENCE_S = 0.045
REPEATS = 3


def _loop() -> int:
    cells = []
    total = 0
    for i in range(150_000):
        cells.append((i, i + 1))
        total += i * i % 7
    index = {cell: cell[0] for cell in cells}
    return total + len(index)


def loop_times(repeats: int = REPEATS) -> list[float]:
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        out.append(time.perf_counter() - start)
    return out


def rescale(seconds: float, loops: list[float]) -> float:
    """``seconds`` as it would read at the reference host speed."""
    return seconds * REFERENCE_S / statistics.median(loops)

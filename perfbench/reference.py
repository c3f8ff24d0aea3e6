"""A fixed pure-Python reference loop that measures how fast the host is
right now, and the conversion of wall times to reference seconds.

The benchmark's hosts share their CPUs with other tenants, and the speed of
one vCPU drifts by 20% or more over tens of seconds. Every timed sample is
therefore bracketed by this loop, timed just before and just after it. A
slower host stretches the sample and the loop alike; a slower program
stretches only the sample.

The loop does the kinds of work the engine does (split text rows, parse
floats, group in dicts, exponentials, sort, format numbers) but uses no
geostress code, so nothing a change to the engine does can move it.
"""

from __future__ import annotations

import json
import math
import time

# The loop's median time on the 2-vCPU host the benchmark was written on.
# A reference second is the wall time that host takes for the same work
# when the loop runs in REFERENCE_S.
REFERENCE_S = 0.14

_ROWS = [f"I{i:06d},G{i % 97:04d},S{i % 13:02d},{(i * 7919) % 10007 / 3.7:.6f}"
         for i in range(6_000)]


def _work() -> float:
    groups: dict[str, float] = {}
    values = []
    for line in _ROWS:
        ident, geo, sector, text = line.split(",")
        x = float(text)
        y = 1.0 - math.exp(-x / 1000.0) * (0.5 + 0.5 * math.tanh(x / 500.0))
        groups[geo] = groups.get(geo, 0.0) + y
        groups[sector] = groups.get(sector, 0.0) + x * y
        values.append((y, ident))
    values.sort()
    text = json.dumps([{"id": i, "v": v} for v, i in values[::4]])
    return math.fsum(groups.values()) + len(text)


def reference_seconds(repeats: int = 12) -> float:
    """Wall seconds of the reference loop (about REFERENCE_S)."""
    start = time.perf_counter()
    for _ in range(repeats):
        _work()
    return time.perf_counter() - start


def at_reference_speed(wall_s: list[float], loop_s: list[float]) -> float:
    """The typical sample in reference seconds: the samples' total wall time
    over the total of the loop times around them, times REFERENCE_S.
    ``loop_s[i]`` is the mean of the loop times just before and just after
    sample ``i``. A stretch of slow host weighs on both totals alike, and
    summing over the whole run averages out the short loop's own jitter."""
    if not loop_s:
        return 0.0
    return sum(wall_s) / sum(loop_s) * REFERENCE_S

"""Host-speed probe: scales timings taken on a shared host to one reference speed.

The reference machine is a 2-core VM on a shared host whose speed
drifts by up to 2x over tens of seconds as other tenants come and go; a
fixed Python loop timed every half second reads anywhere from 1.1 to
2.1 ms.  Raw timings of one seed then differ by a third between runs
for reasons that have nothing to do with the program.

So every run pins itself to one CPU (the server processes it starts
inherit the pin) and times a fixed pure-Python loop, the probe, between
short chunks of work.  Timings inside a chunk are multiplied by
``REFERENCE_S`` over the mean of the (smoothed) probes at the chunk's
two ends: they read as the time the work would take on a host where
the probe takes ``REFERENCE_S``.  The probe calls no program code, so a program
change moves scaled timings exactly as much as raw ones; on the
reference machine scaling cut the variation of per-pass PMBC-OL* time
from 17 % to 5 %.  Every workload prints its raw timings beside the
scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time

#: Probe time (s) that scaled timings refer to: about the probe on the
#: reference machine in a quiet stretch.
REFERENCE_S = 0.0004
#: Probe repeats; the fastest counts, so one interrupt does not.
REPEATS = 3
#: Probes on each side whose median stands in for a probe (about half a
#: second of work at the workloads' probe spacing).
SMOOTH = 12


def pin_to_one_cpu() -> int:
    """Pin this process (and what it starts later) to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _work() -> int:
    total = 0
    seen = {}
    for i in range(3000):
        total += i * i % 7
        seen[i & 63] = total
    return total


def probe() -> float:
    """Seconds the probe loop takes now (the fastest of ``REPEATS``)."""
    perf = time.perf_counter
    best = float("inf")
    for __ in range(REPEATS):
        start = perf()
        _work()
        best = min(best, perf() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor taking timings made between two probes to the reference speed."""
    return 2 * REFERENCE_S / (before + after)


def chunk_factors(probes: list[float]) -> list[float]:
    """Scale factors of the chunks between consecutive ``probes``.

    Each probe first stands in as the median of the probes within
    ``SMOOTH`` of it.  The program's background threads (the adaptive
    builder) share the pinned CPU and can slow a single probe for tens
    of milliseconds; the median ignores that, and still follows the
    host, whose speed moves over seconds.
    """
    smooth = [
        statistics.median(probes[max(0, i - SMOOTH):i + SMOOTH + 1])
        for i in range(len(probes))
    ]
    return [scale(a, b) for a, b in zip(smooth, smooth[1:])]

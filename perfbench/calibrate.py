"""A fixed reference task that gauges how fast the host runs Python right now.

Shared hosts change speed by a third or more, both within seconds and
over minutes, and the change hits spectop and this task alike.  Workers
therefore run the task as a short probe every ``PROBE_INTERVAL_S`` of CPU
time, also in the middle of an op, and leave the probes' own time out of
the op's time.  The op times of a worker are then scaled to a nominal
host on which one probe takes ``PROBE_NOMINAL_S``:

    reported = measured * PROBE_NOMINAL_S / mean(probe times of the worker)

In ``session`` one worker runs the whole pass; in the other workloads
each op has a worker of its own, so each op is scaled by the host speed
seen while it ran.  The mean, not the median: the host flips between
speed modes, and an op's time is an average over those flips.

The probe does what spectop's hot paths do: it builds and hashes
frozensets and probes a dict.  It must not depend on the state of the
process it runs in, or a change to spectop's heap would move the scale
factor and hide part of its own effect.  So it runs with the garbage
collector off, and every object it makes is freed before it returns.
CPython takes one off the young generation's count for each freed set,
so the count ends where it began: a probe neither runs nor brings
forward a collection of spectop's heap.
"""

from __future__ import annotations

import gc
import statistics
import time

PROBE_INTERVAL_S = 0.015
PROBE_ITERATIONS = 750
PROBE_NOMINAL_S = 0.0004

# Made once, so that a probe builds no tuples: freed tuples go to the
# interpreter's free lists without taking back their share of the
# collector's count, and would leave that count higher after each probe.
_PAIRS = [(i % 97, 100 + i % 89) for i in range(PROBE_ITERATIONS)]
_TRIPLES = [(i % 7, i % 11, i % 13) for i in range(PROBE_ITERATIONS)]


def probe_seconds() -> float:
    """One probe: build and hash frozensets and probe a dict, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict = {}
        found = 0
        for i in range(PROBE_ITERATIONS):
            key = frozenset(_PAIRS[i])
            seen[key] = seen.get(key, 0) + 1
            found += frozenset(_TRIPLES[i]) in seen
        del seen
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes: list[float]) -> float:
    """Multiply a measured time by this to get the time on the nominal host."""
    return PROBE_NOMINAL_S / statistics.fmean(probes)

"""How fast the host runs at the moment, from a fixed reference task.

On a shared host the same work runs up to a third slower for tens of
seconds at a time, so raw times of identical runs differ by more than the
bounds in BENCHMARK.json. ``Probe.sample`` times a fixed pure-Python task
between items, about every 0.2 s. ``scale_times`` then gives each item's
time at the reference speed: its measured time multiplied by
``REFERENCE_S`` over the task's time around that item.

The host's slow spells slow different kinds of work by different amounts,
so the task mixes the two kinds the workloads do: dict, set and tuple work
like the reducibility checks, and integer arithmetic like the bitmask work
of cut enumeration (see README.md). It imports nothing from snarklab and
runs with the garbage collector off, so no change to snarklab can move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# the reference task's median time on the reference machine
REFERENCE_S = 0.012
# probe samples on each side of an item that give its host speed
NEIGHBOURS = 3


def reference_task() -> int:
    table: dict[tuple[int, int], int] = {}
    seen: set[int] = set()
    for i in range(12000):
        key = (i % 97, (i * 31) % 89)
        table[key] = table.get(key, 0) + i
        if i % 3:
            seen.add(hash(key) & 1023)
    total = 0
    for i in range(75000):
        total += i * i % 7
    return len(table) + len(seen) + total


class Probe:
    """Times the reference task at most once every ``every`` seconds."""

    def __init__(self, every: float = 0.2) -> None:
        self.every = every
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._next = 0.0

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start < self._next:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_task()
        finally:
            if enabled:
                gc.enable()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self.spent += end - start
        self._next = end + self.every


def at_reference_speed(seconds: float, durations: list[float]) -> float:
    """seconds measured while the reference task took durations."""
    return seconds * REFERENCE_S / statistics.median(durations)


def scale_times(starts: list[float], times: list[float], samples: list[tuple[float, float]]) -> list[float]:
    """Each item's time at the reference speed, from the probe samples
    taken nearest to its start."""
    at = [t for t, _ in samples]
    durations = [d for _, d in samples]
    out = []
    for start, seconds in zip(starts, times):
        i = bisect.bisect(at, start)
        out.append(at_reference_speed(seconds, durations[max(0, i - NEIGHBOURS) : i + NEIGHBOURS]))
    return out

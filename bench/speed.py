"""The host's speed, measured with a fixed reference loop.

The benchmark runs on a shared host whose speed changes in phases of
seconds to minutes: the same solve takes up to 1.6 times longer in a slow
phase, in CPU time as well as wall time, so the change is in how fast the
core runs, not in scheduling.  ``Probe`` times ``reference_work`` (fixed
pure-Python code, independent of the program under test) between solves.
A time measured while the reference loop took ``r`` seconds is reported
at reference speed: scaled by ``NOMINAL_S / r``, where ``NOMINAL_S`` is
the loop's median time on the machine the baseline was recorded on and
``r`` the median of the samples just before and just after the
measured work (phases can change between two solves of one pass).  A
change to the program moves its scaled times; a change of the host's
speed moves the loop as well and cancels out.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

# Median time of one ``reference_work()`` call on the baseline machine
# (bench/baseline.json: Intel Xeon, 2 vCPUs, Python 3.11.7).
NOMINAL_S = 0.0019

# Untimed calls before the first sample.
WARM_UP = 20

# Take a sample before a solve once this long has passed since the last.
INTERVAL_S = 0.2


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def reference_work() -> int:
    """Small frozensets and tuples built, hashed, sorted and looked up in
    dicts, plus small objects and function calls: the kind of work the
    solver's interpreter does."""
    seen = {}
    items = []
    total = 0
    for i in range(600):
        clause = frozenset((i % 7 + 1, -(i % 5 + 2), i % 11 + 3, -(i % 3 + 9)))
        key = tuple(sorted(clause, key=abs))
        seen[key] = seen.get(key, 0) + 1
        items.append(_Item(key, len(clause)))
        total += sum(1 for lit in clause if lit > 0)
    for item in items:
        if item.key in seen and item.weight > 2:
            total += seen[item.key]
    return total + len(seen)


class Probe:
    """Reference samples taken between solves."""

    def __init__(self) -> None:
        for _ in range(WARM_UP):
            reference_work()
        self.samples: List[float] = []
        self.spent = 0.0  # seconds spent in samples, to take out of pass times
        self._last = float("-inf")

    def sample(self) -> None:
        """Time one ``reference_work`` call, after an untimed one that
        brings its code and data back into the caches the solves used."""
        begin = perf_counter()
        reference_work()
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.samples.append(end - start)
        self.spent += end - begin
        self._last = end

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def slowdown_around(self, index: int) -> float:
        """The host's slowdown at the time between samples ``index - 1`` and
        ``index``: the median of the two samples before and the two after."""
        return statistics.median(self.samples[max(0, index - 2) : index + 2]) / NOMINAL_S

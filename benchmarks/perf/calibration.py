"""Host-speed calibration: how fast this process runs right now.

On a shared host the speed a process gets changes in stretches that
last from under a second to minutes, and the process cannot see them:
``process_time`` rises with wall time and the kernel reports no steal
time.  So every timed call is bracketed by passes of a fixed
pure-Python loop that touches none of the simulator, and a run reports
its times as ratios to the loop's.  A change to the simulator moves the
ratio; a slow stretch of host time slows the loop alike and cancels.

The loop chases a few megabytes of small objects through a dict and an
LRU map, like the simulator's caches do: a loop that stays in the CPU
caches barely slows when a neighbour contends for memory, while the
simulator's repetitions take up to twice as long.
"""

from __future__ import annotations

import gc
import time
from collections import OrderedDict
from typing import Any, Dict, List

__all__ = ["REFERENCE_S", "reference_seconds", "scaled"]

#: The loop's time on an uncontended core of the 2-core x86_64 Xeon the
#: bounds in BENCHMARK.json were set on.  Scaled times are seconds of
#: that core; on another host they are comparable only with each other.
REFERENCE_S = 0.05


class _Slot:
    __slots__ = ("key", "hits", "dirty")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.dirty = False


def _loop(slots: int = 1 << 16, iterations: int = 30_000) -> int:
    """Build ``slots`` objects behind a dict, then touch them in a fixed
    pseudo-random order through a bounded LRU map."""
    index = {key: _Slot(key) for key in range(slots)}
    lru: "OrderedDict[int, _Slot]" = OrderedDict()
    x = 12345
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slot = index[x % slots]
        slot.hits += 1
        slot.dirty = not slot.dirty
        if slot.key in lru:
            lru.move_to_end(slot.key)
        else:
            lru[slot.key] = slot
            if len(lru) > 16384:
                lru.popitem(last=False)
    return len(lru)


def reference_seconds() -> float:
    """Host seconds one pass of the loop takes now, with the cyclic GC
    paused so the size of the simulator's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(samples: List[Dict[str, Any]], key: str) -> float:
    """``key`` in seconds of the reference core: each sample's host time
    over its ``reference_s``, the lower quartile of those ratios, times
    ``REFERENCE_S``.

    A timed call is exposed to contention for far longer than its
    calibration passes, so its ratio errs high far more often than low;
    the lower quartile discards those stretches and, unlike the minimum,
    also the few samples whose calibration pass alone was slowed."""
    ratios = sorted(sample[key] / sample["reference_s"]
                    for sample in samples)
    return ratios[(len(ratios) - 1) // 4] * REFERENCE_S

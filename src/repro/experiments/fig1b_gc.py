"""Figure 1(b): garbage-collection overhead vs occupied Flash space.

The paper motivates the disk-cache (rather than filesystem/SSD) usage
model by showing GC time blowing up as Flash occupancy grows — the eNVy
study could only use 80% of its capacity.  We reproduce the curve by
driving steady out-of-place write traffic over footprints sized to pin the
cache at each target occupancy and measuring background GC time relative
to foreground service time, normalised the way the paper plots it.

Spawn-safety: each occupancy level is an independent task whose worker
builds its own device/controller/cache stack and RNG from the task's
primitives; every occupancy deliberately shares the experiment seed so
the churn streams stay comparable across the sweep, exactly as the
serial loop always ran them.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Sequence

from ..core.cache import FlashCacheConfig, FlashDiskCache
from ..core.controller import ProgrammableFlashController
from ..flash.device import FlashDevice
from ..flash.geometry import FlashGeometry
from ..flash.timing import CellMode
from ..parallel import SweepResult, SweepTask, sweep

__all__ = ["GcPoint", "tasks", "combine"]


@dataclass(frozen=True)
class GcPoint:
    """One x/y pair of Figure 1(b)."""

    used_fraction: float
    gc_overhead: float          # gc time / foreground time
    normalized_overhead: float  # gc_overhead / 0.10 (see combine)
    gc_runs: int
    gc_page_moves: int


def _run_at_occupancy(occupancy: float, flash_blocks: int,
                      writes_per_page: float, seed: int) -> tuple:
    """Steady-state write churn at one occupancy level."""
    geometry = FlashGeometry(num_blocks=flash_blocks)
    device = FlashDevice(geometry=geometry, initial_mode=CellMode.MLC)
    controller = ProgrammableFlashController(device)
    # Figure 1(b) motivates the disk-cache design by showing the *SSD /
    # Flash-file-system* setting, where pages cannot be dropped and GC is
    # the only space reclaimer — hence a unified cache with eviction
    # disabled.
    cache = FlashDiskCache(
        controller, FlashCacheConfig(split=False, hot_promotion=False,
                                     allow_eviction_for_space=False))
    total_pages = cache.total_pages()
    footprint = max(int(total_pages * occupancy), 1)
    rng = Random(seed)
    num_writes = int(footprint * writes_per_page)
    # Warm up: populate the footprint once.
    for lba in range(footprint):
        cache.write(lba)
    # Reset counters so only steady-state churn is measured.
    cache.stats.gc_time_us = 0.0
    cache.stats.foreground_time_us = 0.0
    cache.stats.gc_runs = 0
    cache.stats.gc_page_moves = 0
    for _ in range(num_writes):
        cache.write(rng.randrange(footprint))
    return cache.stats.gc_overhead, cache.stats.gc_runs, \
        cache.stats.gc_page_moves


def _occupancy_task(occupancy: float, flash_blocks: int,
                    writes_per_page: float, seed: int) -> tuple:
    """Worker entry point: one occupancy level's raw measurements."""
    overhead, runs, moves = _run_at_occupancy(
        occupancy, flash_blocks, writes_per_page, seed)
    return occupancy, overhead, runs, moves


def tasks(
    occupancies: Sequence[float] = (0.10, 0.20, 0.30, 0.40, 0.50,
                                    0.60, 0.70, 0.80, 0.90, 0.95),
    flash_blocks: int = 32,
    writes_per_page: float = 4.0,
    seed: int = 7,
) -> List[SweepTask]:
    """The Figure 1(b) grid, one task per occupancy level."""
    return [SweepTask(key=f"fig1b:used={occupancy:.2f}",
                      fn=_occupancy_task,
                      kwargs={"occupancy": occupancy,
                              "flash_blocks": flash_blocks,
                              "writes_per_page": writes_per_page,
                              "seed": seed})
            for occupancy in occupancies]


def combine(results: Sequence[SweepResult]) -> List[GcPoint]:
    """Assemble task results (in task order) into the figure series.

    ``normalized_overhead`` follows the paper's axis ("normalized to an
    overhead of 10%"): a value of 1 means GC consumes 10% as much time as
    foreground service.
    """
    points: List[GcPoint] = []
    for result in results:
        occupancy, overhead, runs, moves = result.unwrap()
        points.append(GcPoint(
            used_fraction=occupancy,
            gc_overhead=overhead,
            normalized_overhead=overhead / 0.10,
            gc_runs=runs,
            gc_page_moves=moves,
        ))
    return points


def main() -> None:
    print("Figure 1(b): GC overhead vs used Flash space")
    print(f"{'used':>6} {'gc/fg':>8} {'norm':>8} {'gc runs':>8} {'moves':>8}")
    for point in combine(sweep(tasks())):
        print(f"{point.used_fraction:6.0%} {point.gc_overhead:8.3f} "
              f"{point.normalized_overhead:8.2f} {point.gc_runs:8d} "
              f"{point.gc_page_moves:8d}")


if __name__ == "__main__":
    main()

"""Figure 4: miss rate of unified vs split Flash disk caches (dbt2/OLTP).

The paper replays a dbt2 disk trace against Flash sizes from 128MB to
640MB and shows the split read/write organisation beating the unified
cache, with the gap widening as the cache grows.  We replay the same
sweep, scaled by a constant factor so the runs stay laptop-sized — the
miss-rate *ratio* between organisations depends on the cache:working-set
proportion, which the scaling preserves (the paper itself scaled all
benchmarks for its simulator, section 6.1).

Spawn-safety: every (size, organisation) pair is an independent sweep
task.  Workers rebuild the dbt2 disk trace and their cache stack from
the task's primitives — nothing is shared or mutated across tasks — and
every pair deliberately carries the *same* experiment seed, because the
figure replays one identical trace against each configuration (the
miss-rate delta must isolate the cache organisation, not workload
noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

from ..core.cache import FlashCacheConfig, FlashDiskCache
from ..core.controller import ProgrammableFlashController
from ..flash.device import FlashDevice
from ..flash.geometry import FlashGeometry
from ..flash.timing import CellMode
from ..parallel import SweepResult, SweepTask, merge_telemetry, sweep
from ..telemetry import Telemetry
from ..workloads.macro import build_workload
from ..workloads.postpdc import derive_disk_trace
from ..workloads.trace import PAGE_BYTES, TraceRecord

__all__ = ["SplitMissPoint", "replay_disk_trace", "PAPER_FLASH_SIZES_MB",
           "SCALE_DIVISOR", "tasks", "combine", "timeline_tasks",
           "combine_timeline"]

#: The x axis of Figure 4.
PAPER_FLASH_SIZES_MB = (128, 256, 384, 512, 640)
#: Scale-down divisor applied to Flash sizes and the dbt2 footprint.
SCALE_DIVISOR = 32


@dataclass(frozen=True)
class SplitMissPoint:
    """Miss rates at one Flash size."""

    flash_mb_paper_scale: int
    unified_miss_rate: float
    split_miss_rate: float

    @property
    def improvement(self) -> float:
        """Absolute miss-rate reduction from splitting."""
        return self.unified_miss_rate - self.split_miss_rate


def replay_disk_trace(cache: FlashDiskCache,
                      records: Sequence[TraceRecord],
                      flush_interval: int = 10_000,
                      telemetry: Optional[Telemetry] = None,
                      series_prefix: str = "") -> None:
    """Feed a disk-level trace straight into the Flash disk cache.

    Figure 4 measures the Flash cache in isolation (the trace is what
    reaches the secondary cache below the PDC): reads that miss are filled
    from disk, writes append to the cache.  Every ``flush_interval``
    records the dirty pages flush to disk (section 5.1: "The disk is
    eventually updated by flushing the write disk cache"), which keeps
    write-cache evictions cheap the way the OS's periodic write-back does.

    With a ``telemetry`` handle the cache stack is instrumented and the
    cumulative miss rate and used-capacity fraction are sampled into the
    ``{series_prefix}miss_rate`` / ``{series_prefix}used_fraction``
    time-series every ``telemetry.sample_interval`` accesses — the
    warm-up curve behind the Figure 4 endpoints.
    """
    if telemetry is not None:
        telemetry.attach_cache(cache)
        next_sample = telemetry.sample_interval
        miss_series = telemetry.series(f"{series_prefix}miss_rate")
        used_series = telemetry.series(f"{series_prefix}used_fraction")
    count = 0
    for record in records:
        for page in record.expand():
            if record.is_read:
                outcome = cache.read(page)
                if outcome is None or not outcome.recovered:
                    cache.insert_clean(page)
            else:
                cache.write(page)
            count += 1
            if flush_interval and count % flush_interval == 0:
                cache.flush()
            if telemetry is not None and count >= next_sample:
                miss_series.append(count, cache.stats.miss_rate)
                used_series.append(count, cache.used_fraction())
                next_sample += telemetry.sample_interval
    if telemetry is not None:
        telemetry.harvest_cache_counters(cache)


def _build_cache(flash_bytes: int, split: bool,
                 frames_per_block: int = 8) -> FlashDiskCache:
    # Scaled-down caches shrink the *block size* along with capacity so the
    # block count — which sets how many blocks the 10% write region gets
    # and how much GC freedom exists — stays representative of the paper's
    # full-size configuration.
    geometry = FlashGeometry.for_capacity(
        flash_bytes, mode=CellMode.MLC, frames_per_block=frames_per_block)
    device = FlashDevice(geometry=geometry, initial_mode=CellMode.MLC)
    controller = ProgrammableFlashController(device)
    # The unified baseline is the paper's "naively managed" out-of-place
    # write cache (section 3.5): invalid holes accumulate across all
    # blocks and only LRU eviction reclaims space, so effective capacity
    # decays.  The split organisation confines the holes to the small
    # write region, where its garbage collector keeps up easily.
    budget = 0.0 if not split else None
    return FlashDiskCache(
        controller,
        FlashCacheConfig(split=split, hot_promotion=False,
                         gc_move_budget=budget),
    )


@lru_cache(maxsize=2)
def _disk_trace(scale_divisor: int, num_records: int,
                seed: int) -> tuple:
    """The figure's input: the raw dbt2 stream filtered through a scaled
    256MB page cache, exactly how the paper captured its dbt2 disk trace
    from the full-system simulator.

    Memoised per process (the records are immutable) so the serial path
    derives it once for the whole grid, as the original loop did, and
    each pool worker derives it once per process instead of once per
    task.  Deterministic in its arguments, so caching cannot change
    results.
    """
    footprint_pages = (2 << 30) // scale_divisor // PAGE_BYTES  # dbt2 2GB
    raw = build_workload("dbt2", num_records=num_records, seed=seed,
                         footprint_pages=footprint_pages)
    pdc_pages = (256 << 20) // scale_divisor // PAGE_BYTES
    return tuple(derive_disk_trace(raw, pdc_pages))


def _miss_rate_task(flash_mb: int, split: bool, scale_divisor: int,
                    num_records: int, seed: int) -> float:
    """Worker entry point: one (size, organisation) pair's miss rate."""
    records = _disk_trace(scale_divisor, num_records, seed)
    cache = _build_cache(flash_mb * (1 << 20) // scale_divisor, split)
    replay_disk_trace(cache, records)
    return cache.stats.miss_rate


def tasks(
    flash_sizes_mb: Sequence[int] = PAPER_FLASH_SIZES_MB,
    scale_divisor: int = SCALE_DIVISOR,
    num_records: int = 600_000,
    seed: int = 11,
) -> List[SweepTask]:
    """The Figure 4 grid: one task per (size, organisation) pair, each
    replaying the same dbt2 disk trace."""
    return [
        SweepTask(key=f"fig4:{size_mb}mb:{'split' if split else 'unified'}",
                  fn=_miss_rate_task,
                  kwargs={"flash_mb": size_mb, "split": split,
                          "scale_divisor": scale_divisor,
                          "num_records": num_records, "seed": seed})
        for size_mb in flash_sizes_mb
        for split in (False, True)
    ]


def combine(results: Sequence[SweepResult]) -> List[SplitMissPoint]:
    """Pair each size's unified/split miss rates back into figure points."""
    rates = {result.key: result.unwrap() for result in results}
    points: List[SplitMissPoint] = []
    for key in rates:
        if not key.endswith(":unified"):
            continue
        size_mb = int(key.split(":")[1].removesuffix("mb"))
        points.append(SplitMissPoint(
            flash_mb_paper_scale=size_mb,
            unified_miss_rate=rates[key],
            split_miss_rate=rates[f"fig4:{size_mb}mb:split"],
        ))
    return points


def _timeline_task(flash_mb: int, split: bool, scale_divisor: int,
                   num_records: int, seed: int,
                   sample_interval: int) -> Telemetry:
    """Worker entry point: one organisation's warm-up telemetry."""
    records = _disk_trace(scale_divisor, num_records, seed)
    cache = _build_cache(flash_mb * (1 << 20) // scale_divisor, split)
    telemetry = Telemetry(sample_interval=sample_interval)
    replay_disk_trace(cache, records, telemetry=telemetry,
                      series_prefix="split_" if split else "unified_")
    return telemetry


def timeline_tasks(
    flash_mb: int = 256,
    scale_divisor: int = SCALE_DIVISOR,
    num_records: int = 120_000,
    seed: int = 11,
    sample_interval: int = 10_000,
) -> List[SweepTask]:
    """Miss-rate-over-trace-position view of the Figure 4 story.

    One task per organisation, each replaying the same disk trace against
    a cache of one size and returning its own telemetry handle, which
    samples the cumulative miss rate as the caches warm and the unified
    organisation's invalid holes accumulate.  Series (after
    :func:`combine_timeline`): ``unified_miss_rate``, ``split_miss_rate``
    (plus the matching ``*_used_fraction``).
    """
    return [
        SweepTask(key=f"fig4tl:{'split' if split else 'unified'}",
                  fn=_timeline_task,
                  kwargs={"flash_mb": flash_mb, "split": split,
                          "scale_divisor": scale_divisor,
                          "num_records": num_records, "seed": seed,
                          "sample_interval": sample_interval})
        for split in (False, True)
    ]


def combine_timeline(results: Sequence[SweepResult]) -> Telemetry:
    """Merge the per-organisation telemetry handles into one.

    Each arm samples into prefix-distinct series and its own histograms;
    merging (counters add, histograms merge, series concatenate) yields
    exactly the handle a serial run sharing one telemetry object across
    both arms produces.
    """
    return merge_telemetry(result.unwrap() for result in results)


def main() -> None:
    print("Figure 4: dbt2 Flash miss rate, unified vs split")
    print(f"{'flash':>8} {'unified':>9} {'split':>9} {'delta':>8}")
    for point in combine(sweep(tasks())):
        print(f"{point.flash_mb_paper_scale:>6}MB "
              f"{point.unified_miss_rate:9.3%} {point.split_miss_rate:9.3%} "
              f"{point.improvement:8.3%}")
    telemetry = combine_timeline(sweep(timeline_tasks()))
    unified = telemetry.timeseries["unified_miss_rate"]
    split = telemetry.timeseries["split_miss_rate"]
    print()
    print("Warm-up timeline (256MB paper scale): cumulative miss rate")
    print(f"{'position':>9} {'unified':>9} {'split':>9}")
    for index, position in enumerate(unified.xs):
        print(f"{int(position):>9} {unified.ys[index]:9.3%} "
              f"{split.ys[index]:9.3%}")


if __name__ == "__main__":
    main()

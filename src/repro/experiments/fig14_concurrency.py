"""Figure 14 (extension): throughput and tail latency vs concurrency.

The paper's evaluation runs one request at a time; its Flash disk cache,
though, fronts a server with thousands of requests in flight, and the
DDR-NAND SSD literature locates real Flash throughput in channel/plane
interleaving.  This experiment sweeps the event engine
(:mod:`repro.sim.concurrent`) over an outstanding-request window
(queue depth) crossed with NAND channel count, on a deliberately
flash-bound platform (small DRAM, working set resident in Flash), and
reports throughput plus the service/queue-delay percentile split.

Expected shape: throughput grows monotonically along both axes —
queue depth overlaps host/CPU time across requests, channels relieve
NAND contention once the window is deep enough to generate it — while
queue-delay percentiles rise with depth (more in-flight requests per
plane) and fall with channels.

Spawn-safety: one task per (queue_depth, channels) point; each worker
rebuilds workload and platform from primitives.  Every point replays
the identical trace with identical cache behaviour (the engine's
functional path is serial in trace order), so the timing axes are the
only thing that varies — and the combined rows are byte-identical at
any sweep worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence

from ..core.hierarchy import build_flash_system
from ..parallel import SweepResult, SweepTask, sweep
from ..sim.concurrent import run_trace_concurrent
from ..workloads.macro import build_workload
from ..workloads.trace import PAGE_BYTES

__all__ = ["ConcurrencyPoint", "PAPER_QUEUE_DEPTHS", "PAPER_CHANNELS",
           "tasks", "combine"]

#: The figure's axes: window sizes x channel counts (planes fixed at 2,
#: a common small-SSD configuration).
PAPER_QUEUE_DEPTHS = (1, 4, 16)
PAPER_CHANNELS = (1, 2, 4)
PLANES = 2


@dataclass(frozen=True)
class ConcurrencyPoint:
    """One (queue depth, channels) cell of the Figure 14 grid."""

    queue_depth: int
    channels: int
    planes: int
    throughput_rps: float
    #: Throughput relative to the serial anchor (qd=1, ch=1).
    speedup: float
    service_p50_us: float
    service_p95_us: float
    service_p99_us: float
    queue_delay_mean_us: float
    queue_delay_p50_us: float
    queue_delay_p95_us: float
    queue_delay_p99_us: float
    channel_utilization: List[float]
    channel_stalls: int


def _concurrency_task(workload: str, queue_depth: int, channels: int,
                      planes: int, scale_divisor: int, num_records: int,
                      seed: int) -> Dict[str, Any]:
    """Worker entry point: one grid cell's metrics."""
    footprint_bytes = int(1.8 * (1 << 30))
    footprint_pages = footprint_bytes // scale_divisor // PAGE_BYTES
    records = build_workload(workload, num_records=num_records, seed=seed,
                             footprint_pages=footprint_pages)
    # Flash-bound platform: DRAM far below the working set so most reads
    # fall through to the Flash tier, whose ops the fabric schedules.
    system = build_flash_system(
        dram_bytes=(64 << 20) // scale_divisor,
        flash_bytes=(2 << 30) // scale_divisor,
    )
    report = run_trace_concurrent(system, records,
                                  queue_depth=queue_depth,
                                  channels=channels, planes=planes)
    queueing = report.queueing
    if queueing is None:
        # Serial anchor (qd=1, ch=1 routes to the legacy engine): no
        # queueing exists at depth 1, so the split degenerates to
        # service = the request latency distribution and zero delay.
        return {
            "queue_depth": queue_depth, "channels": channels,
            "planes": planes,
            "throughput_rps": report.throughput_rps,
            "service_p50_us": 0.0, "service_p95_us": 0.0,
            "service_p99_us": 0.0,
            "queue_delay_mean_us": 0.0, "queue_delay_p50_us": 0.0,
            "queue_delay_p95_us": 0.0, "queue_delay_p99_us": 0.0,
            "channel_utilization": [0.0] * channels,
            "channel_stalls": 0,
        }
    return {
        "queue_depth": queue_depth, "channels": channels, "planes": planes,
        "throughput_rps": report.throughput_rps,
        "service_p50_us": queueing.service_latency.percentile(50.0),
        "service_p95_us": queueing.service_latency.percentile(95.0),
        "service_p99_us": queueing.service_latency.percentile(99.0),
        "queue_delay_mean_us": queueing.mean_queue_delay_us,
        "queue_delay_p50_us": queueing.queue_delay.percentile(50.0),
        "queue_delay_p95_us": queueing.queue_delay.percentile(95.0),
        "queue_delay_p99_us": queueing.queue_delay.percentile(99.0),
        "channel_utilization": queueing.channel_utilization(),
        "channel_stalls": queueing.channel_stalls,
    }


def tasks(
    workload: str = "specweb99",
    queue_depths: Sequence[int] = PAPER_QUEUE_DEPTHS,
    channel_counts: Sequence[int] = PAPER_CHANNELS,
    planes: int = PLANES,
    scale_divisor: int = 64,
    num_records: int = 40_000,
    seed: int = 17,
) -> List[SweepTask]:
    """The Figure 14 grid, one task per (queue depth, channels) cell."""
    return [SweepTask(key=f"fig14:{workload}:qd={queue_depth}:ch={channels}",
                      fn=_concurrency_task,
                      kwargs={"workload": workload,
                              "queue_depth": queue_depth,
                              "channels": channels, "planes": planes,
                              "scale_divisor": scale_divisor,
                              "num_records": num_records, "seed": seed})
            for queue_depth in queue_depths
            for channels in channel_counts]


def combine(results: Sequence[SweepResult]) -> List[ConcurrencyPoint]:
    """Reduce the grid to rows, normalising to the serial anchor."""
    rows = [result.unwrap() for result in results]
    anchor_rps = min(row["throughput_rps"] for row in rows)
    return [ConcurrencyPoint(
        queue_depth=row["queue_depth"],
        channels=row["channels"],
        planes=row["planes"],
        throughput_rps=row["throughput_rps"],
        speedup=(row["throughput_rps"] / anchor_rps if anchor_rps > 0
                 else 0.0),
        service_p50_us=row["service_p50_us"],
        service_p95_us=row["service_p95_us"],
        service_p99_us=row["service_p99_us"],
        queue_delay_mean_us=row["queue_delay_mean_us"],
        queue_delay_p50_us=row["queue_delay_p50_us"],
        queue_delay_p95_us=row["queue_delay_p95_us"],
        queue_delay_p99_us=row["queue_delay_p99_us"],
        channel_utilization=row["channel_utilization"],
        channel_stalls=row["channel_stalls"],
    ) for row in rows]


def as_rows(points: Sequence[ConcurrencyPoint]) -> List[Dict[str, Any]]:
    """JSON-ready form of the combined grid."""
    return [asdict(point) for point in points]


def main() -> None:
    print("Figure 14: throughput and latency split vs queue depth x channels")
    print(f"{'qd':>3} {'ch':>3} {'rps':>9} {'speedup':>8} "
          f"{'svc p50/p95/p99 us':>21} {'qdelay p50/p95/p99 us':>22} "
          f"{'util':>6}")
    for point in combine(sweep(tasks())):
        utilization = (sum(point.channel_utilization)
                       / len(point.channel_utilization))
        print(f"{point.queue_depth:>3} {point.channels:>3} "
              f"{point.throughput_rps:>9.0f} {point.speedup:>8.2f} "
              f"{point.service_p50_us:>7.1f}/{point.service_p95_us:>6.1f}/"
              f"{point.service_p99_us:>6.1f} "
              f"{point.queue_delay_p50_us:>8.1f}/"
              f"{point.queue_delay_p95_us:>6.1f}/"
              f"{point.queue_delay_p99_us:>6.1f} "
              f"{utilization:>6.2f}")


if __name__ == "__main__":
    main()

"""Figure 15 (extension): cluster tail latency and capacity vs scale.

The paper sizes one Flash-cached server; its motivating deployment is a
fleet of them behind a load balancer.  This experiment sweeps the
sharded cluster service (:mod:`repro.cluster`) over shard count crossed
with offered arrival rate and reports, per cell, the achieved
throughput, the shed fraction, and the response-time percentile split.

Expected shape: for each shard count there is a capacity cliff — below
it the cluster completes essentially all arrivals with a flat p99;
above it admission control sheds the excess and the p99 of admitted
requests saturates at the shed-queue bound.  Adding shards moves the
cliff right roughly linearly (consistent hashing splits the open-loop
stream evenly), which is the scale-out argument the single-node figures
cannot make.

Spawn-safety: one task per (shards, rate) cell; each worker rebuilds
the whole cluster from the scenario primitives and runs it with
``workers=1`` (the nested sweep takes the serial path, so cells nest
cleanly inside the outer process pool).  Results are byte-identical at
any outer worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence

from ..cluster import ClusterScenario, run_cluster
from ..parallel import SweepResult, SweepTask, sweep

__all__ = ["ClusterPoint", "PAPER_SHARD_COUNTS", "PAPER_RATES_RPS",
           "tasks", "combine", "as_rows"]

#: The figure's axes: fleet sizes x offered cluster-wide arrival rates.
PAPER_SHARD_COUNTS = (1, 2, 4)
PAPER_RATES_RPS = (2000.0, 4000.0, 8000.0)


@dataclass(frozen=True)
class ClusterPoint:
    """One (shards, rate) cell of the Figure 15 grid."""

    shards: int
    rate_rps: float
    arrivals: int
    completed: int
    shed: int
    shed_fraction: float
    throughput_rps: float
    response_p50_us: float
    response_p95_us: float
    response_p99_us: float
    queue_delay_p99_us: float


def _cluster_task(shards: int, rate_rps: float, pattern: str,
                  duration_s: float, workload: str, footprint_pages: int,
                  queue_depth: int, shed_queue: int, seed: int,
                  ) -> Dict[str, Any]:
    """Worker entry point: one grid cell = one full cluster run."""
    scenario = ClusterScenario(
        shards=shards, pattern=pattern, rate_rps=rate_rps,
        duration_s=duration_s, workload=workload,
        footprint_pages=footprint_pages, queue_depth=queue_depth,
        shed_queue=shed_queue, seed=seed)
    result = run_cluster(scenario, workers=1)
    return {
        "shards": shards,
        "rate_rps": rate_rps,
        "arrivals": result.arrivals,
        "completed": result.completed,
        "shed": result.shed,
        "shed_fraction": result.shed_fraction,
        "throughput_rps": result.throughput_rps,
        "response_p50_us": result.response.p50,
        "response_p95_us": result.response.p95,
        "response_p99_us": result.response.p99,
        "queue_delay_p99_us": result.queue_delay.p99,
    }


def tasks(
    shard_counts: Sequence[int] = PAPER_SHARD_COUNTS,
    rates_rps: Sequence[float] = PAPER_RATES_RPS,
    pattern: str = "steady",
    duration_s: float = 0.5,
    workload: str = "specweb99",
    footprint_pages: int = 8192,
    queue_depth: int = 4,
    shed_queue: int = 16,
    seed: int = 23,
) -> List[SweepTask]:
    """The Figure 15 grid, one task per (shards, rate) cell."""
    return [SweepTask(key=f"fig15:shards={shards}:rate={rate_rps:g}",
                      fn=_cluster_task,
                      kwargs={"shards": shards, "rate_rps": rate_rps,
                              "pattern": pattern,
                              "duration_s": duration_s,
                              "workload": workload,
                              "footprint_pages": footprint_pages,
                              "queue_depth": queue_depth,
                              "shed_queue": shed_queue, "seed": seed})
            for shards in shard_counts
            for rate_rps in rates_rps]


def combine(results: Sequence[SweepResult]) -> List[ClusterPoint]:
    """Reduce the grid to typed rows, in task order."""
    return [ClusterPoint(**result.unwrap()) for result in results]


def as_rows(points: Sequence[ClusterPoint]) -> List[Dict[str, Any]]:
    """JSON-ready form of the combined grid."""
    return [asdict(point) for point in points]


def main() -> None:
    print("Figure 15: cluster capacity and tail latency vs shards x rate")
    print(f"{'shards':>6} {'rate':>7} {'done':>6} {'shed%':>6} "
          f"{'rps':>8} {'p50':>8} {'p95':>9} {'p99 us':>9}")
    for point in combine(sweep(tasks())):
        print(f"{point.shards:>6} {point.rate_rps:>7.0f} "
              f"{point.completed:>6} {100 * point.shed_fraction:>6.2f} "
              f"{point.throughput_rps:>8.0f} "
              f"{point.response_p50_us:>8.1f} "
              f"{point.response_p95_us:>9.1f} "
              f"{point.response_p99_us:>9.1f}")


if __name__ == "__main__":
    main()

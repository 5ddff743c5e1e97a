"""Figure 16 (extension): availability vs replication under chaos.

The paper argues a Flash-cached server rides through device-level
trouble (graceful degradation, scrubbing); this experiment asks the
fleet-level question: how much replication does a *cluster* of them
need to ride through server-level trouble?  One fixed
kill→cascade→repair timeline — shard 1 dies mid-run, survivor shard 2
dies later (absorbing and then re-bouncing failover traffic), shard 1
rejoins repaired near the end with a background catch-up sync — is
replayed at replication factors R ∈ {1, 2, 3}, and per R we report the
request accounting split (completed / shed / lost reads / lost writes /
redirected) and the response-time tail.

Expected shape: at R=1 every read in flight on a dying shard is lost —
its only copy's connection died with it.  At R≥2 lost reads drop to
zero: the orchestrator reclassifies each one as a replica retry served
by a surviving sibling, at the price of write fan-out (``arrivals``
counts one op per replica per write) and a slightly deeper redirect
stream.  Repair is visible in the sync columns: the rejoined shard
streams back exactly the keys that moved away while it was dead.

Spawn-safety: one task per replication factor; each worker rebuilds the
whole cluster from scenario primitives and runs it with ``workers=1``
(the nested sweep takes the serial path).  Results are byte-identical
at any outer worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence

from ..cluster import ClusterScenario, run_cluster
from ..parallel import SweepResult, SweepTask, sweep

__all__ = ["AvailabilityPoint", "PAPER_REPLICAS", "tasks", "combine",
           "as_rows"]

#: The figure's axis: replication factors replayed over one timeline.
PAPER_REPLICAS = (1, 2, 3)

#: Timeline fractions of the run: first kill, cascade kill, repair.
KILL_FRACTION = 0.3
CASCADE_FRACTION = 0.6
REJOIN_FRACTION = 0.8


@dataclass(frozen=True)
class AvailabilityPoint:
    """One replication factor's run over the chaos timeline."""

    replicas: int
    requests: int
    planned_ops: int
    completed: int
    shed: int
    lost_reads: int
    lost_writes: int
    redirected: int
    sync_completed: int
    throughput_rps: float
    response_p50_us: float
    response_p95_us: float
    response_p99_us: float


def _availability_task(replicas: int, shards: int, rate_rps: float,
                       duration_s: float, workload: str,
                       footprint_pages: int, queue_depth: int,
                       shed_queue: int, seed: int) -> Dict[str, Any]:
    """Worker entry point: one replication factor = one cluster run."""
    duration_us = duration_s * 1e6
    scenario = ClusterScenario(
        shards=shards, rate_rps=rate_rps, duration_s=duration_s,
        workload=workload, footprint_pages=footprint_pages,
        queue_depth=queue_depth, shed_queue=shed_queue,
        replicas=replicas,
        kill_shard=1, kill_at_us=KILL_FRACTION * duration_us,
        cascade=((2, CASCADE_FRACTION * duration_us),),
        rejoin_at_us=REJOIN_FRACTION * duration_us,
        seed=seed)
    result = run_cluster(scenario, workers=1)
    return {
        "replicas": replicas,
        "requests": result.requests,
        "planned_ops": result.arrivals,
        "completed": result.completed,
        "shed": result.shed,
        "lost_reads": result.lost_reads,
        "lost_writes": result.lost_writes,
        "redirected": result.redirected,
        "sync_completed": result.sync_completed,
        "throughput_rps": result.throughput_rps,
        "response_p50_us": result.response.p50,
        "response_p95_us": result.response.p95,
        "response_p99_us": result.response.p99,
    }


def tasks(
    replicas: Sequence[int] = PAPER_REPLICAS,
    shards: int = 5,
    rate_rps: float = 9000.0,
    duration_s: float = 0.4,
    workload: str = "specweb99",
    footprint_pages: int = 4096,
    queue_depth: int = 4,
    shed_queue: int = 16,
    seed: int = 23,
) -> List[SweepTask]:
    """The Figure 16 axis, one task per replication factor.

    The default fleet of 5 keeps 3 shards live at the darkest moment
    (two simultaneous corpses), so R=3 remains placeable throughout.
    """
    return [SweepTask(key=f"fig16:replicas={r}",
                      fn=_availability_task,
                      kwargs={"replicas": r, "shards": shards,
                              "rate_rps": rate_rps,
                              "duration_s": duration_s,
                              "workload": workload,
                              "footprint_pages": footprint_pages,
                              "queue_depth": queue_depth,
                              "shed_queue": shed_queue, "seed": seed})
            for r in replicas]


def combine(results: Sequence[SweepResult]) -> List[AvailabilityPoint]:
    """Reduce the axis to typed rows, in task order."""
    return [AvailabilityPoint(**result.unwrap()) for result in results]


def as_rows(points: Sequence[AvailabilityPoint]) -> List[Dict[str, Any]]:
    """JSON-ready form of the combined axis."""
    return [asdict(point) for point in points]


def main() -> None:
    print("Figure 16: availability vs replication under "
          "kill→cascade→repair")
    print(f"{'R':>2} {'ops':>6} {'done':>6} {'shed':>5} {'lostR':>5} "
          f"{'lostW':>5} {'redir':>5} {'sync':>5} {'p99 us':>9}")
    for point in combine(sweep(tasks())):
        print(f"{point.replicas:>2} {point.planned_ops:>6} "
              f"{point.completed:>6} {point.shed:>5} "
              f"{point.lost_reads:>5} {point.lost_writes:>5} "
              f"{point.redirected:>5} {point.sync_completed:>5} "
              f"{point.response_p99_us:>9.1f}")


if __name__ == "__main__":
    main()

"""``repro.cluster`` — a sharded Flash-cache service (DESIGN.md §15).

The paper's headline results are server-level; the ROADMAP's north star
is "heavy traffic from millions of users".  This package scales the
single-node hierarchy out: a consistent-hash front-end routes open-loop
traffic across N simulated Flash-cache shards (one process per shard via
the parallel runner), with queue-depth admission control, replicated
keys (R > 1), degraded-shard failover, survivor cascades, and
repair/re-admission reusing the fault-injection and reliability models.

Layers:

* :mod:`~repro.cluster.arrivals` — open-loop traffic plans (steady,
  diurnal, flash crowd, drain);
* :mod:`~repro.cluster.ring`     — SHA-256 consistent-hash routing with
  replica sets (``route_replicas``);
* :mod:`~repro.cluster.chaos`    — scripted kill/rejoin timelines
  (:class:`ChaosSchedule`);
* :mod:`~repro.cluster.errors`   — the typed :class:`ClusterError`;
* :mod:`~repro.cluster.shard`    — the per-shard open-loop engine with
  shedding, retirement, and background catch-up sync;
* :mod:`~repro.cluster.cluster`  — N-stage failover/repair orchestration
  and aggregation (:func:`run_cluster`);
* :mod:`~repro.cluster.feed`     — deterministic JSONL/CSV telemetry
  feeds.
"""

from .arrivals import ARRIVAL_PATTERNS, build_arrivals
from .chaos import ChaosSchedule, KillSpec, RejoinSpec
from .cluster import ClusterResult, ClusterScenario, run_cluster
from .errors import ClusterError
from .feed import feed_lines, write_feed_csv, write_feed_jsonl
from .ring import HashRing
from .shard import run_shard

__all__ = [
    "ARRIVAL_PATTERNS",
    "build_arrivals",
    "ChaosSchedule",
    "KillSpec",
    "RejoinSpec",
    "ClusterError",
    "ClusterResult",
    "ClusterScenario",
    "run_cluster",
    "feed_lines",
    "write_feed_csv",
    "write_feed_jsonl",
    "HashRing",
    "run_shard",
]

"""Cluster orchestration: plan, fan out, cascade, repair, aggregate.

:func:`run_cluster` simulates a consistent-hash cluster of Flash-cache
shards under one open-loop traffic plan:

1. **Plan** (serial, deterministic): sample the arrival process
   (:mod:`repro.cluster.arrivals`) and route every request onto the
   :class:`~repro.cluster.ring.HashRing`.  With ``replicas`` R > 1 each
   key owns the first R distinct live shards clockwise of its hash:
   reads go to the first live replica, writes fan out to all of them
   (``planned_ops`` counts the fan-out).  Membership is time-aware — the
   :class:`~repro.cluster.chaos.ChaosSchedule` says which shards are
   dead at each instant, so post-kill arrivals route around corpses and
   post-rejoin arrivals flow back to the repaired shard.  Catch-up sync
   streams (the rejoiner's moved keys, plus the paired source reads on
   the shards that held them) are also planned here, as background
   traffic at the rejoin instant;
2. **Scripted stages**: kills grouped by identical instant run in
   ascending kill order.  Each stage returns the arrivals it could not
   serve after retirement; those redirects (and, at R > 1, in-flight
   reads reclassified as replica retries) are merged into the streams of
   nodes that have not run yet — which includes *later* kill victims, so
   a survivor absorbing failover traffic can itself die mid-run and
   bounce that traffic onward (a survivor cascade);
3. **Organic stage**: the aged shard (fault/reliability ladder with
   ``retire_on_degraded``) runs after every scripted stage, so its
   redirect targets are known-final.  Failover traffic never routes *to*
   the organic-risk shard — the membership service already flags it;
4. **Serving stage**: the healthy shards plus the rejoined incarnation
   of every repaired shard (cold device, freshly derived seeds,
   foreground stream starting at the rejoin instant, background sync
   warming its moved keys back in);
5. **Aggregate**: merge incarnations per shard id, then histograms,
   telemetry, and time buckets in shard-id order, asserting the
   replica-aware accounting identity — every planned operation (reads
   once, writes once per replica) terminates exactly once::

       planned_ops == sum(completed) + sum(shed) + sum(lost)
       planned_ops == sum(arrived)   - sum(redirected)

Because every stage fans out through :func:`repro.parallel.sweep` with
module-level task functions and plain-data kwargs, the entire result —
feed included — is byte-identical at any ``workers`` setting, and an
R=1 scenario with no cascade or rejoin reproduces the PR-8 two-stage
planner's results exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from ..parallel import SweepResult, SweepTask, merge_telemetry, sweep
from ..telemetry import LatencyHistogram, Telemetry
from .arrivals import ARRIVAL_PATTERNS, Arrival, build_arrivals
from .chaos import ChaosSchedule
from .errors import ClusterError
from .ring import HashRing
from .shard import run_shard

__all__ = ["ClusterScenario", "ClusterResult", "run_cluster"]

#: Orchestration progress events (parent process only, never pickled):
#: ``{"kind": "stage"|"shard", ...}``.
ProgressCallback = Callable[[Dict[str, Any]], None]

#: Per-bucket row layout produced by the shard engine.
_BUCKET_FIELDS = ("arrivals", "completed", "shed", "lost", "redirected",
                  "response_sum_us", "response_max_us")

#: One schedulable engine run: ``(shard_id, incarnation)``.  Incarnation
#: 0 is the shard's original run; incarnation 1 is its post-repair rerun.
_Node = Tuple[int, int]

#: Outcome counters summed when merging a shard's incarnations.
_SUMMED_KEYS = ("arrivals", "completed", "shed", "lost", "lost_reads",
                "lost_writes", "redirected", "sync_arrived",
                "sync_completed", "sync_lost", "sync_skipped",
                "channel_stalls", "gc_events", "scrub_events")

#: Outcome device-health fields reported from the newest incarnation
#: (a repaired shard is new hardware; the old device left the fleet).
_LATEST_KEYS = ("flash_miss_rate", "live_capacity", "degraded",
                "retired_blocks", "recovered_faults",
                "unrecovered_faults", "read_retries",
                "uncorrectable_reads")


@dataclass(frozen=True)
class ClusterScenario:
    """One cluster configuration: traffic plan, shard fleet, failures."""

    shards: int = 3
    pattern: str = "steady"
    #: Peak arrival rate across the whole cluster (requests/second).
    rate_rps: float = 4000.0
    duration_s: float = 1.0
    workload: str = "specweb99"
    footprint_pages: int = 16384
    # -- per-shard platform --------------------------------------------------
    dram_bytes: int = 4 << 20
    flash_bytes: int = 16 << 20
    queue_depth: int = 8
    channels: int = 2
    planes: int = 2
    #: Host wait-queue length beyond the window before requests shed.
    shed_queue: int = 64
    #: Replication factor: each key's first R distinct ring successors.
    replicas: int = 1
    # -- failure script ------------------------------------------------------
    #: Shard to kill mid-run (None = no scripted failure).
    kill_shard: Optional[int] = None
    #: Kill instant (us); defaults to mid-run when ``kill_shard`` is set.
    kill_at_us: Optional[float] = None
    #: Additional scripted kills ``(shard, at_us)`` — survivor cascades.
    cascade: Tuple[Tuple[int, float], ...] = ()
    #: Instant the repaired ``kill_shard`` rejoins the ring (None =
    #: stays dead).  Triggers the catch-up sync of its moved keys.
    rejoin_at_us: Optional[float] = None
    #: Shard carrying the PR-1 fault ladder / PR-6 reliability model.
    aged_shard: Optional[int] = None
    aged_fault_rate: float = 0.0
    aged_reliability_rate: float = 0.0
    #: Whether the aged shard leaves the cluster when degradation trips.
    retire_on_degraded: bool = True
    # -- observability -------------------------------------------------------
    bucket_ms: float = 50.0
    sample_interval: int = 1000
    vnodes: int = 64
    seed: int = 42

    def effective_kill_at_us(self) -> Optional[float]:
        if self.kill_shard is None:
            return None
        if self.kill_at_us is not None:
            return self.kill_at_us
        return self.duration_s * 1e6 / 2.0

    def chaos(self) -> ChaosSchedule:
        """The scenario's scripted failure/repair timeline."""
        return ChaosSchedule.from_scenario(
            self.kill_shard, self.effective_kill_at_us(),
            self.cascade, self.rejoin_at_us)


@dataclass
class ClusterResult:
    """Aggregated outcome of one cluster run."""

    scenario: Dict[str, Any]
    #: Planned operations: one per read, one per replica per write.
    #: Equals the client request count when ``replicas`` is 1.
    arrivals: int
    completed: int
    shed: int
    lost: int
    redirected: int
    span_us: float
    throughput_rps: float
    response: LatencyHistogram
    queue_delay: LatencyHistogram
    #: Distinct client requests (before write fan-out).
    requests: int = 0
    #: Loss split: reads lost in flight are recoverable at R > 1 (and
    #: then counted as ``redirected`` retries instead); writes lost on
    #: one replica stay lost there even though sibling copies landed.
    lost_reads: int = 0
    lost_writes: int = 0
    # -- repair/catch-up traffic (background, outside the identity) ----------
    sync_arrived: int = 0
    sync_completed: int = 0
    sync_lost: int = 0
    sync_skipped: int = 0
    #: Per-shard summaries (shard-id order), incarnations merged, each
    #: with its own buckets.
    shards: List[Dict[str, Any]] = field(default_factory=list)
    #: Merged per-shard telemetry (counters, histograms, sampler series).
    telemetry: Optional[Telemetry] = None

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    def bucket_rows(self) -> List[Dict[str, Any]]:
        """Time-bucketed feed rows: per-shard rows then a cluster row
        per bucket, ordered by (time, shard) — the deterministic body of
        the JSON/CSV feed."""
        bucket_ms = self.scenario["bucket_ms"]
        merged: Dict[int, List[float]] = {}
        rows: List[Dict[str, Any]] = []
        for shard in self.shards:
            for index, values in shard["buckets"].items():
                rows.append(self._row(bucket_ms, index, str(shard["shard_id"]),
                                      values))
                into = merged.setdefault(index, [0, 0, 0, 0, 0, 0.0, 0.0])
                for position, value in enumerate(values):
                    into[position] += value
        for index, values in merged.items():
            # A redirected arrival was counted at its origin *and* again
            # at the shard that finally served it; the cluster view
            # counts it once.
            cluster_values = list(values)
            cluster_values[0] -= cluster_values[4]
            cluster_values[6] = max(
                shard["buckets"][index][6] for shard in self.shards
                if index in shard["buckets"])
            rows.append(self._row(bucket_ms, index, "cluster",
                                  cluster_values))
        rows.sort(key=lambda row: (row["t_ms"],
                                   -1 if row["shard"] == "cluster"
                                   else int(row["shard"])))
        return rows

    @staticmethod
    def _row(bucket_ms: float, index: int, shard: str,
             values: Sequence[float]) -> Dict[str, Any]:
        completed = int(values[1])
        row: Dict[str, Any] = {"t_ms": index * bucket_ms, "shard": shard}
        for name, value in zip(_BUCKET_FIELDS[:5], values[:5]):
            row[name] = int(value)
        row["mean_response_us"] = (round(values[5] / completed, 3)
                                   if completed else 0.0)
        row["max_response_us"] = round(values[6], 3)
        return row

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready document (histograms reduced to percentiles)."""
        return {
            "scenario": self.scenario,
            "totals": {
                "arrivals": self.arrivals,
                "requests": self.requests,
                "completed": self.completed,
                "shed": self.shed,
                "lost": self.lost,
                "lost_reads": self.lost_reads,
                "lost_writes": self.lost_writes,
                "redirected": self.redirected,
                "sync_arrived": self.sync_arrived,
                "sync_completed": self.sync_completed,
                "sync_lost": self.sync_lost,
                "sync_skipped": self.sync_skipped,
                "shed_fraction": round(self.shed_fraction, 6),
                "span_us": round(self.span_us, 3),
                "throughput_rps": round(self.throughput_rps, 3),
            },
            "latency": {
                "response_mean_us": round(self.response.mean, 3),
                "response_p50_us": round(self.response.p50, 3),
                "response_p95_us": round(self.response.p95, 3),
                "response_p99_us": round(self.response.p99, 3),
                "queue_delay_mean_us": round(self.queue_delay.mean, 3),
                "queue_delay_p99_us": round(self.queue_delay.p99, 3),
            },
            "shards": [self._shard_dict(shard) for shard in self.shards],
            "buckets": self.bucket_rows(),
        }

    @staticmethod
    def _shard_dict(shard: Dict[str, Any]) -> Dict[str, Any]:
        out = {key: value for key, value in shard.items()
               if key != "buckets"}
        return out


def _validate(scenario: ClusterScenario, chaos: ChaosSchedule) -> None:
    if scenario.shards < 1:
        raise ValueError("shards must be >= 1")
    for name in ("rate_rps", "duration_s", "bucket_ms"):
        value = getattr(scenario, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value!r}")
    for name in ("aged_fault_rate", "aged_reliability_rate"):
        if not 0.0 <= getattr(scenario, name) <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], "
                             f"got {getattr(scenario, name)!r}")
    if scenario.shed_queue < 0:
        raise ValueError(f"shed_queue must be >= 0, "
                         f"got {scenario.shed_queue}")
    if scenario.pattern not in ARRIVAL_PATTERNS:
        raise ValueError(f"unknown arrival pattern {scenario.pattern!r}; "
                         f"known: {', '.join(ARRIVAL_PATTERNS)}")
    if scenario.replicas < 1:
        raise ClusterError("replicas must be >= 1")
    if scenario.replicas > scenario.shards:
        raise ClusterError(
            f"replicas={scenario.replicas} exceeds the fleet of "
            f"{scenario.shards} shard(s)")
    if scenario.aged_shard is not None \
            and not 0 <= scenario.aged_shard < scenario.shards:
        raise ValueError(f"aged_shard={scenario.aged_shard} outside the "
                         f"fleet (0..{scenario.shards - 1})")
    chaos.validate_fleet(scenario.shards)
    # Replication must survive the darkest scripted moment (membership
    # only changes at kill/rejoin instants, so checking those suffices).
    for kill in chaos.kills:
        live = scenario.shards - len(chaos.dead_at(kill.at_us))
        if live < scenario.replicas:
            raise ClusterError(
                f"replicas={scenario.replicas} cannot be placed on the "
                f"{live} shard(s) live at t={kill.at_us:g}us")


def _organic_risk(scenario: ClusterScenario,
                  chaos: ChaosSchedule) -> List[int]:
    """Shards that may retire *organically* mid-run (no scripted kill)."""
    if (scenario.aged_shard is not None and scenario.retire_on_degraded
            and (scenario.aged_fault_rate > 0.0
                 or scenario.aged_reliability_rate > 0.0)
            and scenario.aged_shard not in chaos.killed_shards):
        return [scenario.aged_shard]
    return []


def _stage_plan(scenario: ClusterScenario, chaos: ChaosSchedule,
                ) -> List[Tuple[str, List[_Node]]]:
    """The deterministic stage order: scripted kill groups ascending,
    then the organic-risk group, then the serving group (healthy shards
    plus rejoined incarnations)."""
    plan: List[Tuple[str, List[_Node]]] = []
    for at_us, members in chaos.stages():
        plan.append((f"kill@{at_us:g}us",
                     [(shard, 0) for shard in members]))
    organic = _organic_risk(scenario, chaos)
    if organic:
        plan.append(("organic", [(shard, 0) for shard in organic]))
    killed = set(chaos.killed_shards)
    serving: List[_Node] = [
        (shard, 0) for shard in range(scenario.shards)
        if shard not in killed and shard not in organic]
    serving.extend((rejoin.shard, 1)
                   for rejoin in sorted(chaos.rejoins,
                                        key=lambda spec: spec.shard))
    serving.sort()
    plan.append(("serving", serving))
    return plan


def _shard_task(scenario: ClusterScenario, node: _Node,
                stream: List[Arrival], sync_stream: List[Arrival],
                chaos: ChaosSchedule) -> SweepTask:
    shard_id, incarnation = node
    aged = incarnation == 0 and shard_id == scenario.aged_shard
    if incarnation == 0:
        key = f"cluster:shard={shard_id}"
        fail_at_us = chaos.kill_at(shard_id)
        rejoin_at_us = None
    else:
        key = f"cluster:shard={shard_id}:rejoin"
        fail_at_us = None
        rejoin_at_us = chaos.rejoin_at(shard_id)
    return SweepTask(
        key=key,
        fn=run_shard,
        kwargs={
            "shard_id": shard_id,
            "arrivals": stream,
            "dram_bytes": scenario.dram_bytes,
            "flash_bytes": scenario.flash_bytes,
            "queue_depth": scenario.queue_depth,
            "channels": scenario.channels,
            "planes": scenario.planes,
            "shed_queue": scenario.shed_queue,
            "fail_at_us": fail_at_us,
            "retire_on_degraded": aged and scenario.retire_on_degraded,
            "fault_rate": scenario.aged_fault_rate if aged else 0.0,
            "reliability_rate": (scenario.aged_reliability_rate
                                 if aged else 0.0),
            "bucket_us": scenario.bucket_ms * 1000.0,
            "sample_interval": scenario.sample_interval,
            "seed": scenario.seed,
            "sync_arrivals": sync_stream,
            "rejoin_at_us": rejoin_at_us,
            "incarnation": incarnation,
        })


def _run_stage(scenario: ClusterScenario, stage: str, nodes: List[_Node],
               streams: Dict[_Node, List[Arrival]],
               sync_streams: Dict[_Node, List[Arrival]],
               chaos: ChaosSchedule, workers: int,
               progress: Optional[ProgressCallback],
               ) -> Dict[_Node, Dict[str, Any]]:
    """Fan one stage's nodes out through the parallel runner."""
    if not nodes:
        return {}
    if progress is not None:
        progress({"kind": "stage", "stage": stage,
                  "shards": [shard for shard, _ in nodes]})
    tasks = [_shard_task(scenario, node, streams[node],
                         sync_streams.get(node, []), chaos)
             for node in nodes]
    stage_progress: Optional[Callable[[SweepResult, int, int], None]] = None
    if progress is not None:
        callback = progress

        def _stage_progress(result: SweepResult, done: int,
                            total: int) -> None:
            callback({"kind": "shard", "stage": stage, "key": result.key,
                      "ok": result.ok, "done": done, "total": total})
        stage_progress = _stage_progress
    results = sweep(tasks, workers=workers, progress=stage_progress)
    return {node: result.unwrap()
            for node, result in zip(nodes, results)}


class _Epoch(NamedTuple):
    """One liveness epoch ``[start_us, end_us)``: no kill or rejoin
    happens inside it, so its dead set and each shard's serving node
    (``nodes[shard]``) hold for every arrival in it."""

    start_us: float
    end_us: float
    dead: FrozenSet[int]
    nodes: Tuple[_Node, ...]


class _Planner:
    """Time-aware routing shared by the plan and failover phases."""

    def __init__(self, scenario: ClusterScenario,
                 chaos: ChaosSchedule) -> None:
        self.scenario = scenario
        self.chaos = chaos
        self.ring = HashRing(range(scenario.shards),
                             vnodes=scenario.vnodes)
        self.organic = frozenset(_organic_risk(scenario, chaos))
        self._instants = chaos.change_instants()
        #: Shard ids whose incarnation-0 run has started (or finished) —
        #: their original streams can no longer accept failover traffic.
        self.started: Set[int] = set()

    def node_for(self, shard: int, time_us: float) -> _Node:
        """Which incarnation of ``shard`` serves an arrival at ``time_us``."""
        rejoin_us = self.chaos.rejoin_at(shard)
        if rejoin_us is not None and time_us >= rejoin_us:
            return (shard, 1)
        return (shard, 0)

    def epoch_at(self, time_us: float) -> _Epoch:
        """The liveness epoch containing ``time_us``.  A kill or rejoin
        instant opens the epoch it starts: a shard is dead from its kill
        instant inclusive and incarnation 1 from its rejoin instant
        inclusive, exactly as :meth:`ChaosSchedule.dead_at` and
        :meth:`node_for` answer at that instant."""
        instants = self._instants
        index = bisect.bisect_right(instants, time_us)
        start_us = instants[index - 1] if index else -math.inf
        end_us = instants[index] if index < len(instants) else math.inf
        return _Epoch(start_us, end_us, self.chaos.dead_at(start_us),
                      tuple(self.node_for(shard, start_us)
                            for shard in range(self.scenario.shards)))

    def failover_node(self, page: int, time_us: float) -> _Node:
        """Where failover traffic (a redirect or a replica retry) at
        ``time_us`` goes: the page's first ring successor that is alive,
        has not already run, and is not flagged as organic risk.  Raises
        :class:`ClusterError` when no such shard exists."""
        exclusion: Set[int] = set(self.chaos.dead_at(time_us))
        exclusion |= self.organic
        for shard in sorted(self.started):
            rejoin_us = self.chaos.rejoin_at(shard)
            if rejoin_us is None or time_us < rejoin_us:
                exclusion.add(shard)
        target = self.ring.route(page, exclude=exclusion)
        return self.node_for(target, time_us)


def _plan_streams(planner: _Planner, arrivals: List[Arrival],
                  ) -> Tuple[Dict[_Node, List[Arrival]], int]:
    """Route the traffic plan onto nodes; returns (streams, planned_ops).

    A read lands on its key's first live replica, a write on every live
    replica.  An epoch cursor walks the time-sorted arrivals: within a
    liveness epoch the dead set and the shard -> node map are fixed, so
    each distinct page is routed once per epoch and its replica tuple
    memoised until the cursor crosses into the next epoch.
    """
    chaos = planner.chaos
    streams: Dict[_Node, List[Arrival]] = {
        (shard, 0): [] for shard in range(planner.scenario.shards)}
    for rejoin in chaos.rejoins:
        streams[(rejoin.shard, 1)] = []
    route = planner.ring.route_replicas
    replicas = planner.scenario.replicas
    epoch = planner.epoch_at(-math.inf)
    routed: Dict[int, Tuple[int, ...]] = {}
    planned_ops = 0
    for arrival in arrivals:
        time_us, _, page, is_read = arrival
        if not epoch.start_us <= time_us < epoch.end_us:
            epoch = planner.epoch_at(time_us)
            routed = {}
        targets = routed.get(page)
        if targets is None:
            targets = routed[page] = route(page, replicas,
                                           exclude=epoch.dead)
        nodes = epoch.nodes
        if is_read:
            streams[nodes[targets[0]]].append(arrival)
            planned_ops += 1
        else:
            for shard in targets:
                streams[nodes[shard]].append(arrival)
            planned_ops += len(targets)
    return streams, planned_ops


def _plan_sync(planner: _Planner, arrivals: List[Arrival],
               ) -> Dict[_Node, List[Arrival]]:
    """Plan each rejoiner's catch-up: for every distinct page touched
    while it was dead whose replica set would have included it, one
    background write on the rejoined incarnation warming the key back
    in, paired with one background source read on the first live shard
    still holding it.  Minimal-move by construction: only the
    rejoiner's own keys travel.

    The "had it been up" test uses the same epoch cursor as
    :func:`_plan_streams`, so each page is tested at most once per
    liveness epoch."""
    chaos = planner.chaos
    route = planner.ring.route_replicas
    replicas = planner.scenario.replicas
    sync_streams: Dict[_Node, List[Arrival]] = {}
    for rejoin in sorted(chaos.rejoins, key=lambda spec: spec.shard):
        shard = rejoin.shard
        kill_us = chaos.kill_at(shard)
        assert kill_us is not None  # ChaosSchedule validated the pairing
        moved: Dict[int, None] = {}
        epoch = planner.epoch_at(kill_us)
        as_if_alive = epoch.dead - {shard}
        tested: Set[int] = set()
        for time_us, _, page, _ in arrivals:
            if not kill_us <= time_us < rejoin.at_us or page in moved:
                continue
            if not epoch.start_us <= time_us < epoch.end_us:
                epoch = planner.epoch_at(time_us)
                as_if_alive = epoch.dead - {shard}
                tested = set()
            if page in tested:
                continue  # already found not to live on the rejoiner
            tested.add(page)
            # Would this key have lived on the rejoiner, had it been up?
            if shard in route(page, replicas, exclude=as_if_alive):
                moved[page] = None
        at_rejoin = planner.epoch_at(rejoin.at_us)
        dead_at_rejoin = at_rejoin.dead | {shard}
        for seq, page in enumerate(moved):
            try:
                source = planner.ring.route(page, exclude=dead_at_rejoin)
            except ClusterError:
                continue  # nobody left to stream from; key stays cold
            sync_streams.setdefault((shard, 1), []).append(
                (rejoin.at_us, seq, page, False))
            sync_streams.setdefault(at_rejoin.nodes[source], []).append(
                (rejoin.at_us, seq, page, True))
    for stream in sync_streams.values():
        stream.sort(key=lambda a: (a[0], a[1]))
    return sync_streams


def _absorb_failover(planner: _Planner, nodes: List[_Node],
                     outcomes: Dict[_Node, Dict[str, Any]],
                     streams: Dict[_Node, List[Arrival]],
                     dirty: Set[_Node]) -> None:
    """Merge one finished stage's failover traffic into the streams of
    nodes still to run.

    Redirects (arrivals a retired shard bounced) reroute to the page's
    next eligible owner.  At R > 1, reads that were in flight when their
    shard was killed are *reclassified*: the data lives on a sibling
    replica, so the loss becomes a redirect and a retry arrival is
    issued at the kill instant on the first eligible replica — which may
    itself be a later cascade victim, in which case the retry bounces
    again when that stage runs.
    """
    replicas = planner.scenario.replicas
    for node in nodes:
        outcome = outcomes[node]
        for arrival in outcome["redirects"]:
            try:
                target = planner.failover_node(arrival[2], arrival[0])
            except ClusterError:
                raise ClusterError(
                    "every shard retired; failover traffic has nowhere "
                    "to go") from None
            streams[target].append(arrival)
            dirty.add(target)
        if replicas <= 1 or not outcome["inflight_reads"]:
            continue
        retired_us = outcome["retired_at_us"]
        for arrival, bucket_index in outcome["inflight_reads"]:
            try:
                target = planner.failover_node(arrival[2], retired_us)
            except ClusterError:
                continue  # no live replica left: the read stays lost
            outcome["lost"] -= 1
            outcome["lost_reads"] -= 1
            outcome["redirected"] += 1
            row = outcome["buckets"][bucket_index]
            row[3] -= 1
            row[4] += 1
            streams[target].append((retired_us, arrival[1], arrival[2],
                                    True))
            dirty.add(target)


def run_cluster(scenario: ClusterScenario, workers: int = 1,
                progress: Optional[ProgressCallback] = None,
                ) -> ClusterResult:
    """Simulate one cluster scenario; identical at any worker count."""
    chaos = scenario.chaos()
    _validate(scenario, chaos)
    arrivals = build_arrivals(scenario.pattern, scenario.rate_rps,
                              scenario.duration_s, scenario.workload,
                              scenario.footprint_pages, scenario.seed)
    planner = _Planner(scenario, chaos)
    streams, planned_ops = _plan_streams(planner, arrivals)
    sync_streams = _plan_sync(planner, arrivals)

    outcomes: Dict[_Node, Dict[str, Any]] = {}
    dirty: Set[_Node] = set()
    for stage, nodes in _stage_plan(scenario, chaos):
        for node in nodes:
            if node in dirty:
                streams[node].sort(key=lambda a: (a[0], a[1]))
                dirty.discard(node)
        outcomes.update(_run_stage(scenario, stage, nodes, streams,
                                   sync_streams, chaos, workers,
                                   progress))
        planner.started.update(shard for shard, incarnation in nodes
                               if incarnation == 0)
        _absorb_failover(planner, nodes, outcomes, streams, dirty)
    if dirty:
        raise RuntimeError(  # pragma: no cover - planner invariant
            f"failover traffic merged into already-run nodes: "
            f"{sorted(dirty)}")
    return _combine(scenario, len(arrivals), planned_ops, outcomes)


def _merge_incarnations(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold one shard's incarnation outcomes into a single summary."""
    merged = dict(parts[0])
    merged.pop("incarnation", None)
    merged["incarnations"] = len(parts)
    for later in parts[1:]:
        for key in _SUMMED_KEYS:
            merged[key] += later[key]
        for key in _LATEST_KEYS:
            merged[key] = later[key]
        merged["span_us"] = max(merged["span_us"], later["span_us"])
        merged["rejoined_at_us"] = later["rejoined_at_us"]
        buckets: Dict[int, List[float]] = {
            index: list(row) for index, row in merged["buckets"].items()}
        for index, row in later["buckets"].items():
            into = buckets.setdefault(index, [0, 0, 0, 0, 0, 0.0, 0.0])
            for position, value in enumerate(row):
                if position == 6:
                    into[position] = max(into[position], value)
                else:
                    into[position] += value
        merged["buckets"] = buckets
        merged["response"].merge(later["response"])
        merged["queue_delay"].merge(later["queue_delay"])
    return merged


def _combine(scenario: ClusterScenario, requests: int, planned_ops: int,
             outcomes: Dict[_Node, Dict[str, Any]]) -> ClusterResult:
    by_shard: Dict[int, List[Dict[str, Any]]] = {}
    for shard, incarnation in sorted(outcomes):
        by_shard.setdefault(shard, []).append(
            outcomes[(shard, incarnation)])
    ordered = [_merge_incarnations(parts)
               for _, parts in sorted(by_shard.items())]
    completed = sum(outcome["completed"] for outcome in ordered)
    shed = sum(outcome["shed"] for outcome in ordered)
    lost = sum(outcome["lost"] for outcome in ordered)
    redirected = sum(outcome["redirected"] for outcome in ordered)
    arrived = sum(outcome["arrivals"] for outcome in ordered)
    if completed + shed + lost != planned_ops \
            or arrived - redirected != planned_ops:
        raise RuntimeError(
            f"cluster lost-request accounting drift: planned "
            f"{planned_ops}, completed {completed} + shed {shed} + "
            f"lost {lost} (arrived {arrived}, redirected {redirected})")
    response = LatencyHistogram("cluster.response_us")
    queue_delay = LatencyHistogram("cluster.queue_delay_us")
    for outcome in ordered:
        response.merge(outcome["response"])
        queue_delay.merge(outcome["queue_delay"])
    span_us = max(outcome["span_us"] for outcome in ordered)
    shards = []
    for outcome in ordered:
        summary = {key: value for key, value in outcome.items()
                   if key not in ("redirects", "inflight_reads",
                                  "response", "queue_delay", "telemetry")}
        summary["response_p50_us"] = round(outcome["response"].p50, 3)
        summary["response_p95_us"] = round(outcome["response"].p95, 3)
        summary["response_p99_us"] = round(outcome["response"].p99, 3)
        summary["mean_queue_delay_us"] = round(
            outcome["queue_delay"].mean, 3)
        shards.append(summary)
    node_order = [outcomes[node] for node in sorted(outcomes)]
    return ClusterResult(
        scenario=asdict(scenario),
        arrivals=planned_ops,
        completed=completed,
        shed=shed,
        lost=lost,
        redirected=redirected,
        span_us=span_us,
        throughput_rps=(completed / (span_us * 1e-6) if span_us > 0
                        else 0.0),
        response=response,
        queue_delay=queue_delay,
        requests=requests,
        lost_reads=sum(outcome["lost_reads"] for outcome in ordered),
        lost_writes=sum(outcome["lost_writes"] for outcome in ordered),
        sync_arrived=sum(outcome["sync_arrived"] for outcome in ordered),
        sync_completed=sum(outcome["sync_completed"]
                           for outcome in ordered),
        sync_lost=sum(outcome["sync_lost"] for outcome in ordered),
        sync_skipped=sum(outcome["sync_skipped"] for outcome in ordered),
        shards=shards,
        telemetry=merge_telemetry(outcome["telemetry"]
                                  for outcome in node_order),
    )

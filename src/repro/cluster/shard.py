"""One cluster shard: an open-loop Flash cache engine with shedding.

A shard is a full single-node hierarchy (DRAM PDC + Flash disk cache +
disk) driven by the same event-loop machinery as
:mod:`repro.sim.concurrent`, but open-loop: arrivals come at absolute
instants from the front-end's traffic plan instead of being pulled by
freed window slots.  On top of the outstanding-request window the shard
adds the cluster behaviours:

* **admission control** — when the window is full a request waits in a
  FIFO host queue; when that queue reaches ``shed_queue`` the request is
  shed (rejected before touching the cache, as a loaded server would
  return 503 rather than grow its backlog without bound);
* **retirement** — a shard leaves the cluster either at a scripted
  instant (``fail_at_us``: requests still in flight are *lost*, later
  completions don't count) or organically when graceful degradation
  trips the cache into its bypass state (``retire_on_degraded`` with a
  PR-1 fault ladder or PR-6 reliability model attached).  Arrivals after
  retirement are returned to the orchestrator as *redirects* for the
  survivors.  In-flight *reads* lost to a scripted kill are additionally
  reported with their loss bucket (``inflight_reads``) so the
  orchestrator can retry them on a surviving replica when the key is
  replicated (R > 1) — the read's data exists elsewhere, only this
  connection died;
* **repair** — a previously killed shard re-admitted at
  ``rejoin_at_us`` runs as a fresh *incarnation* (cold device, new
  derived seeds) whose stream starts at the rejoin instant.  Its
  catch-up is driven by ``sync_arrivals``: background anti-entropy ops
  (writes on the rejoiner warming the moved keys back in, paired source
  reads on the neighbours that held them) that occupy window slots —
  delaying foreground traffic exactly like the PR-7 state/timing split
  charges GC — but never shed and never count in the foreground
  accounting identity.

Determinism: :func:`run_shard` is a module-level pure function of its
picklable arguments (simlint SIM004), so it fans out through
:func:`repro.parallel.sweep` with byte-identical results at any worker
count.  Every per-shard RNG stream is derived via
:func:`repro.parallel.derive_seed` (incarnations derive distinct
streams: a repaired device is new hardware).

Accounting invariants, asserted at the end of every run::

    arrivals      == completed + shed + lost + redirected
    sync_arrived  == sync_completed + sync_lost + sync_skipped
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Any, DefaultDict, Deque, Dict, List, Optional, Sequence, \
    Tuple

from ..core.hierarchy import build_flash_system, FlashBackedSystem
from ..faults.injector import FaultConfig
from ..flash.channels import ChannelConfig
from ..parallel import derive_seed
from ..reliability import ReliabilityConfig
from ..sim.concurrent import EventEngine
from ..sim.events import EventType
from ..telemetry import LatencyHistogram, Telemetry, TraceSampler
from .arrivals import Arrival

__all__ = ["run_shard"]

#: Posted as plain ints, which index the loop's tables fastest.
_ARRIVE = int(EventType.ARRIVE)
_SYNC = int(EventType.SYNC)

#: A COMPLETE payload: the arrival, whether it is background catch-up
#: work, and its service latency (us).
_Payload = Tuple[Arrival, bool, float]


class _ShardEngine(EventEngine):
    """One shard run's event-loop state (not reusable).

    Handlers take simulated time only from the loop, which passes it as
    their first argument (simlint SIM010); ties resolve in posting
    order.  Arrivals chain: each ARRIVE handler posts the next arrival
    at its absolute instant, so the heap holds one future arrival at a
    time (the sync stream chains the same way through SYNC events).
    Admission and dispatch are the concurrent engine's
    (:class:`repro.sim.concurrent.EventEngine`); a COMPLETE payload is
    the tuple ``(arrival, background, service_us)``.  A request that
    must wait in the host queue keeps its own op log: the run's log is
    swapped for a fresh list, and the waiter's ops are placed when a
    slot frees.
    """

    def __init__(self, system: FlashBackedSystem,
                 arrivals: Sequence[Arrival], queue_depth: int,
                 config: ChannelConfig, shed_queue: int,
                 fail_at_us: Optional[float], retire_on_degraded: bool,
                 bucket_us: float,
                 sync_arrivals: Sequence[Arrival] = (),
                 rejoin_at_us: Optional[float] = None) -> None:
        super().__init__(system, config)
        self.system: FlashBackedSystem = system
        self.queue_depth = queue_depth
        self.shed_queue = shed_queue
        self.fail_at_us = fail_at_us
        #: ``fail_at_us`` with ``+inf`` for "never": one compare per event.
        self._fail_us = math.inf if fail_at_us is None else fail_at_us
        self.retire_on_degraded = retire_on_degraded
        self.bucket_us = bucket_us
        self.rejoin_at_us = rejoin_at_us
        self.response = LatencyHistogram("response_us")
        self.queue_delay = LatencyHistogram("queue_delay_us")
        self._observe_response = self.response.observe
        self._observe_queue_delay = self.queue_delay.observe
        #: Requests waiting for a window slot: each COMPLETE payload
        #: with the request's own op log.
        self.wait: Deque[Tuple[_Payload, List[float]]] = deque()
        self.slots = 0
        self.arrived = 0
        self.completed = 0
        self.shed = 0
        self.lost = 0
        self.lost_reads = 0
        self.lost_writes = 0
        self.redirects: List[Arrival] = []
        #: In-flight reads lost to the scripted kill, with the bucket
        #: their loss was charged to — the orchestrator may reclassify
        #: them as replica retries when R > 1.
        self.inflight_reads: List[Tuple[Arrival, int]] = []
        #: Simulated instant the shard left the cluster, if it did.
        self.retired_at_us: Optional[float] = None
        self.sync_arrived = 0
        self.sync_completed = 0
        self.sync_lost = 0
        self.sync_skipped = 0
        self._source = iter(arrivals)
        self._sync_source = iter(sync_arrivals)
        #: Per-time-bucket rows, keyed by ``int(time_us // bucket_us)``:
        #: [arrivals, completed, shed, lost, redirected, response_sum_us,
        #: response_max_us].
        self.buckets: DefaultDict[int, List[float]] = defaultdict(
            lambda: [0, 0, 0, 0, 0, 0.0, 0.0])
        loop = self.loop
        loop.register(EventType.ARRIVE, self._on_arrive)
        loop.register(EventType.COMPLETE, self._on_complete)
        loop.register(EventType.SYNC, self._on_sync)

    def _post_next_arrival(self) -> None:
        arrival = next(self._source, None)
        if arrival is not None:
            self._post_at(arrival[0], _ARRIVE, arrival)

    def _post_next_sync(self) -> None:
        arrival = next(self._sync_source, None)
        if arrival is not None:
            self._post_at(arrival[0], _SYNC, arrival)

    # -- event handlers ------------------------------------------------------

    def _on_arrive(self, now_us: float, arrival: Arrival) -> None:
        self.arrived += 1
        bucket = self.buckets[int(now_us // self.bucket_us)]
        bucket[0] += 1
        if self.retired_at_us is None and now_us >= self._fail_us:
            self.retired_at_us = self.fail_at_us
        if self.retired_at_us is not None:
            # The shard is out of the cluster; hand the request back to
            # the orchestrator for re-routing across the survivors.
            self.redirects.append(arrival)
            bucket[4] += 1
        elif self.slots >= self.queue_depth \
                and len(self.wait) >= self.shed_queue:
            self.shed += 1
            bucket[2] += 1
        else:
            self._admit_arrival(now_us, arrival)
        self._post_next_arrival()

    def _on_sync(self, now_us: float, arrival: Arrival) -> None:
        self.sync_arrived += 1
        if self.retired_at_us is not None:
            # A sync source that has itself left the cluster cannot
            # stream pages; the orchestrator's plan was optimistic.
            self.sync_skipped += 1
        else:
            self._admit_arrival(now_us, arrival, background=True)
        self._post_next_sync()

    def _admit_arrival(self, now_us: float, arrival: Arrival,
                       background: bool = False) -> None:
        # Functional execution at admission, in arrival order — the same
        # state/timing split as run_trace_concurrent, so cache contents
        # are a pure function of the admitted request sequence.
        service_us = self._execute(arrival[2], arrival[3])
        payload = (arrival, background, service_us)
        if self.slots < self.queue_depth:
            self.slots += 1
            self._dispatch(now_us + self._cpu_us, service_us, self._ops,
                           payload)
        else:
            # The window is full: the request waits in the host queue,
            # undispatched, keeping its ops; the run's log starts afresh.
            self.wait.append((payload, self._ops))
            self._ops = self.system.flash.controller.device.op_log = []
        # Graceful degradation may have tripped while serving this very
        # request; admitted work completes, later arrivals redirect.
        if (not background and self.retire_on_degraded
                and self.retired_at_us is None
                and self.system.flash.degraded):
            self.retired_at_us = now_us

    def _on_complete(self, now_us: float, payload: _Payload) -> None:
        arrival, background, service_us = payload
        if background:
            if now_us > self._fail_us:
                self.sync_lost += 1
            else:
                self.sync_completed += 1
        else:
            bucket = self.buckets[int(now_us // self.bucket_us)]
            if now_us > self._fail_us:
                # In flight when the shard died: the work happened, the
                # response never left the building.  A lost *read* is
                # recoverable on another replica — report it with its
                # loss bucket so the orchestrator can retry it there.
                self.lost += 1
                bucket[3] += 1
                if arrival[3]:
                    self.lost_reads += 1
                    self.inflight_reads.append(
                        (arrival, int(now_us // self.bucket_us)))
                else:
                    self.lost_writes += 1
            else:
                self.completed += 1
                response_us = now_us - arrival[0]
                self._observe_response(response_us)
                self._observe_queue_delay(
                    response_us - service_us - self._cpu_us)
                bucket[1] += 1
                bucket[5] += response_us
                if response_us > bucket[6]:
                    bucket[6] = response_us
        self.slots -= 1
        if self.wait:
            # The freed slot picks up the oldest waiter; it pays the
            # same host CPU step an immediately-admitted request does.
            self.slots += 1
            waiting, ops = self.wait.popleft()
            self._dispatch(now_us + self._cpu_us, waiting[2], ops, waiting)

    # -- driving -------------------------------------------------------------

    def _start(self) -> None:
        """Post the first arrival and the first catch-up op."""
        self._post_next_arrival()
        self._post_next_sync()

    def run(self) -> float:
        """Chain arrivals through the loop; returns the makespan (us),
        which reaches a rejoined incarnation's rejoin instant even when
        no traffic came after it."""
        span_us = super().run()
        if self.rejoin_at_us is not None and span_us < self.rejoin_at_us:
            span_us = self.rejoin_at_us
        if self.fail_at_us is not None and self.retired_at_us is None:
            # A scripted kill happens whether or not any arrival landed
            # after it (the front-end routes around a dead shard).
            self.retired_at_us = self.fail_at_us
        accounted = (self.completed + self.shed + self.lost
                     + len(self.redirects))
        if accounted != self.arrived:
            raise RuntimeError(
                f"shard accounting drift: {self.arrived} arrivals vs "
                f"{self.completed} completed + {self.shed} shed + "
                f"{self.lost} lost + {len(self.redirects)} redirected")
        sync_accounted = (self.sync_completed + self.sync_lost
                         + self.sync_skipped)
        if sync_accounted != self.sync_arrived:
            raise RuntimeError(
                f"shard sync accounting drift: {self.sync_arrived} sync "
                f"arrivals vs {self.sync_completed} completed + "
                f"{self.sync_lost} lost + {self.sync_skipped} skipped")
        return span_us


def run_shard(shard_id: int, arrivals: List[Arrival], dram_bytes: int,
              flash_bytes: int, queue_depth: int, channels: int,
              planes: int, shed_queue: int, fail_at_us: Optional[float],
              retire_on_degraded: bool, fault_rate: float,
              reliability_rate: float, bucket_us: float,
              sample_interval: int, seed: int,
              sync_arrivals: Optional[List[Arrival]] = None,
              rejoin_at_us: Optional[float] = None,
              incarnation: int = 0) -> Dict[str, Any]:
    """Simulate one shard's run; the cluster sweep's worker entry point.

    Returns a picklable outcome dict: request accounting, latency
    histograms, per-time-bucket rows, redirected arrivals and lost
    in-flight reads (for the orchestrator's failover stages),
    device-health stats, and the shard's
    :class:`~repro.telemetry.Telemetry` handle (counters and histograms
    plus :class:`~repro.telemetry.TraceSampler` health series).

    ``incarnation`` numbers repeated runs of the same shard id: a
    repaired shard re-admitted at ``rejoin_at_us`` is incarnation 1,
    built on freshly derived seed streams (new hardware), optionally
    warmed by ``sync_arrivals`` catch-up traffic.
    """
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    if shed_queue < 1:
        raise ValueError("shed_queue must be >= 1")
    generation = "" if incarnation == 0 else f":r{incarnation}"
    fault_config = None
    if fault_rate > 0.0:
        fault_config = FaultConfig.uniform(
            fault_rate,
            seed=derive_seed(seed, f"shard:{shard_id}{generation}:faults"))
    reliability_config = None
    if reliability_rate > 0.0:
        reliability_config = ReliabilityConfig.uniform(
            reliability_rate,
            seed=derive_seed(seed,
                             f"shard:{shard_id}{generation}:reliability"))
    system = build_flash_system(
        dram_bytes=dram_bytes, flash_bytes=flash_bytes,
        seed=derive_seed(seed, f"shard:{shard_id}{generation}:device"),
        fault_config=fault_config,
        reliability_config=reliability_config,
    )
    telemetry = Telemetry(sample_interval=sample_interval)
    telemetry.attach(system)
    engine = _ShardEngine(system, arrivals, queue_depth,
                          ChannelConfig(channels=channels, planes=planes),
                          shed_queue, fail_at_us, retire_on_degraded,
                          bucket_us, sync_arrivals=sync_arrivals or (),
                          rejoin_at_us=rejoin_at_us)
    engine.sampler = TraceSampler(telemetry, system,
                                  interval=sample_interval)
    span_us = engine.run()
    engine.sampler.finalize(engine.position)
    telemetry.harvest_cache_counters(system.flash)
    telemetry.harvest_system_counters(system)
    flash = system.flash
    stats = flash.stats
    lookups = stats.read_hits + stats.read_misses
    controller_stats = flash.controller.stats
    return {
        "shard_id": shard_id,
        "incarnation": incarnation,
        "arrivals": engine.arrived,
        "completed": engine.completed,
        "shed": engine.shed,
        "lost": engine.lost,
        "lost_reads": engine.lost_reads,
        "lost_writes": engine.lost_writes,
        "redirected": len(engine.redirects),
        "redirects": engine.redirects,
        "inflight_reads": engine.inflight_reads,
        "retired_at_us": engine.retired_at_us,
        "rejoined_at_us": rejoin_at_us,
        "sync_arrived": engine.sync_arrived,
        "sync_completed": engine.sync_completed,
        "sync_lost": engine.sync_lost,
        "sync_skipped": engine.sync_skipped,
        "span_us": span_us,
        "response": engine.response,
        "queue_delay": engine.queue_delay,
        "buckets": {index: list(row)
                    for index, row in sorted(engine.buckets.items())},
        "channel_busy_us": list(engine.scheduler.channel_busy_us),
        "channel_stalls": engine.channel_stalls,
        "gc_events": engine.gc_events,
        "scrub_events": engine.scrub_events,
        "flash_miss_rate": (stats.read_misses / lookups if lookups
                            else 0.0),
        "live_capacity": flash.live_capacity_fraction(),
        "degraded": flash.degraded,
        "retired_blocks": stats.retired_blocks,
        "recovered_faults": stats.recovered_faults,
        "unrecovered_faults": stats.unrecovered_faults,
        "read_retries": controller_stats.read_retries,
        "uncorrectable_reads": controller_stats.uncorrectable_reads,
        "telemetry": telemetry,
    }

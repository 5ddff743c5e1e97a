"""Event-driven concurrent trace engine (DESIGN.md section 14).

:func:`run_trace_concurrent` runs the same traces as
:func:`repro.sim.engine.run_trace` but with many requests in flight: an
outstanding-request window of ``queue_depth`` slots admits work
open-loop (the trace never waits to *generate* requests — admission is
gated only by the window), and each request's NAND operations are
scheduled onto a ``channels x planes`` fabric
(:class:`repro.flash.channels.NandScheduler`).  The report gains a
:class:`~repro.sim.engine.QueueingStats` block splitting response time
into service (what the serial model charges) and queue delay (window
and channel/plane waits).

Determinism and the compatibility path
--------------------------------------

State and timing are deliberately split:

* **functional work is serial in trace order.**  Each freed window
  slot pulls the next request from the trace and executes it at once
  through the hierarchy's ``submit_read``/``submit_write`` entry points
  — so cache contents, wear, faults, and every counter are *identical
  at any queue depth or channel count* (and identical to the serial
  engine).  Concurrency changes when work *finishes*, never what work
  happens;
* **timing is replayed on the event loop.**  The device appends each
  NAND op's latency to an op log the engine sets once per run; at
  admission the request's ops are placed on the channel/plane fabric
  and the log cleared.  Any wait is charged to the request's queue
  delay, and its COMPLETE event — the only per-request event, whose
  payload is the tuple ``(dispatch_us, service_us)`` — fires at
  ``dispatch + service + waits``.
  Background work the request generated (GC, scrub) occupies the
  fabric — delaying *other* requests — but is not charged to its own
  response time, matching the paper's "all GCs are performed in the
  background".

At ``queue_depth=1, channels=1, planes=1`` there is nothing to overlap,
so the call routes to the serial engine unchanged — every fig1b..fig13
result is byte-identical by construction (asserted in
``tests/test_events.py``).
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, List, Optional, Tuple

from ..core.cache import CacheStats
from ..core.hierarchy import DramOnlySystem, FlashBackedSystem
from ..flash.channels import ChannelConfig, NandScheduler
from ..flash.device import FlashDevice
from ..telemetry import LatencyHistogram, Telemetry, TraceSampler
from ..workloads.trace import Trace, TraceRecord
from .engine import QueueingStats, SimulationReport, run_trace, \
    summarise_system
from .events import EventLoop, EventType

__all__ = ["run_trace_concurrent"]

#: Posted as a plain int: an enum member lookup through its class, and
#: a list index by an ``IntEnum``, are slow paths.
_COMPLETE = int(EventType.COMPLETE)


class EventEngine:
    """Admission and dispatch shared by the closed-loop engine below and
    the open-loop cluster shard engine (:mod:`repro.cluster.shard`).

    Only COMPLETE is a per-request event.  One admission step runs a
    request's functional work (:meth:`_execute`) and, once it holds a
    window slot, dispatches it (:meth:`_dispatch`): its op chain is
    placed on the fabric in one call with ``ready_us = now +
    cpu_us_per_request`` (a request with no NAND ops skips the fabric)
    and its COMPLETE posted at ``dispatch + service + waits`` (DESIGN.md
    section 14 has the ordering argument).  The request's ops are the
    latencies the device appended to the run's op log, which
    :meth:`run` sets once and dispatch clears; a request reaches its
    COMPLETE as one payload tuple in its heap entry, with no request
    object.
    Channel stalls and background GC/scrub work are counted inline;
    they schedule nothing.
    """

    def __init__(self, system: DramOnlySystem | FlashBackedSystem,
                 config: ChannelConfig) -> None:
        self.system = system
        self.loop = EventLoop()
        self.scheduler = NandScheduler(config)
        self.sampler: Optional[TraceSampler] = None
        self.position = 0
        self.channel_stalls = 0
        self.gc_events = 0
        self.scrub_events = 0
        #: The run's op log: the latency of each NAND op the current
        #: request issued, in issue order (empty without Flash).
        self._ops: List[float] = []
        self._device: Optional[FlashDevice] = None
        self._gc_stats: Optional[CacheStats] = None
        self._last_gc_us = 0.0
        if isinstance(system, FlashBackedSystem):
            self._device = system.flash.controller.device
            self._gc_stats = system.flash.stats
            self._last_gc_us = system.flash.stats.gc_time_us
        self._submit_read = system.submit_read
        self._submit_write = system.submit_write
        # One constant per system: the ordering argument needs it.
        self._cpu_us = system.config.cpu_us_per_request
        self._place_chain = self.scheduler.place_chain
        self._post_at = self.loop.post_at
        scrubber = getattr(system, "scrubber", None)
        self._scrub_stats = None if scrubber is None else scrubber.stats
        self._last_scrub_passes = (0 if scrubber is None
                                   else scrubber.stats.passes)

    def _execute(self, page: int, is_read: bool) -> float:
        """Run one request's functional work, in admission order — the
        determinism anchor (see the module docstring); returns its
        service latency.  Its NAND ops are left in the op log."""
        if is_read:
            service_us = self._submit_read(page)
        else:
            service_us = self._submit_write(page)
        self.position += 1
        sampler = self.sampler
        if sampler is not None and self.position >= sampler.next_at:
            sampler.maybe_sample(self.position)
        gc_stats = self._gc_stats
        if (gc_stats is not None
                and gc_stats.gc_time_us > self._last_gc_us):
            self._last_gc_us = gc_stats.gc_time_us
            self.gc_events += 1
        scrub_stats = self._scrub_stats
        if (scrub_stats is not None
                and scrub_stats.passes > self._last_scrub_passes):
            self._last_scrub_passes = scrub_stats.passes
            self.scrub_events += 1
        return service_us

    def _dispatch(self, dispatch_us: float, service_us: float,
                  ops: List[float], payload: Any) -> None:
        """Place a request's op chain on the fabric at ``dispatch_us``
        and clear it; post its COMPLETE with ``payload``."""
        # Response = service as charged by the serial model, plus every
        # wait the op chain suffered.  Background op *latency* (GC,
        # scrub rewrites) occupies the fabric but is excluded from
        # service, so it delays neighbours rather than this request.
        finish_us = dispatch_us + service_us
        if ops:
            _, wait_us, stalls = self._place_chain(dispatch_us, ops)
            ops.clear()
            if stalls:
                self.channel_stalls += stalls
                finish_us += wait_us
        self._post_at(finish_us, _COMPLETE, payload)

    def _start(self) -> None:
        """Admit or post the run's first work (engine-specific)."""
        raise NotImplementedError

    def run(self) -> float:
        """Start the run and drain the loop with the device's op log
        set to the run's; returns the makespan (us), which covers the
        fabric's last op even when no event sits at its time."""
        device = self._device
        outer_log = None if device is None else device.op_log
        if device is not None:
            device.op_log = self._ops
        try:
            self._start()
            loop_end_us = self.loop.run()
        finally:
            if device is not None:
                device.op_log = outer_log
        self.loop.close()
        horizon_us = self.scheduler.horizon_us()
        return loop_end_us if loop_end_us >= horizon_us else horizon_us


class _ConcurrentEngine(EventEngine):
    """One trace's worth of closed-loop event-loop state (not reusable)."""

    def __init__(self, system: DramOnlySystem | FlashBackedSystem,
                 records: Iterable[TraceRecord],
                 queue_depth: int, config: ChannelConfig) -> None:
        super().__init__(system, config)
        self.source = Trace.from_records(records).requests()
        self.queue_depth = queue_depth
        self.queue_delay = LatencyHistogram("queue_delay_us")
        self.service_latency = LatencyHistogram("service_latency_us")
        self.position = system.stats.requests
        self._observe_queue_delay = self.queue_delay.observe
        self._observe_service = self.service_latency.observe
        self.loop.register(EventType.COMPLETE, self._on_complete)

    def _admit(self, now_us: float, page: int, is_read: bool) -> None:
        service_us = self._execute(page, is_read)
        # Host CPU/network time precedes storage dispatch (the same
        # per-system constant the serial wall clock charges).
        dispatch_us = now_us + self._cpu_us
        self._dispatch(dispatch_us, service_us, self._ops,
                       (dispatch_us, service_us))

    # -- event handlers (the loop hands them the time; SIM010) ---------------

    def _on_complete(self, now_us: float,
                     payload: Tuple[float, float]) -> None:
        dispatch_us, service_us = payload
        # Queue delay: the response beyond the serial service latency.
        queue_delay_us = (now_us - dispatch_us) - service_us
        if queue_delay_us < 0.0:
            queue_delay_us = 0.0
        self._observe_queue_delay(queue_delay_us)
        self._observe_service(service_us)
        # The freed slot admits the next request at this instant.
        request = next(self.source, None)
        if request is not None:
            self._admit(now_us, *request)

    # -- driving ---------------------------------------------------------------

    def _start(self) -> None:
        """Fill the window."""
        now_us = self.loop.now_us
        for request in islice(self.source, self.queue_depth):
            self._admit(now_us, *request)


def run_trace_concurrent(system: DramOnlySystem | FlashBackedSystem,
                         records: Iterable[TraceRecord],
                         queue_depth: int = 1,
                         channels: int = 1,
                         planes: int = 1,
                         drain: bool = True,
                         telemetry: Optional[Telemetry] = None
                         ) -> SimulationReport:
    """Run a trace through the event-driven concurrent engine.

    ``queue_depth`` sizes the outstanding-request window, ``channels``
    and ``planes`` size the NAND fabric.  The returned report's
    ``wall_clock_us`` is the event-loop makespan and ``queueing``
    carries the service/queue-delay split; every functional metric
    (cache stats, wear, miss rates, average service latency) is
    identical to the serial engine's at any setting.

    ``queue_depth=1, channels=1, planes=1`` is the compatibility mode:
    the call routes to :func:`~repro.sim.engine.run_trace` and the
    result is byte-identical to the legacy serial path.
    """
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    config = ChannelConfig(channels=channels, planes=planes)
    if queue_depth == 1 and config.resources == 1:
        return run_trace(system, records, drain=drain, telemetry=telemetry)
    engine = _ConcurrentEngine(system, records, queue_depth, config)
    if telemetry is not None:
        telemetry.attach(system)
        engine.sampler = TraceSampler(telemetry, system,
                                      interval=telemetry.sample_interval)
    span_us = engine.run()
    if engine.sampler is not None:
        engine.sampler.finalize(engine.position)
    requests = system.stats.requests
    throughput_rps = requests / (span_us * 1e-6) if span_us > 0 else 0.0
    queueing = QueueingStats(
        queue_depth=queue_depth,
        channels=channels,
        planes=planes,
        span_us=span_us,
        queue_delay=engine.queue_delay,
        service_latency=engine.service_latency,
        channel_busy_us=list(engine.scheduler.channel_busy_us),
        channel_stalls=engine.channel_stalls,
        gc_events=engine.gc_events,
        scrub_events=engine.scrub_events,
    )
    return summarise_system(system, drain=drain, telemetry=telemetry,
                            wall_clock_us=span_us,
                            throughput_rps=throughput_rps, queueing=queueing)

"""Trace-driven simulation engine.

The paper uses two simulators: M5 for full-system performance/power runs
and "a light weight trace based Flash disk cache simulator" for the long
reliability and miss-rate studies.  :func:`run_trace` is our equivalent of
the latter wired to the full hierarchy: it streams a trace through a
system, drains dirty state at the end, and returns a single report object
with every metric the evaluation figures consume.

Observability: pass a :class:`~repro.telemetry.Telemetry` handle to get
latency histograms (p50/p95/p99 read and write latency in the report) and
windowed time-series (miss rate, live capacity, wear, retries per N
requests).  With no handle — the default — the run takes the exact
historical code path and its results are bit-identical to pre-telemetry
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..core.cache import CacheStats
from ..core.controller import ControllerStats
from ..core.hierarchy import DramOnlySystem, FlashBackedSystem
from ..dram.page_cache import PdcStats
from ..faults.injector import FaultStats
from ..power.models import PowerBreakdown, system_power_breakdown
from ..reliability import ReliabilityStats, ScrubStats
from ..telemetry import LatencyHistogram, Telemetry, TraceSampler
from ..telemetry.timeseries import TimeSeries
from ..workloads.trace import Trace, TraceRecord
from .server import ServerModel

__all__ = ["QueueingStats", "SimulationReport", "run_trace",
           "summarise_system"]


@dataclass
class QueueingStats:
    """Concurrency accounting from the event engine (DESIGN.md 14).

    Present on a report only when the trace ran through
    :func:`repro.sim.concurrent.run_trace_concurrent`; splits every
    request's response time into *service* (what the serial model
    charges — the cache/device work itself) and *queue delay* (waiting
    for a window slot or a busy NAND channel/plane), and carries the
    channel-utilization view of the device fabric.
    """

    queue_depth: int
    channels: int
    planes: int
    #: Event-loop makespan: admission of the first request to completion
    #: of the last (us).
    span_us: float
    #: Per-request queue-delay distribution (us).
    queue_delay: LatencyHistogram
    #: Per-request service-latency distribution (us).
    service_latency: LatencyHistogram
    #: Busy time per NAND channel over the span (us).
    channel_busy_us: List[float] = field(default_factory=list)
    #: Ops that found their channel/plane occupied and stalled.
    channel_stalls: int = 0
    #: Background GC bursts observed by the loop.
    gc_events: int = 0
    #: Background scrub bursts observed by the loop.
    scrub_events: int = 0

    @property
    def mean_queue_delay_us(self) -> float:
        return self.queue_delay.mean

    def channel_utilization(self) -> List[float]:
        """Per-channel busy fraction of the span (a channel with
        ``planes`` planes offers ``planes * span_us`` of service)."""
        if self.span_us <= 0:
            return [0.0] * len(self.channel_busy_us)
        capacity_us = self.span_us * self.planes
        return [busy_us / capacity_us for busy_us in self.channel_busy_us]


@dataclass
class SimulationReport:
    """Everything a finished simulation can report."""

    requests: int
    reads: int
    writes: int
    average_latency_us: float
    wall_clock_us: float
    throughput_rps: float
    pdc: PdcStats
    power: PowerBreakdown
    flash: Optional[CacheStats] = None
    disk_reads: int = 0
    disk_writes: int = 0
    # -- degradation metrics (present only for Flash-backed systems) ---------
    controller: Optional[ControllerStats] = None
    faults: Optional[FaultStats] = None
    #: Error-process model totals (present only when a
    #: :class:`~repro.reliability.ReliabilityModel` ran on the device).
    reliability: Optional[ReliabilityStats] = None
    #: Background retention-scrub totals (present only with a scrubber).
    scrub: Optional[ScrubStats] = None
    #: Fraction of the Flash cache's original page capacity still serving.
    flash_live_capacity: float = 1.0
    #: True when the cache fell below its minimum-blocks floor and the
    #: hierarchy finished the trace on the DRAM+disk bypass.
    flash_degraded: bool = False
    #: Bytes served per request by the fronting server
    #: (:attr:`ServerModel.response_bytes`; the network-bandwidth proxy
    #: below scales with it).
    response_bytes: int = ServerModel.response_bytes
    # -- telemetry (present only when a Telemetry handle ran the trace) ------
    #: Foreground read-request latency distribution.
    read_latency: Optional[LatencyHistogram] = None
    #: Foreground write-request latency distribution.
    write_latency: Optional[LatencyHistogram] = None
    #: Windowed time-series keyed by name (``flash_miss_rate``,
    #: ``live_capacity``, ``wear_max`` ...).
    timeseries: Optional[Dict[str, TimeSeries]] = None
    # -- concurrency (present only for event-engine runs) --------------------
    #: Queue-delay/service split and channel utilization from
    #: :func:`repro.sim.concurrent.run_trace_concurrent`; ``None`` for
    #: the serial engine (no queueing exists at depth 1).
    queueing: Optional[QueueingStats] = None

    @property
    def flash_miss_rate(self) -> float:
        return self.flash.read_miss_rate if self.flash else 1.0

    @property
    def network_bandwidth_bytes_per_s(self) -> float:
        """Network-bandwidth proxy: served request payload per second.

        The paper's server benchmarks report network bandwidth; in a
        storage-bound server it is proportional to request throughput.
        """
        return self.throughput_rps * self.response_bytes

    # -- latency percentiles (None without telemetry) -------------------------

    def _latency_percentile(self, histogram: Optional[LatencyHistogram],
                            p: float) -> Optional[float]:
        return histogram.percentile(p) if histogram is not None else None

    @property
    def read_latency_p50(self) -> Optional[float]:
        return self._latency_percentile(self.read_latency, 50.0)

    @property
    def read_latency_p95(self) -> Optional[float]:
        return self._latency_percentile(self.read_latency, 95.0)

    @property
    def read_latency_p99(self) -> Optional[float]:
        return self._latency_percentile(self.read_latency, 99.0)

    @property
    def write_latency_p50(self) -> Optional[float]:
        return self._latency_percentile(self.write_latency, 50.0)

    @property
    def write_latency_p95(self) -> Optional[float]:
        return self._latency_percentile(self.write_latency, 95.0)

    @property
    def write_latency_p99(self) -> Optional[float]:
        return self._latency_percentile(self.write_latency, 99.0)

    # -- queueing percentiles (None without the event engine) -----------------

    def _queueing_histogram(self, name: str) -> Optional[LatencyHistogram]:
        queueing = self.queueing
        return getattr(queueing, name) if queueing is not None else None

    @property
    def queue_delay_p50(self) -> Optional[float]:
        return self._latency_percentile(
            self._queueing_histogram("queue_delay"), 50.0)

    @property
    def queue_delay_p95(self) -> Optional[float]:
        return self._latency_percentile(
            self._queueing_histogram("queue_delay"), 95.0)

    @property
    def queue_delay_p99(self) -> Optional[float]:
        return self._latency_percentile(
            self._queueing_histogram("queue_delay"), 99.0)

    @property
    def service_latency_p50(self) -> Optional[float]:
        return self._latency_percentile(
            self._queueing_histogram("service_latency"), 50.0)

    @property
    def service_latency_p95(self) -> Optional[float]:
        return self._latency_percentile(
            self._queueing_histogram("service_latency"), 95.0)

    @property
    def service_latency_p99(self) -> Optional[float]:
        return self._latency_percentile(
            self._queueing_histogram("service_latency"), 99.0)


def run_trace(system: DramOnlySystem | FlashBackedSystem,
              records: Iterable[TraceRecord],
              drain: bool = True,
              telemetry: Optional[Telemetry] = None) -> SimulationReport:
    """Run a trace to completion and summarise.

    ``drain`` flushes dirty PDC/Flash state afterwards so that power and
    disk-traffic accounting cover the whole data lifecycle.  ``telemetry``
    (optional) is attached to every layer for the duration of the run and
    sampled every ``telemetry.sample_interval`` requests; the report then
    carries latency histograms and time-series.
    """
    if telemetry is None:
        system.run(records)
    else:
        telemetry.attach(system)
        sampler = TraceSampler(telemetry, system,
                               interval=telemetry.sample_interval)
        trace = Trace.from_records(records)
        read = system.read
        write = system.write
        maybe_sample = sampler.maybe_sample
        # Track trace position locally (one request per expanded page)
        # rather than reading the stats property back per record.  The
        # counter starts from the system's running request count — not
        # zero — so a system that already processed records (a warmup
        # phase, a previous run_trace call) keeps one continuous x axis.
        position = system.stats.requests
        for page, run, is_read in zip(trace.pages, trace.runs, trace.reads):
            access = read if is_read else write
            if run == 1:
                access(page)
            else:
                for page in range(page, page + run):
                    access(page)
            position += run
            if position >= sampler.next_at:
                maybe_sample(position)
        # ``system.stats.requests`` is the single source of truth for the
        # report; the local counter is only a cheap mirror of it.  If the
        # two ever disagree, the time-series x coordinates no longer line
        # up with the reported request counts — fail loudly rather than
        # emit silently skewed telemetry.
        processed = system.stats.requests
        if position != processed:
            raise RuntimeError(
                f"trace position counter ({position}) drifted from the "
                f"system request count ({processed}); a record expanded "
                f"to a different number of requests than its run length")
        # Close every series with the end-of-trace state so a short trace
        # still yields at least one point per signal.
        sampler.finalize(processed)
    return summarise_system(system, drain=drain, telemetry=telemetry)


def summarise_system(system: DramOnlySystem | FlashBackedSystem,
                     drain: bool = True,
                     telemetry: Optional[Telemetry] = None,
                     wall_clock_us: Optional[float] = None,
                     throughput_rps: Optional[float] = None,
                     queueing: Optional[QueueingStats] = None
                     ) -> SimulationReport:
    """Drain a finished system and package it as a report.

    Shared tail of :func:`run_trace` and the event engine
    (:func:`repro.sim.concurrent.run_trace_concurrent`): the latter
    overrides ``wall_clock_us``/``throughput_rps`` with its event-loop
    makespan and attaches the :class:`QueueingStats` split.
    """
    flash_stats = None
    controller_stats = None
    fault_stats = None
    reliability_stats = None
    scrub_stats = None
    live_capacity = 1.0
    degraded = False
    if isinstance(system, FlashBackedSystem):
        if drain:
            system.drain()
        flash = system.flash
        flash_stats = flash.stats
        controller_stats = flash.controller.stats
        injector = flash.controller.device.fault_injector
        if injector is not None:
            fault_stats = injector.stats
        reliability_model = flash.controller.device.reliability
        if reliability_model is not None:
            reliability_stats = reliability_model.stats
        scrubber = getattr(system, "scrubber", None)
        if scrubber is not None:
            scrub_stats = scrubber.stats
        live_capacity = flash.live_capacity_fraction()
        degraded = flash.degraded
        if telemetry is not None:
            telemetry.harvest_cache_counters(flash)
    if telemetry is not None:
        # After drain, so the counters cover the whole data lifecycle.
        telemetry.harvest_system_counters(system)
    return SimulationReport(
        requests=system.stats.requests,
        reads=system.stats.reads,
        writes=system.stats.writes,
        average_latency_us=system.stats.average_latency_us,
        wall_clock_us=(wall_clock_us if wall_clock_us is not None
                       else system.wall_clock_us),
        throughput_rps=(throughput_rps if throughput_rps is not None
                        else system.throughput_rps()),
        pdc=system.pdc.stats,
        power=system_power_breakdown(system),
        flash=flash_stats,
        disk_reads=system.disk.reads,
        disk_writes=system.disk.writes,
        controller=controller_stats,
        faults=fault_stats,
        reliability=reliability_stats,
        scrub=scrub_stats,
        flash_live_capacity=live_capacity,
        flash_degraded=degraded,
        response_bytes=ServerModel.response_bytes,
        read_latency=(telemetry.read_latency
                      if telemetry is not None else None),
        write_latency=(telemetry.write_latency
                       if telemetry is not None else None),
        timeseries=(telemetry.timeseries
                    if telemetry is not None else None),
        queueing=queueing,
    )

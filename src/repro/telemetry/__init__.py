"""``repro.telemetry`` — in-process observability for the simulated stack.

The paper's evaluation lives on distributions over time: miss-rate and
wear curves across billions of accesses, throughput ceilings set by tail
storage latency.  This package turns the simulator's end-of-run counters
into that kind of evidence without perturbing the simulation:

* a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters,
  gauges, and fixed-bucket latency histograms with p50/p95/p99/max;
* windowed :class:`~repro.telemetry.timeseries.TraceSampler` snapshots
  (miss rate, live capacity, wear max/avg, retry counts per N requests);
* JSON and CSV exporters (:mod:`repro.telemetry.export`).

**Overhead contract.**  Every instrumented component holds a
``telemetry`` attribute that is ``None`` by default; each hot-path site
is guarded by a single attribute load and ``None`` check, so
un-instrumented runs execute the exact same simulation code and stay
bit-identical to pre-telemetry behaviour.  With a handle attached, each
hook is counter increments plus at most one histogram insert.  An
instrumented run must stay within 10% of un-instrumented wall-clock
(asserted in ``benchmarks/test_telemetry_overhead.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

from .metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_US,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from .timeseries import TimeSeries, TraceSampler

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
    "TimeSeries",
    "TraceSampler",
    "Telemetry",
]


class Telemetry:
    """The handle instrumented components talk to.

    One instance aggregates a whole run: attach it with
    :meth:`attach` (or pass it to :func:`repro.sim.engine.run_trace`,
    which attaches it for you), then read ``metrics``/``timeseries`` or
    export via :mod:`repro.telemetry.export` when the run finishes.
    """

    def __init__(self, sample_interval: int = 1000):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.metrics = MetricsRegistry()
        self.timeseries: Dict[str, TimeSeries] = {}
        #: Requests between :class:`TraceSampler` snapshots.
        self.sample_interval = sample_interval
        registry = self.metrics
        # Hot instruments are bound once so hook calls skip the registry
        # dict lookup.
        self.read_latency = registry.histogram("request.read_latency_us")
        self.write_latency = registry.histogram("request.write_latency_us")
        self.flash_read_latency = registry.histogram(
            "flash.read_latency_us")
        self.flash_program_latency = registry.histogram(
            "flash.program_latency_us")
        self.disk_latency = registry.histogram("disk.access_latency_us")
        self.gc_pass_latency = registry.histogram("flash.gc_pass_us")
        self._c_read = registry.counter("request.reads")
        self._c_write = registry.counter("request.writes")
        self._c_pdc_hit = registry.counter("pdc.hits")
        self._c_pdc_miss = registry.counter("pdc.misses")
        self._c_disk_read = registry.counter("disk.reads")
        self._c_disk_write = registry.counter("disk.writes")
        self._c_nand_read = registry.counter("nand.reads")
        self._c_nand_program = registry.counter("nand.programs")
        self._c_nand_erase = registry.counter("nand.erases")
        self._c_hit = registry.counter("flash.hits")
        self._c_miss = registry.counter("flash.misses")
        self._c_cache_write = registry.counter("flash.writes")
        self._c_retry = registry.counter("flash.read_retries")
        self._c_uncorrectable = registry.counter("flash.uncorrectable_reads")
        self._c_gc_runs = registry.counter("flash.gc_runs")
        self._c_gc_moves = registry.counter("flash.gc_page_moves")
        self._c_reconfig_ecc = registry.counter("flash.reconfig.code_strength")
        self._c_reconfig_density = registry.counter("flash.reconfig.density")
        self._c_retired = registry.counter("flash.blocks_retired")
        self._c_degraded = registry.counter("flash.degraded_events")
        self._c_scrub_passes = registry.counter("flash.scrub_passes")
        self._c_scrub_rewrites = registry.counter("flash.scrub_page_rewrites")
        self.scrub_pass_latency = registry.histogram("flash.scrub_pass_us")

    # -- series ----------------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        """Get-or-create a named time-series."""
        existing = self.timeseries.get(name)
        if existing is None:
            existing = self.timeseries[name] = TimeSeries(name)
        return existing

    # -- merging (parallel sweep aggregation) ----------------------------------

    def merge(self, other: "Telemetry") -> None:
        """Fold another handle's observations into this one.

        Counters add, histograms merge bucket-wise, and time-series
        concatenate in call order — so merging the per-task handles of a
        parallel sweep (in task order) reproduces exactly the aggregate
        a serial run sharing one handle across those tasks would hold.
        Pre-bound instruments (``read_latency`` etc.) alias registry
        entries by name, so the registry merge updates them in place.
        """
        self.metrics.merge(other.metrics)
        for name, series in other.timeseries.items():
            self.series(name).extend(series)

    # The hooks below sit on the simulator's per-request and per-NAND-op
    # paths, where even a counter bump is a measurable share of the
    # simulated work.  Every hot counter duplicates a statistic the
    # simulator already maintains (``SystemStats``, ``PdcStats``,
    # ``DiskModel``, ``CacheStats``, ``ControllerStats``, ``DeviceStats``),
    # so the hooks only feed the latency histograms (a buffered append);
    # the counters are reconstructed at end of run by
    # :meth:`harvest_system_counters` / :meth:`harvest_cache_counters`
    # (the overhead-contract benchmark holds the total under 10%).

    # -- request level (hierarchy foreground path) -----------------------------

    def request_read(self, latency_us: float) -> None:
        self.read_latency.observe(latency_us)

    def request_write(self, latency_us: float) -> None:
        self.write_latency.observe(latency_us)

    # -- disk ------------------------------------------------------------------

    def disk_read(self, latency_us: float) -> None:
        self.disk_latency.observe(latency_us)

    def disk_write(self, latency_us: float) -> None:
        self.disk_latency.observe(latency_us)

    # -- raw NAND operations ---------------------------------------------------

    def nand_fault(self, operation: str) -> None:
        self.metrics.counter(f"nand.faults.{operation}").inc()

    # -- Flash controller ------------------------------------------------------

    def flash_read(self, latency_us: float) -> None:
        self.flash_read_latency.observe(latency_us)

    def flash_program(self, latency_us: float) -> None:
        self.flash_program_latency.observe(latency_us)

    def reconfig(self, kind: str) -> None:
        (self._c_reconfig_ecc if kind == "code_strength"
         else self._c_reconfig_density).inc()

    def retire(self) -> None:
        self._c_retired.inc()

    # -- Flash disk cache ------------------------------------------------------

    def harvest_cache_counters(self, cache) -> None:
        """Fold a finished cache stack's totals into the counters.

        The hot hooks never bump counters (see the comment above the
        hook block); everything is reconstructed here from the
        statistics the simulator keeps anyway — additively, because one
        handle may observe several caches (the split-cache experiments).
        Call once per cache, after its run finishes;
        :func:`repro.sim.engine.run_trace` and the disk-trace replay do
        so automatically.
        """
        stats = cache.stats
        self._c_hit.value += stats.read_hits
        self._c_miss.value += stats.read_misses
        self._c_cache_write.value += stats.writes
        controller = cache.controller
        controller_stats = controller.stats
        self._c_retry.value += controller_stats.read_retries
        self._c_uncorrectable.value += controller_stats.uncorrectable_reads
        device_stats = controller.device.stats
        self._c_nand_read.value += device_stats.reads
        self._c_nand_program.value += device_stats.programs
        self._c_nand_erase.value += device_stats.erases

    def harvest_system_counters(self, system) -> None:
        """Fold a finished hierarchy's request/PDC/disk totals into the
        counters (the Flash layers go through
        :meth:`harvest_cache_counters`).  :func:`run_trace` calls this;
        only direct users of :meth:`attach` need to themselves."""
        stats = system.stats
        self._c_read.value += stats.reads
        self._c_write.value += stats.writes
        pdc = system.pdc.stats
        self._c_pdc_hit.value += pdc.read_hits + pdc.write_hits
        self._c_pdc_miss.value += pdc.read_misses + pdc.write_misses
        disk = system.disk
        self._c_disk_read.value += disk.reads
        self._c_disk_write.value += disk.writes

    def gc(self, elapsed_us: float, page_moves: int) -> None:
        self._c_gc_runs.inc()
        self._c_gc_moves.inc(page_moves)
        self.gc_pass_latency.observe(elapsed_us)

    def degrade(self) -> None:
        self._c_degraded.inc()

    def scrub(self, elapsed_us: float, page_rewrites: int) -> None:
        """One background retention-scrub pass finished.  Cold path — a
        pass happens once per scrub interval, not per request."""
        self._c_scrub_passes.inc()
        self._c_scrub_rewrites.inc(page_rewrites)
        self.scrub_pass_latency.observe(elapsed_us)

    # -- wiring ----------------------------------------------------------------

    def attach(self, system) -> None:
        """Point every instrumented component of ``system`` at this handle.

        Works for both hierarchies: the DRAM-only system instruments the
        request path (which carries the PDC outcome) and the disk; the
        Flash-backed system additionally instruments the cache,
        controller, and NAND device.
        """
        system.telemetry = self
        system.disk.telemetry = self
        flash = getattr(system, "flash", None)
        if flash is not None:
            self.attach_cache(flash)

    def attach_cache(self, cache) -> None:
        """Attach to a bare Flash disk cache stack (no hierarchy above),
        as the disk-trace replay experiments use."""
        cache.telemetry = self
        cache.controller.telemetry = self
        cache.controller.device.telemetry = self

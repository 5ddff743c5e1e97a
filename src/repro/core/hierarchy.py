"""The full storage hierarchies of Figure 2.

Two systems, same request API:

* :class:`DramOnlySystem` — the conventional left side of Figure 2: a
  DRAM primary disk cache (e.g. 512MB) in front of the hard drive.
* :class:`FlashBackedSystem` — the paper's right side: a smaller DRAM
  primary disk cache (e.g. 256MB) in front of a Flash secondary disk
  cache (e.g. 1GB) with its programmable memory controller, in front of
  the hard drive.

Both process page-granular traces (:class:`~repro.workloads.trace.Trace`
columns) closed-loop.  Foreground latency (what a request waits on) is kept
separate from background work (PDC write-back, Flash fills, GC) — the
paper performs "all GCs ... in the background" — but background work still
consumes device busy time and energy, and the wall clock can never run
faster than the busiest device, which is how GC pressure feeds back into
throughput.

Accounting hooks expose everything the evaluation figures need: the
Figure 9 power/bandwidth breakdown, Figure 10 throughput-vs-ECC, and the
miss rates of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..dram.model import DramModel
from ..dram.page_cache import PrimaryDiskCache
from ..disk.model import DiskModel
from ..faults.injector import FaultConfig, FaultInjector
from ..flash.device import FlashDevice
from ..flash.geometry import FlashGeometry
from ..flash.timing import CellMode
from ..flash.wear import CellLifetimeModel
from ..reliability import (
    ReliabilityConfig,
    ReliabilityModel,
    ScrubConfig,
    Scrubber,
)
from ..workloads.trace import PAGE_BYTES, Trace, TraceRecord
from .cache import FlashCacheConfig, FlashDiskCache
from .controller import ControllerConfig, ProgrammableFlashController

__all__ = [
    "SystemConfig",
    "RequestStats",
    "DramOnlySystem",
    "FlashBackedSystem",
    "build_flash_system",
]


@dataclass(frozen=True)
class SystemConfig:
    """Capacity plan for a simulated platform (Table 3 row)."""

    dram_bytes: int
    flash_bytes: int = 0
    page_bytes: int = PAGE_BYTES
    #: Fraction of DRAM used as page-cache slots (the rest models the OS,
    #: Flash metadata tables, and application footprint).
    pdc_fraction: float = 0.85
    #: CPU + network time a request spends outside the storage stack; sets
    #: the device idle gaps that power accounting depends on.
    cpu_us_per_request: float = 100.0
    #: Platform size the DRAM power model should represent when
    #: ``dram_bytes`` has been scaled down for simulation speed.
    power_model_dram_bytes: int | None = None
    #: Dirty data is flushed to disk in batches every this many requests,
    #: modelling the OS's periodic write-back daemon; batched flushes are
    #: largely sequential, so they cost one seek plus streaming transfer.
    flush_interval_requests: int = 2000

    def __post_init__(self) -> None:
        if self.dram_bytes < self.page_bytes:
            raise ValueError("DRAM must hold at least one page")
        if not 0.0 < self.pdc_fraction <= 1.0:
            raise ValueError("pdc_fraction must be in (0, 1]")

    @property
    def pdc_pages(self) -> int:
        return max(1, int(self.dram_bytes * self.pdc_fraction)
                   // self.page_bytes)


@dataclass
class RequestStats:
    """Foreground request accounting."""

    reads: int = 0
    writes: int = 0
    total_latency_us: float = 0.0
    disk_fills: int = 0
    flash_fills: int = 0

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def average_latency_us(self) -> float:
        return self.total_latency_us / self.requests if self.requests else 0.0


class _SystemBase:
    """Shared request-loop plumbing of both hierarchies."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.dram = DramModel(size_bytes=config.dram_bytes,
                              power_model_bytes=config.power_model_dram_bytes)
        self.pdc = PrimaryDiskCache(capacity_pages=config.pdc_pages)
        self.disk = DiskModel()
        self.stats = RequestStats()
        self.background_us = 0.0
        #: Optional :class:`repro.telemetry.Telemetry` handle observing
        #: the request path; ``None`` (default) adds nothing.
        self.telemetry = None
        self._writeback_queue: list[int] = []
        self._requests_since_flush = 0
        # The request path's constants and callees, bound once.  The
        # config is frozen and the layers are never swapped; ``stats`` is
        # not bound, because reset_measurement() replaces it.
        self._page_bytes = config.page_bytes
        self._flush_interval = config.flush_interval_requests
        self._dram_read = self.dram.read
        self._dram_write = self.dram.write
        self._pdc_read = self.pdc.read
        self._pdc_write = self.pdc.write
        self._disk_read = self.disk.read

    # Subclasses implement the levels below the PDC.
    def _fill_from_below(self, page: int) -> float:
        raise NotImplementedError

    def _write_back(self, page: int) -> None:
        raise NotImplementedError

    def read(self, page: int) -> float:
        """Service one page read; returns foreground latency (us)."""
        stats = self.stats
        stats.reads += 1
        latency = self._dram_read(self._page_bytes)
        hit, evictions = self._pdc_read(page)
        if not hit:
            latency += self._fill_from_below(page)
            for eviction in evictions:
                if eviction.dirty:
                    self._write_back(eviction.page)
        stats.total_latency_us += latency
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.request_read(latency)
        # The write-back daemon's tick.
        since_flush = self._requests_since_flush + 1
        if since_flush >= self._flush_interval:
            self._requests_since_flush = 0
            self._periodic_flush()
        else:
            self._requests_since_flush = since_flush
        return latency

    def write(self, page: int) -> float:
        """Service one page write (into the PDC, write-back)."""
        stats = self.stats
        stats.writes += 1
        latency = self._dram_write(self._page_bytes)
        hit, evictions = self._pdc_write(page)
        for eviction in evictions:
            if eviction.dirty:
                self._write_back(eviction.page)
        stats.total_latency_us += latency
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.request_write(latency)
        since_flush = self._requests_since_flush + 1
        if since_flush >= self._flush_interval:
            self._requests_since_flush = 0
            self._periodic_flush()
        else:
            self._requests_since_flush = since_flush
        return latency

    # -- event-engine entry points ----------------------------------------------

    def submit_read(self, page: int) -> float:
        """:meth:`read` as the event engine's admission step; returns
        the service latency (us).

        The functional work (cache state, stats, telemetry) happens now,
        exactly as in :meth:`read`; its NAND ops land in the device's
        ``op_log``, which the engine sets for the run.  The timing work
        — placing those ops, charging queue delay — is the engine's.
        """
        return self.read(page)

    def submit_write(self, page: int) -> float:
        """:meth:`write` as the engine's admission step; see
        :meth:`submit_read`."""
        return self.write(page)

    def _periodic_flush(self) -> None:
        """Write queued dirty pages to disk as one batched, mostly
        sequential operation (the write-back daemon's elevator pass)."""
        self._drain_writeback_queue()

    def _drain_writeback_queue(self) -> None:
        if self._writeback_queue:
            self.background_us += self.disk.write(
                num_pages=len(self._writeback_queue))
            self._writeback_queue.clear()

    def process(self, record: TraceRecord) -> float:
        """Apply one trace record (multi-page extents expand)."""
        total = 0.0
        for page in record.expand():
            if record.is_read:
                total += self.read(page)
            else:
                total += self.write(page)
        return total

    def run(self, records: Iterable[TraceRecord]) -> None:
        """Process a whole trace; the latencies land in :attr:`stats`.

        Reads the trace's columns (any other iterable of records is
        converted once), so no record is built per request.
        """
        trace = Trace.from_records(records)
        read = self.read
        write = self.write
        for page, run, is_read in zip(trace.pages, trace.runs, trace.reads):
            access = read if is_read else write
            if run == 1:
                access(page)
            else:
                for page in range(page, page + run):
                    access(page)

    # -- time/power accounting ---------------------------------------------------

    @property
    def wall_clock_us(self) -> float:
        """Simulated elapsed time: foreground latency plus per-request
        CPU/network time, but never less than the busiest device
        (background work cannot be hidden forever)."""
        foreground = (self.stats.total_latency_us
                      + self.stats.requests * self.config.cpu_us_per_request)
        floor = max(self.disk.busy_us,
                    self.dram.read_busy_us + self.dram.write_busy_us)
        return max(foreground, floor, self._flash_busy_us())

    def _flash_busy_us(self) -> float:
        """Busy time of the Flash device (none without a Flash cache)."""
        return 0.0

    def throughput_rps(self) -> float:
        """Requests per second over the simulated window."""
        wall = self.wall_clock_us
        return self.stats.requests / (wall * 1e-6) if wall else 0.0

    def reset_measurement(self) -> None:
        """Zero the time/energy accounting while keeping cache contents.

        Call after a warmup phase so power and throughput report the
        steady state rather than the cold-start disk fills.
        """
        self.dram.reset_stats()
        self.disk.reset_stats()
        self.stats = RequestStats()
        self.background_us = 0.0


class DramOnlySystem(_SystemBase):
    """Conventional platform: DRAM page cache straight onto the disk."""

    def _fill_from_below(self, page: int) -> float:
        self.stats.disk_fills += 1
        latency = self._disk_read()
        latency += self._dram_write(self._page_bytes)
        return latency

    def _write_back(self, page: int) -> None:
        # OS write-back is asynchronous and batched: the page joins the
        # write-back queue drained by the periodic flush.
        self._writeback_queue.append(page)


class FlashBackedSystem(_SystemBase):
    """The paper's platform: DRAM PDC -> Flash disk cache -> disk."""

    def __init__(self, config: SystemConfig,
                 flash_cache: FlashDiskCache) -> None:
        if config.flash_bytes <= 0:
            raise ValueError("FlashBackedSystem needs flash_bytes > 0")
        super().__init__(config)
        self.flash = flash_cache
        #: Optional :class:`repro.reliability.Scrubber`; ``None`` (default)
        #: means no background retention scrubbing.
        self.scrubber: Optional[Scrubber] = None
        self._flash_read = flash_cache.read
        self._flash_insert_clean = flash_cache.insert_clean
        self._flash_write = flash_cache.write

    # -- plumbing --------------------------------------------------------------

    def _flash_busy_us(self) -> float:
        return self.flash.controller.device.stats.busy_us

    def _fill_from_below(self, page: int) -> float:
        outcome = self._flash_read(page)
        if outcome is not None and outcome.recovered:
            self.stats.flash_fills += 1
            return outcome.latency_us + self._dram_write(self._page_bytes)
        # Flash miss (or CRC-failed page): fetch from disk, fill both the
        # PDC (synchronously) and the Flash read cache (in the background).
        latency = (outcome.latency_us if outcome is not None else 0.0)
        self.stats.disk_fills += 1
        latency += self._disk_read()
        latency += self._dram_write(self._page_bytes)
        self.background_us += self._flash_insert_clean(page)
        return latency

    def _write_back(self, page: int) -> None:
        outcome = self._flash_write(page)
        self.background_us += outcome.latency_us
        self._writeback_queue.extend(outcome.flushed_lbas)

    def _periodic_flush(self) -> None:
        # Flush the Flash write cache first (section 5.1: "The disk is
        # eventually updated by flushing the write disk cache") so its
        # pages are clean by the time eviction recycles their blocks.
        self._writeback_queue.extend(self.flash.flush())
        scrubber = self.scrubber
        if scrubber is not None:
            # Retention scrub rides the write-back daemon's tick: cheap
            # clock check until the scrub interval elapses, then one pass
            # whose traffic is charged to background time (and whose
            # eviction-flushed dirty pages join this very flush batch).
            elapsed_us, flushed = scrubber.maybe_scrub()
            if flushed:
                self._writeback_queue.extend(flushed)
            self.background_us += elapsed_us
        self._drain_writeback_queue()

    def reset_measurement(self) -> None:
        super().reset_measurement()
        from ..flash.device import FlashStats
        self.flash.controller.device.stats = FlashStats()
        self.flash.stats.foreground_time_us = 0.0
        self.flash.stats.gc_time_us = 0.0

    def drain(self) -> None:
        """Flush PDC dirty pages to Flash and Flash dirty pages to disk
        (simulation barrier; keeps the energy accounting honest)."""
        for page in self.pdc.flush():
            self._write_back(page)
        self._writeback_queue.extend(self.flash.flush())
        self._drain_writeback_queue()


def build_flash_system(
    dram_bytes: int,
    flash_bytes: int,
    cache_config: FlashCacheConfig | None = None,
    controller_config: ControllerConfig | None = None,
    lifetime_model: Optional[CellLifetimeModel] = None,
    initial_mode: CellMode = CellMode.MLC,
    seed: int = 0,
    power_model_dram_bytes: int | None = None,
    fault_config: FaultConfig | None = None,
    reliability_config: ReliabilityConfig | None = None,
    scrub_config: ScrubConfig | None = None,
) -> FlashBackedSystem:
    """Convenience factory wiring device -> controller -> cache -> system.

    ``flash_bytes`` is the MLC-mode data capacity (Table 3 sizes Flash this
    way); wear modelling is off unless a ``lifetime_model`` is supplied,
    which keeps pure performance studies fast.  A ``fault_config`` with any
    non-zero rate attaches a deterministic fault injector to the device
    and switches the cache into fault-aware graceful degradation.  A
    ``reliability_config`` with any non-zero rate attaches the seeded
    error-process model (wear/retention/disturb/interference physics) to
    the device; add a ``scrub_config`` on top for background retention
    scrubbing (requires the model — there is nothing to age without it).
    """
    geometry = FlashGeometry.for_capacity(flash_bytes, mode=initial_mode)
    injector = None
    if fault_config is not None and fault_config.any_enabled:
        injector = FaultInjector(fault_config)
    reliability = None
    if reliability_config is not None and reliability_config.any_enabled:
        reliability = ReliabilityModel(reliability_config)
    device = FlashDevice(
        geometry=geometry,
        lifetime_model=lifetime_model,
        initial_mode=initial_mode,
        seed=seed,
        fault_injector=injector,
        reliability=reliability,
    )
    controller = ProgrammableFlashController(
        device, config=controller_config)
    if cache_config is None:
        # Bound background GC to roughly one page move per request so
        # compaction cannot out-consume the device (write amplification);
        # beyond that the cache evicts (cheap for flushed-clean pages).
        cache_config = FlashCacheConfig(gc_move_budget=1.0)
    cache = FlashDiskCache(controller, config=cache_config)
    system_config = SystemConfig(
        dram_bytes=dram_bytes, flash_bytes=flash_bytes,
        power_model_dram_bytes=power_model_dram_bytes)
    system = FlashBackedSystem(system_config, cache)
    if scrub_config is not None:
        if reliability is None:
            raise ValueError("scrub_config requires a reliability_config "
                             "with at least one non-zero rate")
        system.scrubber = Scrubber(cache, scrub_config)
    return system

"""The Flash based disk cache (paper sections 3 and 5.1).

This is the secondary disk cache that sits between the DRAM primary disk
cache and the hard drive.  The headline design points reproduced here:

* **Split read/write regions** (section 3.5).  The Flash is divided into a
  read disk cache (default 90% of blocks) and a write disk cache (10%).
  All writes are out-of-place appends into the write region's log, so
  write-triggered garbage collection only ever considers the small write
  region; the read region keeps its capacity full of valid pages and only
  recycles blocks on read misses.  A ``split=False`` configuration gives
  the unified baseline of Figure 4, where writes punch invalid holes
  across the whole cache.
* **Out-of-place writes and garbage collection** (sections 2.2, 5.1).
  Pages program once per erase cycle, so updates append and invalidate.
  GC copies a victim block's valid pages into a reserve block, erases the
  victim, and rotates it in as the new reserve; it is only worthwhile
  while the region holds at least a block's worth of invalid pages —
  otherwise the LRU block is evicted outright (flushing dirty pages to
  disk when the victim is in the write region).  GC also compacts the
  read region when write-invalidations drop its valid capacity under the
  90% watermark.  All GC work runs in the background and is accounted
  separately (Figure 1(b) measures its time overhead).
* **Wear-level-aware replacement** (section 3.6).  Victims start as the
  region's LRU block; if the victim's FBST wear-out exceeds the globally
  newest block's by a threshold, the newest block's content migrates into
  the (erased) victim and the newest block is recycled instead — blocks
  swap region ownership so capacity is preserved while erases spread.
* **Hot-page SLC promotion** (section 5.2.2).  When a page's FPST access
  counter saturates in MLC mode, the page migrates to an SLC-formatted
  block, trading half a frame of capacity for half the read latency.
* **Graceful degradation** (section 4, Figure 12 in spirit).  The cache
  never loses data permanently and never crashes on hardware faults: an
  uncorrectable read becomes an invalidate-and-miss (the backing disk
  always has the data), a failed program remaps to a fresh frame, and a
  failed erase retires its block, shrinking the cache's live capacity
  while it keeps serving.  Below a documented minimum-blocks floor
  (:attr:`FlashCacheConfig.min_live_blocks`) the cache switches itself
  off and the hierarchy falls back to DRAM+disk.
"""

from __future__ import annotations

import enum
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import (Any, Callable, Deque, Dict, List, NamedTuple, NoReturn,
                    Optional, Set, Tuple)

from ..flash.device import EraseFailure, ProgramFailure
from ..flash.timing import CellMode
from .controller import ProgrammableFlashController
from .errors import (
    CacheCapacityError,
    CacheDegradedError,
    NoEvictableBlockError,
    ReserveBlockLostError,
)
from .tables import FlashCacheHashTable

__all__ = [
    "Region",
    "FlashCacheConfig",
    "CacheStats",
    "FlashReadOutcome",
    "WriteOutcome",
    "ScrubOutcome",
    "FlashDiskCache",
]


class Region(enum.Enum):
    """Which disk-cache region a block belongs to."""

    READ = "read"
    WRITE = "write"
    UNIFIED = "unified"


@dataclass(frozen=True)
class FlashCacheConfig:
    """Policy knobs of the Flash based disk cache."""

    split: bool = True
    read_fraction: float = 0.9          # section 3.5: 90% read / 10% write
    gc_read_watermark: float = 0.90     # section 5.1 read-region GC trigger
    wear_threshold: float = 64.0        # section 3.6 swap threshold
    fcht_buckets: int = 128
    hot_promotion: bool = True
    #: True (disk-cache semantics): when GC cannot free a whole block the
    #: LRU block is simply evicted.  False models the Flash-as-disk / SSD
    #: setting of section 2.2 (and Figure 1(b)), where every page is
    #: precious and garbage collection is the only way to reclaim space.
    allow_eviction_for_space: bool = True
    #: Format write-region blocks as SLC when they are opened: the write
    #: log is the hottest, most rewritten Flash real estate, so trading
    #: half its capacity for the 200us (vs 680us) program and 1.5ms (vs
    #: 3.3ms) erase is the density controller's section 4.2 play applied
    #: statically.
    write_region_slc: bool = False
    #: Background GC bandwidth, in page moves of credit earned per
    #: foreground cache operation; ``None`` = unlimited.  GC runs "in the
    #: background" (section 5.1), so it can only spend device idle time —
    #: when a GC pass would need more moves than the accrued credit the
    #: cache falls back to evicting, losing cached data.  This is the
    #: mechanism behind the paper's observation that out-of-place writes
    #: "increase the garbage collection overhead which in turn increases
    #: the number of overall disk cache misses" (section 3.5), and the
    #: split design's remedy of shrinking the blocks GC must consider.
    gc_move_budget: Optional[float] = None
    #: The graceful-degradation floor: once retirements leave fewer than
    #: this many live (non-retired) blocks across the cache, the cache
    #: stops serving Flash entirely and the hierarchy runs DRAM+disk.
    #: Four is the structural minimum the constructor itself demands
    #: (one reserve plus one allocatable block per region); below it the
    #: split cache cannot maintain its invariants.
    min_live_blocks: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.read_fraction < 1.0:
            raise ValueError("read_fraction must be in (0, 1)")
        if not 0.0 < self.gc_read_watermark <= 1.0:
            raise ValueError("gc_read_watermark must be in (0, 1]")
        if self.wear_threshold <= 0:
            raise ValueError("wear_threshold must be positive")
        if self.min_live_blocks < 1:
            raise ValueError("min_live_blocks must be positive")


@dataclass
class CacheStats:
    """Cache-level counters; GC activity is tracked separately because the
    paper charges it to the background, not to requests."""

    read_hits: int = 0
    read_misses: int = 0
    writes: int = 0
    write_region_hits: int = 0
    invalidations: int = 0
    fills: int = 0
    read_evictions: int = 0
    write_evictions: int = 0
    flushed_pages: int = 0
    gc_runs: int = 0
    gc_page_moves: int = 0
    gc_time_us: float = 0.0
    foreground_time_us: float = 0.0
    wear_swaps: int = 0
    slc_promotions: int = 0
    uncorrectable: int = 0
    # -- degradation metrics (fault handling) --------------------------------
    #: Faults survived without data loss: the page dropped out of Flash
    #: but the backing disk still holds its (current) content.
    recovered_faults: int = 0
    #: Faults that lost a *dirty* page — the disk serves stale data.
    unrecovered_faults: int = 0
    #: Programs that failed and were replayed onto a fresh frame.
    remapped_programs: int = 0
    #: Blocks the cache pulled from service after the controller retired
    #: them (erase failures, program-failure thresholds, worn-out pages).
    retired_blocks: int = 0
    #: Times the cache dropped to the DRAM+disk bypass (0 or 1 per run).
    degraded_events: int = 0
    #: Requests served while in the degraded bypass.
    bypass_reads: int = 0
    bypass_writes: int = 0

    @property
    def read_miss_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_misses / total if total else 0.0

    @property
    def miss_rate(self) -> float:
        """Overall miss rate: read misses over all cache accesses (writes
        always 'hit' the log, so reads carry the miss signal)."""
        total = self.read_hits + self.read_misses + self.writes
        return self.read_misses / total if total else 0.0

    @property
    def gc_overhead(self) -> float:
        """GC time relative to foreground cache service time (Fig 1(b))."""
        if self.foreground_time_us == 0.0:
            return 0.0
        return self.gc_time_us / self.foreground_time_us


class FlashReadOutcome(NamedTuple):
    """Result of a Flash cache read hit."""

    latency_us: float
    recovered: bool


class WriteOutcome(NamedTuple):
    """Result of a write into the cache.

    ``flushed_lbas`` are dirty pages pushed to disk by a write-region
    eviction; the hierarchy layer schedules the actual disk writes.
    """

    latency_us: float
    flushed_lbas: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ScrubOutcome:
    """Result of one :meth:`FlashDiskCache.scrub_page` refresh attempt.

    ``refreshed`` means the page was re-read clean and rewritten fresh;
    ``uncorrectable`` means the re-read found a latent error past
    correction (the page was dropped — the countermeasure arrived too
    late).  ``flushed_lbas`` are dirty pages pushed to disk by evictions
    the rewrite triggered.
    """

    latency_us: float
    refreshed: bool
    uncorrectable: bool = False
    flushed_lbas: Tuple[int, ...] = ()


class _RegionState:
    """Bookkeeping for one cache region's blocks.

    ``lru`` maps each content block, least recently used first, to the
    page capacity booked for it.  Three running totals spare the GC
    triggers a sum over the region per call: ``lru_capacity`` and
    ``lru_valid`` (the LRU blocks' capacity and valid pages) and
    ``invalid_total``.  Blocks enter and leave ``lru`` only through the
    methods below; an edit of ``invalid`` or of an LRU block's valid
    count adjusts its total where it happens.  ``block_valid`` is the
    cache's per-block valid count, shared by its regions.
    :meth:`FlashDiskCache.check_invariants` recomputes all three.
    """

    __slots__ = ("name", "free_blocks", "open_block", "open_free",
                 "lru", "block_valid", "invalid", "reserve_block",
                 "reserve_free", "lru_capacity", "lru_valid", "invalid_total")

    def __init__(self, name: Region, block_valid: List[int]) -> None:
        self.name = name
        self.free_blocks: Deque[int] = deque()
        self.open_block: Optional[int] = None
        self.open_free: Deque[int] = deque()
        self.lru: "OrderedDict[int, int]" = OrderedDict()
        self.block_valid = block_valid
        self.invalid: Dict[int, int] = {}
        self.lru_capacity = 0
        self.lru_valid = 0
        self.invalid_total = 0
        # The reserve is a persistent GC log: garbage collection compacts
        # victims' valid pages into it across runs, and each emptied victim
        # becomes an allocatable free block.
        self.reserve_block: Optional[int] = None
        # The reserve's free pages during a GC pass; empty between passes.
        self.reserve_free: Deque[int] = deque()

    def enter_lru(self, block: int, capacity: int) -> None:
        """(Re)insert ``block`` at the most recently used end."""
        self.leave_lru(block)
        self.lru[block] = capacity
        self.lru_capacity += capacity
        self.lru_valid += self.block_valid[block]

    def leave_lru(self, block: int) -> None:
        capacity = self.lru.pop(block, None)
        if capacity is not None:
            self.lru_capacity -= capacity
            self.lru_valid -= self.block_valid[block]

    def reprice(self, block: int, capacity: int) -> None:
        """Book a reshaped LRU block's new capacity in place."""
        booked = self.lru.get(block)
        if booked is not None:
            self.lru_capacity += capacity - booked
            self.lru[block] = capacity

    def set_invalid(self, block: int, count: int) -> None:
        self.invalid_total += count - self.invalid.get(block, 0)
        self.invalid[block] = count

    def drop_invalid(self, block: int) -> None:
        self.invalid_total -= self.invalid.pop(block, 0)


class FlashDiskCache:
    """Software-managed Flash secondary disk cache over a programmable
    Flash memory controller."""

    def __init__(self, controller: ProgrammableFlashController,
                 config: FlashCacheConfig | None = None) -> None:
        self.controller = controller
        self.config = config or FlashCacheConfig()
        self.fcht = FlashCacheHashTable(buckets=self.config.fcht_buckets)
        self.stats = CacheStats()
        #: Optional :class:`repro.telemetry.Telemetry` handle; ``None``
        #: (default) leaves the GC/degrade paths un-instrumented.
        self.telemetry: Optional[Any] = None
        self._dirty: Set[int] = set()           # lbas not yet on disk
        #: Dirty lbas whose Flash home died; they leave via the next flush.
        self._orphan_dirty: Set[int] = set()
        self._gc_credit = 0.0                   # background move budget
        #: Credit each access accrues (``None``: GC is unbudgeted).
        self._gc_accrual = self.config.gc_move_budget
        #: True once the cache fell below its minimum-blocks floor and
        #: handed the hierarchy back to DRAM+disk.
        self.degraded = False
        #: Fault-aware mode engages only when the device carries a fault
        #: injector.  The historical wear-only studies predate cache-level
        #: block shedding (controller retirement was advisory), and their
        #: figures must keep reproducing bit-identically.
        self._fault_aware = controller.device.fault_injector is not None
        num_blocks = controller.device.geometry.num_blocks
        if num_blocks < 4:
            raise ValueError("Flash disk cache needs at least 4 blocks")
        # Per-page validity is the FPST's valid column; per block the
        # cache keeps its valid-page count and its region (the tag moves
        # only in a wear swap).  A block's page numbers are
        # ``block * _span`` up to the next block's.
        self._valid = controller.fpst.valid
        self._span = controller.block_span
        self._block_valid = [0] * num_blocks
        if self.config.split:
            read_blocks = max(2, int(num_blocks * self.config.read_fraction))
            read_blocks = min(read_blocks, num_blocks - 2)
            self._read = _RegionState(Region.READ, self._block_valid)
            self._write = _RegionState(Region.WRITE, self._block_valid)
            self._read.free_blocks.extend(range(read_blocks))
            self._write.free_blocks.extend(range(read_blocks, num_blocks))
            self._owner = ([self._read] * read_blocks
                           + [self._write] * (num_blocks - read_blocks))
        else:
            unified = _RegionState(Region.UNIFIED, self._block_valid)
            unified.free_blocks.extend(range(num_blocks))
            self._read = unified
            self._write = unified
            self._owner = [unified] * num_blocks
        self._regions: Tuple[_RegionState, ...] = (
            (self._read,) if self._read is self._write
            else (self._read, self._write))
        #: An LBA the last read missed and nothing has mapped since, so
        #: the fill that follows the miss skips its FCHT lookup.
        self._missed_lba: Optional[int] = None
        #: The erased victim's free pages while a wear swap fills it.
        self._swap_free: Deque[int] = deque()
        self._fgst = controller.fgst
        # One erased block per region is held back as the GC reserve.
        for region in self._regions:
            region.reserve_block = region.free_blocks.popleft()
            region.invalid.setdefault(region.reserve_block, 0)
        # The controller tells us whenever a block retires so capacity
        # bookkeeping (and the degradation floor) stays exact.
        self.controller.retire_listener = self._on_block_retired
        self._initial_pages = self.total_pages()

    # -- capacity queries ----------------------------------------------------

    def total_pages(self) -> int:
        """Current logical page capacity across all non-retired blocks
        (bad frames excluded)."""
        return sum(map(self.controller.block_capacity_pages,
                       self._blocks_in_service()))

    def valid_pages(self) -> int:
        return sum(self._block_valid)

    def used_fraction(self) -> float:
        total = self.total_pages()
        return self.valid_pages() / total if total else 0.0

    def live_capacity_fraction(self) -> float:
        """Fraction of the original page capacity still in service."""
        if self._initial_pages <= 0:
            return 0.0
        return self.total_pages() / self._initial_pages

    def _blocks_in_service(self) -> List[int]:
        """Non-retired blocks a region holds (each is held once)."""
        is_retired = self.controller.is_retired
        return [block for region in self._regions
                for block in self._all_region_blocks(region)
                if not is_retired(block)]

    def _all_region_blocks(self, region: _RegionState) -> List[int]:
        blocks = list(region.free_blocks) + list(region.lru)
        if region.open_block is not None:
            blocks.append(region.open_block)
        if region.reserve_block is not None:
            blocks.append(region.reserve_block)
        return blocks

    # -- lookup / read ---------------------------------------------------------

    def contains(self, lba: int) -> bool:
        return lba in self.fcht

    def read(self, lba: int) -> Optional[FlashReadOutcome]:
        """Serve a read from Flash; ``None`` on miss.

        An uncorrectable page (CRC-confirmed) is dropped from the cache
        and reported with ``recovered=False`` so the caller refetches from
        disk.  In the degraded (DRAM+disk bypass) state every read is an
        immediate miss.
        """
        stats = self.stats
        if self.degraded:
            stats.bypass_reads += 1
            stats.read_misses += 1
            return None
        accrual = self._gc_accrual
        if accrual is not None:
            self._gc_credit += accrual
        # The FCHT's lookup and lookup_cost_us, inline.
        fcht = self.fcht
        mapping = fcht.mapping
        page = mapping.get(lba)
        expected_chain = len(mapping) / fcht.buckets
        if expected_chain < 1.0:
            expected_chain = 1.0
        lookup_us = fcht.BASE_COST_US + fcht.PROBE_COST_US * expected_chain
        if page is None:
            stats.read_misses += 1
            self._fgst.record_miss(4200.0)
            stats.foreground_time_us += lookup_us
            self._missed_lba = lba
            return None

        result = self.controller.read(page)
        latency = lookup_us + result.latency_us
        stats.foreground_time_us += latency
        if not result.recovered:
            stats.uncorrectable += 1
            self._drop_page(lba, page)
            self._lose_page(lba)
            stats.read_misses += 1
            self._fgst.record_miss(4200.0)
            return FlashReadOutcome(latency, False)

        stats.read_hits += 1
        self._fgst.record_hit(result.latency_us)
        block = page // self._span
        region = self._owner[block]
        if block in region.lru:
            region.lru.move_to_end(block)
        if result.hot_promotion and self.config.hot_promotion:
            self._promote_to_slc(lba, page)
        return FlashReadOutcome(latency, True)

    # -- fills (read misses) -----------------------------------------------------

    def insert_clean(self, lba: int) -> float:
        """Install a page fetched from disk into the read region.

        Returns the (background) program latency.  Section 5.1: on a read
        miss the disk content is copied to both the PDC and the read cache.
        A degraded cache installs nothing (the PDC alone caches the line).
        """
        if self.degraded:
            return 0.0
        accrual = self._gc_accrual
        if accrual is not None:
            self._gc_credit += accrual
        if lba == self._missed_lba:
            self._missed_lba = None  # the miss's lookup: not cached
        else:
            old = self.fcht.mapping.get(lba)
            if old is not None:
                self._drop_page(lba, old)
        region = self._read
        free = region.open_free
        if free and not self._fault_aware:
            # The common case: the open block has a free page and no
            # fault injector can fail its program, so the page is taken,
            # programmed and registered here.  The open block is never
            # in the LRU (check_invariants checks it), so no LRU total
            # moves.
            page = free.popleft()
            latency = self.controller.program(page, lba)
            self.fcht.mapping[lba] = page
            self._block_valid[page // self._span] += 1
            self.stats.fills += 1
            return latency
        try:
            page, latency, flushed = self._program_with_remap(region, lba)
        except CacheDegradedError:
            if not self.config.allow_eviction_for_space:
                raise
            self._enter_degraded()
            return 0.0
        if flushed:
            # Dirty flushes can only originate in the write region; the
            # read region never produces them (unified mode drops them,
            # preserving the historical accounting).
            self.stats.flushed_pages += len(flushed)
        self._register(lba, page)
        self.stats.fills += 1
        return latency

    # -- writes ---------------------------------------------------------------------

    def write(self, lba: int) -> WriteOutcome:
        """Out-of-place write into the write region (section 5.1).

        Existing copies — in either region — are invalidated first.  The
        read region may cross the GC watermark as a result and compact in
        the background.  A degraded cache forwards the write straight to
        disk via ``flushed_lbas``.
        """
        self.stats.writes += 1
        if self.degraded:
            self.stats.bypass_writes += 1
            self._orphan_dirty.discard(lba)
            return WriteOutcome(latency_us=0.0, flushed_lbas=(lba,))
        accrual = self._gc_accrual
        if accrual is not None:
            self._gc_credit += accrual
        existing = self.fcht.lookup(lba)
        try:
            if existing is not None:
                region = self._owner[existing // self._span]
                if region is self._write and self.config.split:
                    self.stats.write_region_hits += 1
                self._drop_page(lba, existing)
                if self.config.split and region is self._read:
                    self._maybe_gc_read_region()
            page, latency, flushed = \
                self._program_with_remap(self._write, lba)
        except CacheDegradedError:
            if not self.config.allow_eviction_for_space:
                raise
            self._enter_degraded()
            self.stats.bypass_writes += 1
            self._orphan_dirty.discard(lba)
            return WriteOutcome(latency_us=0.0, flushed_lbas=(lba,))
        self.stats.foreground_time_us += latency
        self._register(lba, page)
        self._dirty.add(lba)
        return WriteOutcome(latency_us=latency, flushed_lbas=tuple(flushed))

    # -- scrubbing (retention refresh) ----------------------------------------------

    def cached_lbas(self) -> List[int]:
        """Every currently mapped LBA, sorted (deterministic scan order
        for the scrub pass regardless of insertion history)."""
        return sorted(self.fcht.mapping)

    def scrub_page(self, lba: int) -> ScrubOutcome:
        """Refresh one cached page: re-read it through the controller
        (latent errors are detected, counted, and answered by the normal
        section 5.2.1 response) and rewrite it out-of-place in its owning
        region, resetting its retention age.

        Runs entirely on the cache's ordinary machinery — FCHT remap,
        region bookkeeping, GC/eviction pressure from the rewrite — so
        every invariant the foreground path maintains holds here too.
        Read hit/miss statistics are untouched: scrubbing is background
        maintenance, not request traffic.
        """
        if self.degraded:
            return ScrubOutcome(latency_us=0.0, refreshed=False)
        page = self.fcht.lookup(lba)
        if page is None:
            return ScrubOutcome(latency_us=0.0, refreshed=False)
        result = self.controller.read(page)
        latency = result.latency_us
        if not result.recovered:
            self.stats.uncorrectable += 1
            self._drop_page(lba, page)
            self._lose_page(lba)
            return ScrubOutcome(latency_us=latency, refreshed=False,
                                uncorrectable=True)
        if self.fcht.lookup(lba) != page or self.degraded:
            # The read's fault response (block retirement, degradation)
            # already unmapped the page; nothing left to rewrite.
            return ScrubOutcome(latency_us=latency, refreshed=False)
        region = self._owner[page // self._span]
        dirty = lba in self._dirty
        self._drop_page(lba, page)
        try:
            new_page, program_us, flushed = \
                self._program_with_remap(region, lba)
        except CacheDegradedError:
            if not self.config.allow_eviction_for_space:
                raise
            # ``lba`` is still in ``_dirty`` (if it was dirty), so
            # entering the bypass routes it out through the orphan flush.
            self._enter_degraded()
            return ScrubOutcome(latency_us=latency, refreshed=False)
        self._register(lba, new_page)
        if dirty:
            # The rewrite does not launder dirtiness: the copy is still
            # newer than the disk's until the next flush.
            self._dirty.add(lba)
        return ScrubOutcome(latency_us=latency + program_us,
                            refreshed=True,
                            flushed_lbas=tuple(flushed))

    # -- page bookkeeping helpers ---------------------------------------------------

    def _register(self, lba: int, page: int) -> None:
        self.fcht.mapping[lba] = page
        self._missed_lba = None
        # Pages land only in an open block, which is never in the LRU
        # (check_invariants), so lru_valid does not move here.
        self._block_valid[page // self._span] += 1

    def _valid_pages(self, block: int) -> List[int]:
        """``block``'s valid pages, in page order."""
        first = block * self._span
        return list(compress(range(first, first + self._span),
                             self._valid[first:first + self._span]))

    def _clear_valid(self, block: int) -> None:
        """Count no valid page in ``block`` (it was erased or emptied)."""
        for page in self._valid_pages(block):
            self.controller.invalidate(page)
        self._block_valid[block] = 0

    def _release(self, page: int) -> Optional[_RegionState]:
        """Take ``page`` out of its block's valid count; returns the
        block's region, or None when the page is no longer valid (its
        block retired under the caller)."""
        if not self._valid[page]:
            return None
        block = page // self._span
        owner = self._owner[block]
        self._block_valid[block] -= 1
        if block in owner.lru:
            owner.lru_valid -= 1
        self._valid[page] = 0  # the controller's invalidate, inline
        return owner

    def _drop_page(self, lba: int, page: int) -> None:
        """Invalidate a cached page everywhere it is tracked."""
        self.fcht.remove(lba)
        self._count_invalid(page, self._release(page))

    def _count_invalid(self, page: int,
                       region: Optional[_RegionState]) -> None:
        """Count an invalidation and book ``page`` as reclaimable space
        of ``region`` (None: no region counted it valid)."""
        if region is not None:
            block = page // self._span
            region.invalid[block] = region.invalid.get(block, 0) + 1
            region.invalid_total += 1
        self.stats.invalidations += 1

    # -- fault handling and graceful degradation ----------------------------------------

    def _fault_drop(self, lba: int, page: int) -> None:
        """Unmap a page whose Flash copy was destroyed by a fault; no-ops
        when the FCHT no longer points at ``page`` (the page moved or
        was already unmapped)."""
        if self.fcht.lookup(lba) != page:
            return
        self.fcht.remove(lba)
        self._release(page)
        self._lose_page(lba)

    def _lose_page(self, lba: int) -> None:
        """Count the loss of ``lba``'s cached copy.  A clean page is
        merely re-fetchable from disk (recovered); a dirty page leaves the
        disk stale (unrecovered).  A fault-aware cache still routes it
        through the next flush so write-back accounting stays balanced;
        without a fault injector it leaves write-back."""
        if lba in self._dirty:
            self._dirty.discard(lba)
            self.stats.unrecovered_faults += 1
            if self._fault_aware:
                self._orphan_dirty.add(lba)
        else:
            self.stats.recovered_faults += 1

    def _abandon_bad_frame(self, page: int) -> None:
        """Purge every page of a frame the controller just marked bad.

        The controller keeps the frame's *valid* FPST entries alive long
        enough for us to read their LBA back-pointers; after the unmap
        they are dropped here and the frame's pages leave every
        destination queue.
        """
        fpst = self.controller.fpst
        block = page // self._span
        doomed = 0
        for sibling in self.controller.frame_pages(page):
            if fpst.valid[sibling] and fpst.lba[sibling] >= 0:
                self._fault_drop(fpst.lba[sibling], sibling)
            if self._valid[sibling]:
                doomed += 1
            fpst.drop(sibling)
        key = page >> 1
        region = self._owner[block]
        if region.open_free:
            region.open_free = deque(
                p for p in region.open_free if p >> 1 != key)
        if region.reserve_free:
            region.reserve_free = deque(
                p for p in region.reserve_free if p >> 1 != key)
        if self._swap_free:
            self._swap_free = deque(
                p for p in self._swap_free if p >> 1 != key)
        self._block_valid[block] -= doomed
        if block in region.lru:
            region.lru_valid -= doomed
        region.reprice(block, self.controller.block_capacity_pages(block))

    def _program_with_remap(
            self, region: _RegionState,
            lba: int) -> Tuple[int, float, List[int]]:
        """Allocate and program a page of ``region``.  Returns (page,
        total latency including failed attempts, dirty LBAs flushed by
        evictions).  When the cache degrades part-way, those LBAs leave
        through the next flush instead."""
        flushed: List[int] = []
        try:
            page, latency = self._program(
                lba, partial(self._allocate_page, region, flushed), 0.0)
        except CacheDegradedError:
            self._orphan_dirty.update(flushed)
            raise
        assert page is not None  # the allocator never runs dry
        return page, latency, flushed

    def _program(self, lba: int, next_page: Callable[[], Optional[int]],
                 elapsed: float) -> Tuple[Optional[int], float]:
        """Program ``lba`` onto the first page ``next_page`` offers whose
        program succeeds, abandoning the frame of each that fails.
        Returns the page (None once ``next_page`` runs dry) and
        ``elapsed`` plus every attempt's latency.  Raises
        :class:`CacheDegradedError` once the cache has degraded (a block
        retired under the caller), so no pass maps into the shed FCHT."""
        while True:
            page = next_page()
            if page is None:
                return None, elapsed
            if self.degraded:
                raise CacheDegradedError(
                    "the cache degraded part-way through a page move")
            try:
                elapsed += self.controller.program(page, lba)
            except ProgramFailure as failure:
                elapsed += failure.latency_us
                self.stats.remapped_programs += 1
                self._abandon_bad_frame(page)
                continue
            return page, elapsed

    def _move_page(self, lba: int, page: int,
                   next_page: Callable[[], Optional[int]],
                   elapsed: float) -> Tuple[Optional[int], float]:
        """Move the copy of ``lba`` (-1: none) at ``page`` onto a page
        ``next_page`` offers: read it, invalidate it, program the copy
        and point the FCHT at it.  A copy a fault-aware cache cannot
        read, or that finds no page, falls out of the cache.  Returns
        the new page (None when the copy was lost) and ``elapsed`` plus
        the read and program latencies, added in that order."""
        read_result = self.controller.read(page)
        elapsed += read_result.latency_us
        if self._fault_aware and not read_result.recovered:
            self.stats.uncorrectable += 1
            if lba >= 0:
                self._fault_drop(lba, page)
            return None, elapsed
        self._release(page)
        target, elapsed = self._program(lba, next_page, elapsed)
        if target is None:
            if lba >= 0:
                self._fault_drop(lba, page)
            return None, elapsed
        if lba >= 0:
            self.fcht.mapping[lba] = target
        # Copies land only in pages outside the LRU (a reserve, an open
        # block, a swap victim), so lru_valid does not move here.
        self._block_valid[target // self._span] += 1
        return target, elapsed

    def _try_erase(self, block: int) -> Tuple[float, bool]:
        """Erase a block.  Returns (latency, whether it is still in
        service): a failed erase retires it, and a fault-aware cache may
        have retired it earlier; either way the retire listener already
        pulled it from every region structure."""
        try:
            latency = self.controller.erase(block)
        except EraseFailure as failure:
            return failure.latency_us, False
        return latency, not (self._fault_aware
                             and self.controller.is_retired(block))

    def _adopt_reserve(self, region: _RegionState) -> Optional[int]:
        """Replace a dead GC reserve with a free (erased) block."""
        while region.free_blocks:
            block = region.free_blocks.popleft()
            if self.controller.is_retired(block):
                continue
            region.reserve_block = block
            region.invalid.setdefault(block, 0)
            return block
        return None

    def _on_block_retired(self, block: int) -> None:
        """Controller retire callback: pull the block out of service.

        Active only in fault-aware mode — the wear-only studies keep the
        historical advisory-retirement semantics (see ``_fault_aware``).
        Data still mapped in the block is dropped (the disk has it, or it
        leaves via the orphan flush), and the block vanishes from every
        free/LRU/open/reserve structure, shrinking live capacity.
        """
        if not self._fault_aware:
            return
        self.stats.retired_blocks += 1
        lbas = self.controller.fpst.lba
        for page in self._valid_pages(block):
            if lbas[page] >= 0:
                self._fault_drop(lbas[page], page)
        # The block keeps its region tag but leaves every block list.
        region = self._owner[block]
        region.leave_lru(block)
        self._clear_valid(block)
        region.drop_invalid(block)
        if block in region.free_blocks:
            region.free_blocks = deque(
                b for b in region.free_blocks if b != block)
        if region.open_block == block:
            region.open_block = None
            region.open_free = deque()
        if region.reserve_block == block:
            region.reserve_block = None
            region.reserve_free = deque()
        if len(self._blocks_in_service()) < self.config.min_live_blocks:
            self._enter_degraded()

    def _enter_degraded(self) -> None:
        """Drop below the minimum-blocks floor: switch the Flash off.

        The cache stops serving (reads miss, writes forward to disk) and
        sheds its mapping state; dirty data is parked in the orphan set so
        the next flush still pushes it to disk.
        """
        if self.degraded:
            return
        self.degraded = True
        self.stats.degraded_events += 1
        if self.telemetry is not None:
            self.telemetry.degrade()
        self._orphan_dirty.update(self._dirty)
        self._dirty.clear()
        self.fcht = FlashCacheHashTable(buckets=self.config.fcht_buckets)

    # -- allocation, eviction, wear-leveling -------------------------------------------

    def _allocate_page(self, region: _RegionState,
                       flushed: List[int]) -> int:
        """The region's next free page, opening, collecting or evicting a
        block as needed; evictions add the dirty LBAs they flush to
        ``flushed``."""
        while not region.open_free:
            if region.open_block is not None:
                # Open block is full: close it into the LRU set.
                self._close_block(region, region.open_block)
                region.open_block = None
            if region.free_blocks:
                slc = (self.config.write_region_slc
                       and self.config.split and region is self._write)
                self._open_block(region, region.free_blocks.popleft(),
                                 slc=slc)
                continue
            block_capacity = self._nominal_block_pages()
            collected = False
            if region.invalid_total >= block_capacity \
                    or not self.config.allow_eviction_for_space:
                collected = self._garbage_collect(region)
            if not collected:
                if not self.config.allow_eviction_for_space:
                    raise CacheCapacityError(
                        "flash is full of valid pages and eviction is "
                        "disabled (SSD semantics): no space can be reclaimed")
                flushed.extend(self._evict_block(region))
        return region.open_free.popleft()

    def _close_block(self, region: _RegionState, block: int) -> None:
        """Put a block with content into the region's LRU, priced at its
        current capacity."""
        region.enter_lru(block, self.controller.block_capacity_pages(block))

    def _gc_move_allowance(self) -> Optional[int]:
        """How many GC page moves the background budget currently allows
        (None = unlimited).  SSD mode ignores the budget: with eviction
        forbidden, GC must run regardless."""
        if self.config.gc_move_budget is None \
                or not self.config.allow_eviction_for_space:
            return None
        return int(self._gc_credit)

    def _nominal_block_pages(self) -> int:
        geometry = self.controller.device.geometry
        return geometry.pages_per_block(CellMode.MLC)

    def _open_block(self, region: _RegionState, block: int,
                    slc: bool = False) -> bool:
        """Open an erased block for appends.  Returns False — leaving the
        region without an open block — when the block cannot serve: it
        retired, its SLC format erase failed, or bad frames left it
        without a single usable page."""
        if self._fault_aware and self.controller.is_retired(block):
            return False
        if slc:
            for frame in range(self.controller.device.geometry
                               .frames_per_block):
                if not self.controller.is_bad_frame(block, frame):
                    self.controller.request_slc(block * self._span
                                                + 2 * frame)
            latency, ok = self._try_erase(block)
            self.stats.gc_time_us += latency
            if not ok:
                return False
        # A free block holds no valid page: it was erased, or never used.
        pages = self.controller.pages_of_block(block)
        if not pages:
            # Every frame is bad: the block silently leaves service.
            return False
        region.open_block = block
        region.open_free = deque(pages)
        region.invalid.setdefault(block, 0)
        return True

    def _garbage_collect(self, region: _RegionState) -> bool:
        """Compact one victim block into the reserve GC log.

        The victim's valid pages move into the reserve block's free pages;
        the erased victim then either becomes the new reserve (when the
        old one filled up, which closes it into the LRU set) or joins the
        free list as allocatable space.  Victim selection is greedy
        most-invalid (cheapest move per page reclaimed); all work runs in
        the background (time booked to ``gc_time_us``).  Returns False
        when no victim fits the remaining reserve space (the caller falls
        back to eviction) or, in SSD mode, when the reserve died and no
        free block can replace it (:class:`ReserveBlockLostError`).
        """
        reserve = region.reserve_block
        if reserve is None:
            reserve = self._adopt_reserve(region)
            if reserve is None:
                if not self.config.allow_eviction_for_space:
                    raise ReserveBlockLostError(
                        "GC reserve block died and no free block can "
                        "replace it")
                return False
        # The reserve is erased at every pass start, so its whole layout
        # is free; the page queue is built only once a victim fits.
        reserve_pages = self.controller.pages_of_block(reserve)
        allowance = self._gc_move_allowance()
        max_moves = len(reserve_pages)
        if allowance is not None:
            max_moves = min(max_moves, allowance)
        victim = self._most_invalid_block(region, max_valid=max_moves)
        if victim is None:
            return False
        region.reserve_free = deque(reserve_pages)
        if allowance is not None:
            self._gc_credit -= self._block_valid[victim]
        stats = self.stats
        stats.gc_runs += 1
        moves_before = stats.gc_page_moves
        elapsed = 0.0
        controller = self.controller
        fault_aware = self._fault_aware
        lbas = controller.fpst.lba

        def reserve_page() -> Optional[int]:
            free = region.reserve_free
            return free.popleft() if free else None

        for page in self._valid_pages(victim):
            if fault_aware and controller.is_retired(victim):
                # The victim retired under us (read-triggered wear-out or
                # fault); the listener already dropped its leftover pages.
                break
            target, elapsed = self._move_page(lbas[page], page,
                                              reserve_page, elapsed)
            if target is not None:
                stats.gc_page_moves += 1
        erase_latency, erase_ok = self._try_erase(victim)
        elapsed += erase_latency
        # The erased victim becomes the new spare; the partially filled
        # old spare must not strand its remaining erased pages, so it
        # becomes the region's open block when possible, otherwise its
        # unused slots are booked as reclaimable (invalid) space.  When a
        # fault killed the victim (or the reserve) mid-pass, the retire
        # listener already pulled the dead block from the region and the
        # surviving side simply keeps its role where it can.
        remaining = region.reserve_free
        region.reserve_free = deque()
        reserve_alive = region.reserve_block == reserve
        if erase_ok:
            region.leave_lru(victim)
            self._clear_valid(victim)
            region.set_invalid(victim, 0)
            region.reserve_block = victim
        elif reserve_alive:
            # Victim died: the old reserve now carries content, so it must
            # leave reserve duty; a replacement is adopted on the next GC.
            region.reserve_block = None
        if reserve_alive:
            region.invalid.setdefault(reserve, 0)
            if region.open_block is None:
                region.open_block = reserve
                region.open_free = remaining
            else:
                self._close_block(region, reserve)
                region.set_invalid(reserve,
                                   region.invalid[reserve] + len(remaining))
        stats.gc_time_us += elapsed
        if self.telemetry is not None:
            self.telemetry.gc(elapsed, stats.gc_page_moves - moves_before)
        return True

    def _most_invalid_block(self, region: _RegionState,
                            max_valid: int | None = None) -> Optional[int]:
        """Greedy GC victim: most invalid pages, and (when ``max_valid`` is
        given) whose valid pages fit the reserve block's capacity."""
        best, best_count = None, 0
        for block in region.lru:
            count = region.invalid.get(block, 0)
            if count <= best_count:
                continue
            if max_valid is not None and self._block_valid[block] > max_valid:
                continue
            best, best_count = block, count
        return best

    def _evict_block(self, region: _RegionState) -> List[int]:
        """Evict a whole block (LRU, wear-level aware); returns dirty LBAs.

        The LRU block's LBAs are unmapped before the wear check, so a
        wear swap finds it empty.  Read-region content is clean and
        simply dropped; write-region content is dirty and must flush to
        disk (section 5.1).
        """
        flushed: List[int] = []
        lbas = self.controller.fpst.lba
        while True:
            if not region.lru:
                raise NoEvictableBlockError(
                    "eviction requested but region has no blocks")
            candidate = next(iter(region.lru))
            for page in self._valid_pages(candidate):
                lba = lbas[page]
                if lba >= 0:
                    if lba in self._dirty:
                        flushed.append(lba)
                    self.fcht.remove(lba)
            victim = self._wear_level_victim(region, candidate)
            if victim is not None:
                break
            # A fault retired a block mid-swap; pick another candidate.
        # Dirty until here: a swap that degrades the cache orphans them.
        self._dirty.difference_update(flushed)
        erase_latency, erase_ok = self._try_erase(victim)
        self.stats.foreground_time_us += erase_latency
        if erase_ok:
            region.leave_lru(victim)
            self._clear_valid(victim)
            region.set_invalid(victim, 0)
            region.free_blocks.append(victim)
        # On erase failure (or a mid-erase retirement) the retire listener
        # already removed the block; its capacity is simply gone.
        if region is self._write and self.config.split:
            self.stats.write_evictions += 1
        else:
            self.stats.read_evictions += 1
        self.stats.flushed_pages += len(flushed)
        return flushed

    def _wear_level_victim(self, region: _RegionState,
                           victim: int) -> Optional[int]:
        """Section 3.6: when the LRU victim (already unmapped) is too
        worn, erase it, move the globally newest block's content into it
        and return the emptied newest block for the caller to erase
        instead.  The two blocks trade regions: the victim takes the
        newest block's place, at the most recently used end of that
        region's LRU.  Returns ``None`` when a fault retired either
        block mid-swap (the caller picks a new victim)."""
        controller = self.controller
        newest = self._global_newest_block(exclude={victim})
        if newest is None:
            return victim
        wear_gap = controller.wear_out(victim) - controller.wear_out(newest)
        if wear_gap <= self.config.wear_threshold:
            return victim
        newest_valid = self._valid_pages(newest)
        if len(newest_valid) > len(controller.pages_of_block(victim)):
            # The victim cannot hold the newest block's content (density
            # mismatch); skip the swap rather than drop pages.
            return victim
        self.stats.wear_swaps += 1
        elapsed, erase_ok = self._try_erase(victim)
        if not erase_ok:
            self.stats.gc_time_us += elapsed
            return None
        region.leave_lru(victim)
        self._clear_valid(victim)
        newest_region = self._owner[newest]
        fault_aware = self._fault_aware
        lbas = controller.fpst.lba
        # The erase applied any pended density change: take the new layout.
        self._swap_free = deque(controller.pages_of_block(victim))

        def victim_page() -> Optional[int]:
            if not self._swap_free or (fault_aware
                                       and controller.is_retired(victim)):
                return None
            return self._swap_free.popleft()

        for page in newest_valid:
            if fault_aware and (controller.is_retired(victim)
                                or controller.is_retired(newest)):
                break
            _, elapsed = self._move_page(lbas[page], page, victim_page,
                                         elapsed)
        self._swap_free = deque()
        self.stats.gc_time_us += elapsed
        if fault_aware and controller.is_retired(victim):
            # The retire listener dropped what had moved in; the newest
            # block keeps the rest.
            return None
        region.drop_invalid(victim)
        self._owner[victim] = newest_region
        newest_region.set_invalid(victim, 0)
        self._close_block(newest_region, victim)
        if fault_aware and controller.is_retired(newest):
            return None
        newest_region.leave_lru(newest)
        newest_region.drop_invalid(newest)
        self._owner[newest] = region
        return newest

    def _global_newest_block(self, exclude: Set[int]) -> Optional[int]:
        """Minimum-wear block with content, over all regions (section 3.6:
        "Newest blocks are chosen from the entire set of Flash blocks")."""
        best, best_wear = None, float("inf")
        for region in self._regions:
            for block in region.lru:
                if block in exclude or self.controller.is_retired(block):
                    continue
                wear = self.controller.wear_out(block)
                if wear < best_wear:
                    best, best_wear = block, wear
        return best

    # -- read-region compaction (section 5.1) ------------------------------------------

    def _maybe_gc_read_region(self) -> None:
        region = self._read
        capacity = region.lru_capacity
        if capacity == 0:
            return
        if region.lru_valid / capacity < self.config.gc_read_watermark \
                and region.invalid_total >= self._nominal_block_pages():
            self._garbage_collect(region)

    # -- hot-page promotion (section 5.2.2) ----------------------------------------------

    def _promote_to_slc(self, lba: int, page: int) -> None:
        """Migrate a saturated MLC page into an SLC-formatted block."""
        region = self._owner[page // self._span]
        first = self._slc_page(region)
        if first is None:
            return  # no capacity for promotion right now
        offered = [first]

        def slc_page() -> Optional[int]:
            return offered.pop() if offered else self._slc_page(region)

        # The MLC copy is invalidated whether or not the move succeeds.
        self._count_invalid(page, region)
        try:
            target, elapsed = self._move_page(lba, page, slc_page, 0.0)
        except CacheDegradedError:
            return  # the cache degraded while it made room for the copy
        if offered:
            # The source was unreadable: give the SLC slot back.
            region.open_free.appendleft(first)
        if target is not None:
            self.controller.fpst.entry(target).saturate()
            self.stats.slc_promotions += 1
        self.stats.gc_time_us += elapsed

    def _slc_page(self, region: _RegionState) -> Optional[int]:
        """Next free SLC page, formatting a free block to SLC if needed."""
        if region.open_block is not None and region.open_free:
            block, frame = divmod(region.open_free[0] >> 1,
                                  self._span // 2)
            if self.controller.device.frame_mode(
                    block, frame) is CellMode.SLC:
                return region.open_free.popleft()
        if not region.free_blocks:
            return None
        block = region.free_blocks.popleft()
        # Close the current open block before switching to the SLC one;
        # if the format fails, the region is left with no open block.
        if region.open_block is not None:
            self._close_block(region, region.open_block)
            region.open_block = None
            region.open_free.clear()
        if not self._open_block(region, block, slc=True):
            return None  # formatting failed; skip the promotion
        return region.open_free.popleft()

    # -- maintenance -----------------------------------------------------------------------

    def flush(self) -> List[int]:
        """Flush dirty pages to disk: returns every dirty LBA and marks it
        clean; the pages stay cached and readable (section 5.1: "The disk
        is eventually updated by flushing the write disk cache")."""
        flushed = sorted(set(self._dirty) | self._orphan_dirty)
        self._dirty.clear()
        self._orphan_dirty.clear()
        self.stats.flushed_pages += len(flushed)
        return flushed

    # -- consistency ------------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` naming the first broken invariant.

        Recomputes from scratch what the cache keeps incrementally: the
        regions' running totals, each block's region tag against the
        region lists holding the block, that every block in service is
        held exactly once (a region's free list, LRU, open block or
        reserve), each block's valid count against the FPST valid
        column, the FCHT<->FPST back-pointers (an LBA's region is then
        its page's block tag) and dirty LBAs being cached.  A degraded
        cache has shed its mapping, so only that is checked.  Blocks a
        fault-aware cache retired have left every region and are
        skipped.  Cost is linear in the cache size: a test tool.
        """
        def fail(message: str) -> NoReturn:
            raise AssertionError(f"cache invariant broken: {message}")

        capacity_of = self.controller.block_capacity_pages
        block_valid, span = self._block_valid, self._span
        for region in self._regions:
            kept = (region.lru_capacity, region.lru_valid,
                    region.invalid_total)
            recount = (sum(capacity_of(block) for block in region.lru),
                       sum(block_valid[block] for block in region.lru),
                       sum(region.invalid.values()))
            if kept != recount:
                fail(f"{region.name.value} region totals (LRU capacity, "
                     f"LRU valid, invalid) read {kept}, recount {recount}")
            # insert_clean's fast path fills from open_free without
            # touching the LRU totals.
            open_block = region.open_block
            if region.open_free and (
                    open_block in region.lru
                    or any(p // span != open_block for p in region.open_free)):
                fail(f"{region.name.value} region's free pages are not "
                     f"all in its open block {open_block}, or that block "
                     f"is in the LRU")
            for block in self._all_region_blocks(region):
                if self._owner[block] is not region:
                    fail(f"block {block} is in the {region.name.value} "
                         f"region but tagged {self._owner[block].name.value}")
        mapped = self.fcht.mapping
        if self.degraded:
            if mapped or self._dirty:
                fail("a degraded cache still maps or dirties LBAs")
            return
        held = Counter(block for region in self._regions
                       for block in self._all_region_blocks(region))
        for block in range(len(block_valid)):
            if held[block] > 1 or not held[block] and capacity_of(block) \
                    and not self.controller.is_retired(block):
                fail(f"block {block} is held {held[block]} times by the "
                     f"regions' free lists, LRUs, open blocks and reserves")
        valid, live = self._valid, 0
        for block, count in enumerate(block_valid):
            if self._fault_aware and self.controller.is_retired(block):
                continue
            in_fpst = valid.count(1, block * span, (block + 1) * span)
            if count != in_fpst:
                fail(f"block {block} counts {count} valid pages, "
                     f"the FPST {in_fpst}")
            live += count
        lbas = self.controller.fpst.lba
        for lba, page in mapped.items():
            if not valid[page] or lbas[page] != lba:
                fail(f"FCHT maps {lba} to page {page}, whose FPST entry "
                     f"has valid={valid[page]} lba={lbas[page]}")
        if live != len(mapped):
            fail(f"{live} pages are valid in the FPST but "
                 f"{len(mapped)} LBAs are cached")
        if not self._dirty <= mapped.keys():
            fail(f"dirty LBAs {sorted(self._dirty - mapped.keys())} "
                 f"are not cached")

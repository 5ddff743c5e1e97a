"""Flash disk cache tests: hits/misses, out-of-place writes, GC,
eviction, the read/write split, wear-leveling (sections 3.5, 3.6, 5.1)."""

from __future__ import annotations

import gc
import tracemalloc
from random import Random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.core.cache import FlashCacheConfig, FlashDiskCache, Region
from repro.core.controller import ControllerConfig, ProgrammableFlashController
from repro.core.hierarchy import build_flash_system
from repro.faults import FaultConfig, FaultInjector
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import CellMode
from repro.reliability import ReliabilityConfig, ReliabilityModel
from repro.workloads.trace import Trace, TraceRecord

from .conftest import make_cache


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCacheConfig(read_fraction=0.0)
        with pytest.raises(ValueError):
            FlashCacheConfig(gc_read_watermark=0.0)
        with pytest.raises(ValueError):
            FlashCacheConfig(wear_threshold=0.0)

    def test_minimum_block_count(self):
        with pytest.raises(ValueError):
            make_cache(num_blocks=3)


class TestBasicCaching:
    def test_miss_then_fill_then_hit(self, split_cache):
        assert split_cache.read(7) is None
        split_cache.insert_clean(7)
        outcome = split_cache.read(7)
        assert outcome is not None and outcome.recovered
        assert split_cache.stats.read_hits == 1
        assert split_cache.stats.read_misses == 1

    def test_write_then_read_hits_write_region(self, split_cache):
        split_cache.write(9)
        assert split_cache.contains(9)
        assert split_cache.read(9).recovered
        assert split_cache.flush() == [9]

    def test_rewrite_is_out_of_place(self, split_cache):
        split_cache.write(5)
        first = split_cache.fcht.lookup(5)
        split_cache.write(5)
        second = split_cache.fcht.lookup(5)
        assert first != second
        assert split_cache.stats.invalidations == 1

    def test_write_invalidates_read_copy(self, split_cache):
        split_cache.insert_clean(3)
        read_address = split_cache.fcht.lookup(3)
        split_cache.write(3)
        assert split_cache.fcht.lookup(3) != read_address
        entry = split_cache.controller.fpst.entry(read_address)
        assert not entry.valid

    def test_read_charges_the_fcht_lookup_cost(self):
        # read() prices its FCHT lookup inline; lookup_cost_us is the
        # reference, below one entry per bucket and above it.
        cache = make_cache(num_blocks=8, fcht_buckets=4)
        for lba in range(12):
            expected = cache.fcht.lookup_cost_us()
            before = cache.stats.foreground_time_us
            assert cache.read(lba) is None
            assert cache.stats.foreground_time_us == before + expected
            cache.insert_clean(lba)
        assert len(cache.fcht) / cache.fcht.buckets > 2

    def test_miss_rate_accounting(self, split_cache):
        for lba in range(4):
            split_cache.read(lba)
            split_cache.insert_clean(lba)
        for lba in range(4):
            split_cache.read(lba)
        assert split_cache.stats.read_miss_rate == pytest.approx(0.5)

    def test_flush_cleans_dirty_pages(self, split_cache):
        for lba in range(5):
            split_cache.write(lba)
        flushed = split_cache.flush()
        assert sorted(flushed) == list(range(5))
        assert split_cache.flush() == []  # idempotent
        for lba in range(5):
            assert split_cache.contains(lba)  # stays cached


class TestCapacityAndEviction:
    def test_read_region_eviction_on_pressure(self):
        cache = make_cache(num_blocks=8)
        capacity = cache.total_pages()
        for lba in range(capacity * 2):
            cache.read(lba)
            cache.insert_clean(lba)
        assert cache.stats.read_evictions > 0
        # Evicted pages must no longer be addressable.
        live = sum(1 for lba in range(capacity * 2) if cache.contains(lba))
        assert live <= capacity

    def test_write_eviction_flushes_dirty(self):
        cache = make_cache(num_blocks=8)
        flushed = []
        for lba in range(cache.total_pages()):
            flushed.extend(cache.write(lba).flushed_lbas)
        assert flushed, "write-region overflow must flush dirty pages"
        for lba in flushed:
            assert not cache.contains(lba)

    def test_clean_write_pages_evict_without_flush(self):
        cache = make_cache(num_blocks=8)
        region_pages = 0
        lba = 0
        # Fill the write region, then flush so everything is clean.
        while cache.stats.write_evictions == 0:
            cache.write(lba)
            lba += 1
        cache.flush()
        first_flushes = cache.stats.flushed_pages
        # Keep writing *new* pages: evictions recycle clean blocks.
        start = lba
        while cache.stats.write_evictions < 4:
            outcome = cache.write(lba)
            assert outcome.flushed_lbas == () or all(
                key >= start for key in outcome.flushed_lbas)
            lba += 1

    def test_unified_keeps_everything_in_one_region(self, unified_cache):
        unified_cache.insert_clean(1)
        unified_cache.write(2)
        assert unified_cache._read is unified_cache._write

    def test_gc_reclaims_invalid_space(self):
        # A 50/50 split gives the write region 8 blocks (one of them the
        # GC reserve) so compaction, not eviction, serves the rewrites.
        cache = make_cache(num_blocks=16, read_fraction=0.5)
        hot = list(range(16))
        for round_index in range(40):
            for lba in hot:
                cache.write(lba)
        assert cache.stats.gc_runs > 0
        # All hot pages still present despite heavy rewriting.
        for lba in hot:
            assert cache.contains(lba)

    def test_gc_budget_limits_moves(self):
        def churn(budget):
            cache = make_cache(num_blocks=16, read_fraction=0.5,
                               gc_move_budget=budget)
            # Interleave hot rewrites with cold one-shot writes so every
            # block ends up part-valid, making GC pay per-victim moves.
            hot = cache.total_pages() // 8
            for i in range(cache.total_pages() * 4):
                cache.write(i % hot if i % 2 == 0 else 10_000 + i)
            return cache.stats
        unlimited = churn(None)
        limited = churn(0.05)
        assert limited.gc_page_moves < unlimited.gc_page_moves
        # The shortfall shows up as extra evictions instead.
        assert limited.write_evictions > unlimited.write_evictions

    def test_ssd_mode_forbids_eviction(self):
        cache = make_cache(num_blocks=8, split=False,
                           allow_eviction_for_space=False)
        footprint = int(cache.total_pages() * 0.5)
        for lba in range(footprint):
            cache.write(lba)
        for round_index in range(3):
            for lba in range(footprint):
                cache.write(lba)
        assert cache.stats.read_evictions == 0
        assert cache.stats.write_evictions == 0
        assert cache.stats.gc_runs > 0

    def test_ssd_mode_raises_when_truly_full(self):
        cache = make_cache(num_blocks=4, split=False,
                           allow_eviction_for_space=False)
        with pytest.raises(RuntimeError):
            for lba in range(cache.total_pages() + 64):
                cache.write(lba)


class TestSplitStructure:
    def test_regions_partition_blocks(self, split_cache):
        read_blocks = split_cache._all_region_blocks(split_cache._read)
        write_blocks = split_cache._all_region_blocks(split_cache._write)
        assert not set(read_blocks) & set(write_blocks)
        total = split_cache.controller.device.geometry.num_blocks
        assert len(read_blocks) + len(write_blocks) == total

    def test_read_fraction_respected(self):
        cache = make_cache(num_blocks=20, read_fraction=0.9)
        read_blocks = cache._all_region_blocks(cache._read)
        assert len(read_blocks) == 18

    def test_write_region_slc_formats_blocks(self):
        cache = make_cache(num_blocks=8, write_region_slc=True)
        cache.write(1)
        region = cache._write
        block = region.open_block
        mode = cache.controller.device.frame_mode(block, 0)
        assert mode is CellMode.SLC

    def test_used_fraction_bounded(self):
        cache = make_cache(num_blocks=8)
        for lba in range(cache.total_pages() * 2):
            cache.read(lba)
            cache.insert_clean(lba)
            if lba % 3 == 0:
                cache.write(lba)
        assert 0.0 <= cache.used_fraction() <= 1.0


class TestWearLeveling:
    def test_wear_swap_triggers_on_gap(self):
        cache = make_cache(num_blocks=8, wear_threshold=5.0)
        controller = cache.controller
        # Manufacture a wear gap on the first *allocatable* read-region
        # block (block 0 became the region's GC reserve at construction
        # and is never an eviction victim).
        victim_block = cache._read.free_blocks[0]
        controller.fbst.entry(victim_block).erase_count = 1000
        capacity = cache.total_pages()
        for lba in range(capacity * 2):
            cache.read(lba)
            cache.insert_clean(lba)
            cache.check_invariants()
        assert cache.stats.wear_swaps > 0
        assert cache.total_pages() == capacity

    def test_same_region_swap_flushes_the_candidates_dirty_pages(self):
        """The worn LRU candidate holds dirty LBAs when a swap within the
        write region recycles the newest block in its place: they leave
        through the eviction's flush and are no longer cached, and the
        candidate, now holding the newest block's content, stays in the
        region's LRU at the most recently used end."""
        cache = make_cache(num_blocks=16, read_fraction=0.5,
                           wear_threshold=5.0)
        candidate = cache._write.free_blocks[0]
        cache.controller.fbst.entry(candidate).erase_count = 1000
        per_block = cache.controller.block_capacity_pages(candidate)
        capacity = cache.total_pages()
        flushed = []
        written = 0
        while cache.stats.wear_swaps == 0:
            flushed.extend(cache.write(written).flushed_lbas)
            written += 1
            cache.check_invariants()
        assert sorted(flushed) == list(range(per_block))
        assert cache._owner[candidate] is cache._write
        assert list(cache._write.lru)[-1] == candidate
        fpst = cache.controller.fpst
        for lba in range(written):
            page = cache.fcht.lookup(lba)
            if lba < per_block:
                assert page is None and cache.read(lba) is None
            else:
                assert fpst.lba[page] == lba
                assert cache.read(lba) is not None
        assert cache.total_pages() == capacity
        cache.check_invariants()

    @pytest.mark.parametrize("retire_after", [1, 2, 3, 4])
    def test_swap_victim_retired_mid_migration(self, retire_after):
        """Program failures retire the erased candidate after two of the
        newest block's pages moved into it.  Those two and the page the
        failures stranded are lost (dirty, so they leave through the
        orphan flush).  The newest block stays cached, as the next
        candidate is the less worn second block, and holds no stale copy:
        its two sources were invalidated as they moved.  Every written
        LBA is cached under its own page or flushed."""
        injector = FaultInjector(FaultConfig())
        device = FlashDevice(
            geometry=FlashGeometry(frames_per_block=8, num_blocks=16),
            initial_mode=CellMode.MLC, fault_injector=injector)
        controller = ProgrammableFlashController(
            device, config=ControllerConfig(
                program_fail_retire_threshold=retire_after))
        cache = FlashDiskCache(controller, FlashCacheConfig(
            read_fraction=0.5, wear_threshold=5.0, hot_promotion=False))
        candidate, second = list(cache._write.free_blocks)[:2]
        controller.fbst.entry(candidate).erase_count = 1000
        controller.fbst.entry(second).erase_count = 3
        flushed = []
        written = 0
        while candidate not in cache._write.lru:
            flushed.extend(cache.write(written).flushed_lbas)
            written += 1
        injector.program_fault = \
            lambda block, frame: block == candidate and frame >= 1
        while cache.stats.wear_swaps == 0:
            flushed.extend(cache.write(written).flushed_lbas)
            written += 1
            cache.check_invariants()
        assert controller.is_retired(candidate)
        assert cache._write.open_block == second  # evicted, reopened
        assert cache.stats.retired_blocks == 1
        assert cache.stats.remapped_programs == retire_after
        assert cache.stats.unrecovered_faults == 3
        flushed.extend(cache.flush())
        fpst = controller.fpst
        for lba in range(written):
            page = cache.fcht.lookup(lba)
            assert lba in flushed if page is None else fpst.lba[page] == lba
        cache.check_invariants()

    def test_cross_region_swap_retags_both_blocks(self):
        """A wear swap whose candidate holds no cached LBA leaves every
        invariant intact: the newest block's content moves into the
        candidate, which joins the newest block's region, and the two
        blocks' region tags trade places."""
        cache = make_cache(num_blocks=8, wear_threshold=5.0,
                           write_region_slc=True)
        candidate = cache._write.free_blocks[0]
        cache.controller.device.age_block(candidate, 1000)
        for lba in list(range(100, 109)) + list(range(100, 104)):
            cache.insert_clean(lba)  # refills leave block 1 half valid
            cache.check_invariants()
        newest = next(iter(cache._read.lru))
        for _ in range(5):
            # The fifth write drops the candidate's last valid copy, then
            # evicts it: the newest block's four pages move in.
            cache.write(0)
            cache.check_invariants()
        assert cache.stats.wear_swaps == 1
        assert cache._owner[candidate] is cache._read
        assert cache._owner[newest] is cache._write
        assert list(cache._read.lru) == [candidate]
        assert all(cache.read(lba) is not None for lba in range(104, 108))
        cache.check_invariants()

    def test_no_swap_below_threshold(self):
        cache = make_cache(num_blocks=8, wear_threshold=1e9)
        for lba in range(cache.total_pages() * 2):
            cache.read(lba)
            cache.insert_clean(lba)
        assert cache.stats.wear_swaps == 0


class TestInvariants:
    """Structural invariants that must hold after any operation mix."""

    def check(self, cache):
        # Every FCHT mapping points at a valid FPST entry with that lba.
        for lba, page in cache.fcht.items():
            entry = cache.controller.fpst.get(page)
            assert entry is not None and entry.valid
            assert entry.lba == lba
        # Per-block valid counts and FCHT agree on total count.
        assert cache.valid_pages() == len(cache.fcht)
        # Valid capacity never exceeds physical capacity.
        assert cache.valid_pages() <= cache.total_pages()

    @settings(max_examples=20, deadline=None)
    @given(operations=st.lists(
        st.tuples(st.sampled_from(["read", "write", "fill", "flush"]),
                  st.integers(min_value=0, max_value=300)),
        min_size=1, max_size=300))
    def test_property_invariants_hold(self, operations):
        cache = make_cache(num_blocks=8)
        for op, lba in operations:
            if op == "read":
                outcome = cache.read(lba)
                if outcome is None:
                    cache.insert_clean(lba)
            elif op == "write":
                cache.write(lba)
            elif op == "fill":
                if not cache.contains(lba):
                    cache.insert_clean(lba)
            else:
                cache.flush()
            cache.check_invariants()
        self.check(cache)

    def test_invariants_hold_after_every_request_under_faults(self):
        """A GC-heavy run with an SLC write log, program/erase faults
        and read disturb: frames go bad, blocks retire, and the check
        runs after every request."""
        system = build_flash_system(
            dram_bytes=64 << 10, flash_bytes=4 << 20, seed=5,
            cache_config=FlashCacheConfig(write_region_slc=True,
                                          read_fraction=0.75),
            fault_config=FaultConfig(program_fail_rate=0.004,
                                     erase_fail_rate=0.02,
                                     read_disturb_rate=0.02, seed=1))
        cache = system.flash
        rng = Random(1)
        for _ in range(3000):
            if rng.random() < 0.5:
                system.read(rng.randrange(1200))
            elif rng.random() < 0.7:
                system.write(rng.randrange(500))
            else:
                system.write(rng.randrange(1200))
            cache.check_invariants()
        assert cache.stats.gc_runs > 0
        assert cache.stats.retired_blocks > 0
        assert cache.stats.remapped_programs > 0
        assert cache.controller.stats.erase_faults > 0
        assert not cache.degraded

    def test_cache_that_degrades_mid_gc_stops(self):
        """A program failure retires the GC reserve part-way through a
        pass and takes the cache below its floor.  The pass and the
        write that triggered it stop there: nothing is mapped into the
        degraded cache, and the write goes to disk."""
        injector = FaultInjector(FaultConfig())
        device = FlashDevice(
            geometry=FlashGeometry(frames_per_block=4, num_blocks=16),
            initial_mode=CellMode.MLC, fault_injector=injector)
        controller = ProgrammableFlashController(
            device, config=ControllerConfig(program_fail_retire_threshold=1))
        cache = FlashDiskCache(controller, FlashCacheConfig(
            read_fraction=0.5, min_live_blocks=16, hot_promotion=False))
        region = cache._write
        injector.program_fault = \
            lambda block, frame: block == region.reserve_block
        rng = Random(1)
        written = []
        for _ in range(500):
            runs = cache.stats.gc_runs
            written.append(rng.randrange(40))
            outcome = cache.write(written[-1])
            cache.check_invariants()
            if cache.degraded:
                break
        assert cache.stats.gc_runs > runs
        assert cache.stats.remapped_programs == 1
        assert cache.stats.bypass_writes == 1
        assert outcome.flushed_lbas == (written[-1],)
        # Every earlier write leaves through the orphan flush.
        assert cache.flush() == sorted(set(written) - {written[-1]})

    # No shrink phase: shrinking a failing 300-op case runs for minutes.
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(num_blocks=st.integers(min_value=8, max_value=16),
           wear_threshold=st.sampled_from([1.0, 2.0, 4.0, 16.0, 64.0]),
           write_region_slc=st.booleans(),
           faults=st.sampled_from([None, 0.0, 0.02, 0.08]),
           retire_after=st.integers(min_value=1, max_value=4),
           worn_block=st.integers(min_value=0, max_value=15),
           operations=st.lists(
               st.tuples(st.sampled_from(
                   ["read", "read", "fill", "write", "write", "flush",
                    "scrub"]),
                   st.integers(min_value=0, max_value=150)),
               min_size=100, max_size=300))
    def test_property_invariants_hold_with_swaps_and_faults(
            self, num_blocks, wear_threshold, write_region_slc, faults,
            retire_after, worn_block, operations):
        """Random reads, fills, writes, flushes and scrubs over a small
        cache whose worn block forces wear swaps, with an SLC write log,
        hot-page promotion and program, erase and read-disturb faults:
        the invariants hold after every op, also once it degrades."""
        injector = None if faults is None else FaultInjector(FaultConfig(
            program_fail_rate=faults, erase_fail_rate=faults / 2,
            read_disturb_rate=faults, seed=worn_block))
        device = FlashDevice(
            geometry=FlashGeometry(frames_per_block=4,
                                   num_blocks=num_blocks),
            initial_mode=CellMode.MLC, fault_injector=injector)
        controller = ProgrammableFlashController(
            device, config=ControllerConfig(
                counter_max=3, program_fail_retire_threshold=retire_after))
        cache = FlashDiskCache(controller, FlashCacheConfig(
            wear_threshold=wear_threshold,
            write_region_slc=write_region_slc))
        controller.fbst.entry(worn_block % num_blocks).erase_count = 100
        for op, lba in operations:
            if op == "read":
                if cache.read(lba) is None:
                    cache.insert_clean(lba)
            elif op == "fill":
                if not cache.contains(lba):
                    cache.insert_clean(lba)
            elif op == "write":
                cache.write(lba)
            elif op == "flush":
                cache.flush()
            else:
                cache.scrub_page(lba)
            cache.check_invariants()

    def test_open_block_left_in_lru_by_failed_slc_format(self):
        """A promotion whose SLC format erase fails has already closed
        the open block into the LRU: the block must stop being open, so
        later appends and a frame going bad land on a fresh open block
        while the LRU totals stay exact."""
        injector = FaultInjector(FaultConfig())
        device = FlashDevice(
            geometry=FlashGeometry(frames_per_block=4, num_blocks=8),
            initial_mode=CellMode.MLC, fault_injector=injector)
        controller = ProgrammableFlashController(
            device, config=ControllerConfig(counter_max=2))
        cache = FlashDiskCache(controller, FlashCacheConfig())
        cache.insert_clean(0)
        open_block = cache._read.open_block
        injector.erase_fault = lambda block: True
        for _ in range(2):
            cache.read(0)  # saturates the counter: promotion fails
        del injector.erase_fault
        assert cache.stats.slc_promotions == 0
        assert cache.stats.retired_blocks == 1
        # The open block was closed into the LRU and is no longer open.
        assert cache._read.open_block is None
        assert not cache._read.open_free
        assert open_block in cache._read.lru
        cache.check_invariants()
        cache.insert_clean(1)
        cache.check_invariants()
        fresh_block = cache._read.open_block
        assert fresh_block not in (None, open_block)
        shots = iter([True])
        injector.program_fault = lambda block, frame: next(shots, False)
        cache.insert_clean(2)
        assert cache.stats.remapped_programs == 1
        assert controller.block_capacity_pages(fresh_block) == 6
        assert controller.block_capacity_pages(open_block) == 8
        cache.check_invariants()

    def test_check_invariants_catches_drift(self):
        cache = make_cache(num_blocks=8)
        for lba in range(40):
            cache.write(lba % 13)
            cache.insert_clean(100 + lba)
        cache.check_invariants()
        cache._read.lru_valid += 1
        with pytest.raises(AssertionError, match="region totals"):
            cache.check_invariants()
        cache._read.lru_valid -= 1
        cache._dirty.add(999)
        with pytest.raises(AssertionError, match="not cached"):
            cache.check_invariants()
        cache._dirty.discard(999)
        region = cache._read
        region.open_free.append(
            (region.open_block + 1) * cache.controller.block_span)
        with pytest.raises(AssertionError, match="open block"):
            cache.check_invariants()

    def test_fill_after_a_miss_rechecks_what_was_mapped_since(self):
        """insert_clean skips its FCHT lookup for the LBA the last read
        missed.  A write or a fill of that LBA in between must end the
        skip, or the older copy stays valid beside the new one."""
        cache = make_cache(num_blocks=8)
        assert cache.read(5) is None
        cache.write(5)
        cache.insert_clean(5)
        cache.check_invariants()
        assert cache.read(6) is None
        cache.insert_clean(6)
        cache.insert_clean(6)
        cache.check_invariants()
        assert cache.stats.invalidations == 2

    @settings(max_examples=10, deadline=None)
    @given(lbas=st.lists(st.integers(min_value=0, max_value=50),
                         min_size=1, max_size=200))
    def test_property_last_write_wins(self, lbas):
        """After any write sequence, each lba maps to exactly one page."""
        cache = make_cache(num_blocks=8)
        for lba in lbas:
            cache.write(lba)
        seen = {}
        for lba, address in cache.fcht.items():
            assert address not in seen.values()
            seen[lba] = address


class TestPageLoss:
    @pytest.mark.parametrize("fault_aware", [False, True])
    def test_lost_dirty_page_is_orphaned_only_when_fault_aware(
            self, fault_aware):
        """An uncorrectable read of a dirty page drops it and counts an
        unrecovered fault.  A fault-aware cache still routes the LBA
        through the next flush; with the reliability model alone (as
        the aged benchmark workload runs) the LBA leaves write-back."""
        device = FlashDevice(
            geometry=FlashGeometry(frames_per_block=4, num_blocks=8),
            initial_mode=CellMode.MLC,
            fault_injector=FaultInjector(FaultConfig()) if fault_aware
            else None,
            reliability=ReliabilityModel(ReliabilityConfig(base_rber=0.01)))
        cache = FlashDiskCache(ProgrammableFlashController(device),
                               FlashCacheConfig(hot_promotion=False))
        cache.write(3)
        outcome = cache.read(3)
        assert outcome is not None and not outcome.recovered
        assert not cache.contains(3)
        assert cache.stats.unrecovered_faults == 1
        assert cache.flush() == ([3] if fault_aware else [])
        cache.check_invariants()


class TestPageStateMemory:
    def test_heap_growth_per_live_page(self):
        """Page state lives in flat per-page columns sized up front, so
        filling the cache grows the heap only by the FCHT's entry per
        cached LBA: about 130 B per live page (Python 3.11), against
        about 660 B when every page carried an address tuple, an FPST
        entry object, a device frame and region set slots.  A return to
        per-page objects fails the bound."""
        system = build_flash_system(dram_bytes=64 << 10,
                                    flash_bytes=8 << 20, seed=1)
        rng = Random(3)
        trace = Trace.from_records([
            TraceRecord(rng.randrange(3000),
                        "r" if rng.random() < 0.9 else "w")
            for _ in range(8000)])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system.run(trace)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        live = system.flash.valid_pages()
        assert live > 2000
        assert grown / live <= 250, f"{grown / live:.0f} B per live page"

"""Fault injection and graceful degradation tests.

Covers the injector's determinism contract, fault propagation out of the
device (``ProgramFailure``/``EraseFailure``), the controller's retry
ladder and bad-frame/retirement bookkeeping, the cache's remap/drop/
shrink recovery paths down to the DRAM+disk bypass, and an end-to-end
faulted trace through :func:`repro.sim.engine.run_trace`.
"""

from __future__ import annotations

import pytest

from repro.core.cache import FlashCacheConfig, FlashDiskCache
from repro.core.controller import (
    ControllerConfig,
    ProgrammableFlashController,
)
from repro.core.errors import (
    CacheCapacityError,
    CacheDegradedError,
    CacheError,
    NoEvictableBlockError,
    ReserveBlockLostError,
)
from repro.core.hierarchy import build_flash_system
from repro.faults.injector import FaultConfig, FaultInjector
from repro.flash.device import EraseFailure, FlashDevice, ProgramFailure
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import CellMode
from repro.sim.engine import run_trace
from repro.workloads.macro import build_workload

from .conftest import page_number


class ScriptedInjector(FaultInjector):
    """Injector with scripted hard-fault decisions for deterministic
    tests; unscripted queries answer False (no fault)."""

    def __init__(self, program_script=(), erase_script=()):
        super().__init__(FaultConfig())
        self._program_script = list(program_script)
        self._erase_script = list(erase_script)

    def program_fault(self, block, frame):
        if self._program_script and self._program_script.pop(0):
            self.stats.program_faults += 1
            return True
        return False

    def erase_fault(self, block):
        if self._erase_script and self._erase_script.pop(0):
            self.stats.erase_faults += 1
            return True
        return False


def make_device(fault_config=None, injector=None, num_blocks=8,
                frames_per_block=4, seed=99) -> FlashDevice:
    if injector is None and fault_config is not None:
        injector = FaultInjector(fault_config)
    return FlashDevice(
        geometry=FlashGeometry(frames_per_block=frames_per_block,
                               num_blocks=num_blocks),
        initial_mode=CellMode.MLC,
        seed=seed,
        fault_injector=injector,
    )


def make_faulty_cache(injector, controller_config=None, **cache_kwargs):
    device = make_device(injector=injector)
    controller = ProgrammableFlashController(device,
                                             config=controller_config)
    cache_kwargs.setdefault("hot_promotion", False)
    return FlashDiskCache(controller, FlashCacheConfig(**cache_kwargs))


# ---------------------------------------------------------------------------
# Injector semantics
# ---------------------------------------------------------------------------


class TestFaultConfig:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(read_disturb_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(program_fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(read_disturb_bits=0)

    def test_any_enabled(self):
        assert not FaultConfig().any_enabled
        assert not FaultConfig.uniform(0.0).any_enabled
        assert FaultConfig(erase_fail_rate=0.01).any_enabled

    def test_uniform_derives_rarer_hard_faults(self):
        cfg = FaultConfig.uniform(0.1, seed=5)
        assert cfg.read_disturb_rate == 0.1
        assert cfg.program_fail_rate < cfg.read_disturb_rate
        assert cfg.erase_fail_rate < cfg.program_fail_rate
        assert cfg.seed == 5

    @pytest.mark.parametrize("field", [
        "read_disturb_rate", "program_fail_rate",
        "erase_fail_rate", "infant_mortality_rate",
    ])
    def test_each_probability_field_rejects_above_one(self, field):
        # Probabilities live in [0, 1]; 1.0 itself is the legal maximum.
        FaultConfig(**{field: 1.0})
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: 1.0000001})
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: 2.0})


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(FaultConfig(program_fail_rate=0.3, seed=42))
        b = FaultInjector(FaultConfig(program_fail_rate=0.3, seed=42))
        assert [a.program_fault(0, 0) for _ in range(200)] \
            == [b.program_fault(0, 0) for _ in range(200)]

    def test_streams_are_independent(self):
        cfg = FaultConfig(read_disturb_rate=0.2, program_fail_rate=0.2,
                          seed=7)
        plain = FaultInjector(cfg)
        interleaved = FaultInjector(cfg)
        plain_bits = [plain.read_fault_bits(0, 0) for _ in range(100)]
        mixed_bits = []
        for _ in range(100):
            interleaved.program_fault(0, 0)  # must not perturb reads
            mixed_bits.append(interleaved.read_fault_bits(0, 0))
        assert plain_bits == mixed_bits

    def test_infant_mortality_is_order_independent(self):
        cfg = FaultConfig(infant_mortality_rate=0.3, seed=13)
        ascending = FaultInjector(cfg)
        descending = FaultInjector(cfg)
        dead_up = {b for b in range(50) if ascending.block_dead(b)}
        dead_down = {b for b in reversed(range(50))
                     if descending.block_dead(b)}
        assert dead_up == dead_down
        assert 0 < len(dead_up) < 50

    def test_burst_decays_across_senses(self):
        injector = FaultInjector(FaultConfig(
            read_disturb_rate=1.0, read_disturb_bits=8,
            read_disturb_span=3, seed=1))
        assert [injector.read_fault_bits(0, 0) for _ in range(4)] \
            == [8, 4, 2, 1]
        assert injector.stats.read_disturbs == 1
        assert injector.stats.disturbed_reads == 4

    def test_zero_span_burst_is_a_single_full_strength_read(self):
        # span=0 is the degenerate burst: exactly one disturbed read at
        # full strength, no decay tail, and the next burst re-arms
        # independently (rate=1.0 makes every read start one).
        injector = FaultInjector(FaultConfig(
            read_disturb_rate=1.0, read_disturb_bits=8,
            read_disturb_span=0, seed=1))
        assert [injector.read_fault_bits(0, 0) for _ in range(3)] \
            == [8, 8, 8]
        assert injector.stats.read_disturbs == 3
        assert injector.stats.disturbed_reads == 3


# ---------------------------------------------------------------------------
# Device-level propagation
# ---------------------------------------------------------------------------


class TestDevicePropagation:
    def test_program_failure_burns_page_and_costs_latency(self):
        device = make_device(injector=ScriptedInjector(
            program_script=[True]))
        address = page_number(device, 0, 0, 0)
        with pytest.raises(ProgramFailure) as excinfo:
            device.program_page(address)
        assert excinfo.value.page == address
        assert str(excinfo.value) == "program failed at " \
            "PageAddress(block=0, frame=0, subpage=0)"
        assert excinfo.value.latency_us > 0
        # The attempt burned the page: a retry needs an erase first.
        from repro.flash.device import ProgramError
        with pytest.raises(ProgramError):
            device.program_page(address)

    def test_erase_failure_keeps_contents(self):
        device = make_device(injector=ScriptedInjector(
            erase_script=[True]))
        device.program_page(page_number(device, 0, 0, 0))
        with pytest.raises(EraseFailure) as excinfo:
            device.erase_block(0)
        assert excinfo.value.block == 0
        assert excinfo.value.latency_us > 0
        # Second attempt (script exhausted) succeeds.
        result = device.erase_block(0)
        assert result.erase_count == 1

    def test_dead_block_reads_all_errors_and_rejects_writes(self):
        device = make_device(
            fault_config=FaultConfig(infant_mortality_rate=1.0, seed=3))
        read = device.read_page(page_number(device, 0, 0, 0))
        assert read.raw_bit_errors == device.geometry.cells_per_frame
        with pytest.raises(ProgramFailure):
            device.program_page(page_number(device, 0, 1, 0))
        with pytest.raises(EraseFailure):
            device.erase_block(0)

    def test_transient_bits_ride_on_reads(self):
        device = make_device(fault_config=FaultConfig(
            read_disturb_rate=1.0, read_disturb_bits=8, seed=2))
        first = device.read_page(page_number(device, 0, 0, 0)).raw_bit_errors
        second = device.read_page(page_number(device, 0, 0, 0)).raw_bit_errors
        assert first == 8
        assert second == 4


# ---------------------------------------------------------------------------
# Controller: retry ladder, bad frames, retirement
# ---------------------------------------------------------------------------


class TestControllerFaults:
    def _controller(self, retry: int) -> ProgrammableFlashController:
        device = make_device(fault_config=FaultConfig(
            read_disturb_rate=1.0, read_disturb_bits=8,
            read_disturb_span=3, seed=1))
        return ProgrammableFlashController(
            device, config=ControllerConfig(read_retry_max=retry))

    def test_single_sense_fails_on_burst(self):
        controller = self._controller(retry=0)
        result = controller.read(page_number(controller, 0, 0, 0))
        assert not result.recovered
        assert controller.stats.uncorrectable_reads == 1
        assert controller.stats.read_retries == 0

    def test_retry_ladder_rides_out_burst(self):
        controller = self._controller(retry=3)
        baseline = self._controller(retry=0).read(
            page_number(controller, 0, 0, 0)).latency_us
        result = controller.read(page_number(controller, 0, 0, 0))
        assert result.recovered
        assert controller.stats.read_retries == 3
        assert controller.stats.retry_recovered_reads == 1
        assert controller.stats.uncorrectable_reads == 0
        # Every re-sense is paid for.
        assert result.latency_us > baseline

    def test_program_failure_marks_frame_bad(self):
        device = make_device(injector=ScriptedInjector(
            program_script=[True]))
        controller = ProgrammableFlashController(device)
        address = page_number(controller, 0, 0, 0)
        before = controller.block_capacity_pages(0)
        with pytest.raises(ProgramFailure):
            controller.program(address, lba=1)
        assert controller.is_bad_frame(0, 0)
        assert controller.stats.program_faults == 1
        assert controller.stats.frames_marked_bad == 1
        assert controller.block_capacity_pages(0) < before
        # In block 0 a page's frame is its number halved.
        assert all(a >> 1 != 0 for a in controller.pages_of_block(0))

    def test_bad_frame_keeps_valid_entries_for_unmap(self):
        device = make_device(injector=ScriptedInjector(
            program_script=[False, True]))
        controller = ProgrammableFlashController(device)
        controller.program(page_number(controller, 0, 0, 0), lba=11)
        with pytest.raises(ProgramFailure):
            controller.program(page_number(controller, 0, 0, 1), lba=12)
        # The valid page's back-pointer survives for the cache layer...
        entry = controller.fpst.get(page_number(controller, 0, 0, 0))
        assert entry is not None and entry.lba == 11
        # ...while the invalid (never-programmed) pages are dropped.
        assert controller.fpst.get(page_number(controller, 0, 1, 0)) is None \
            or not controller.is_bad_frame(0, 1)

    def test_block_retires_after_repeated_program_failures(self):
        threshold = 3
        device = make_device(injector=ScriptedInjector(
            program_script=[True] * threshold))
        controller = ProgrammableFlashController(
            device, config=ControllerConfig(
                program_fail_retire_threshold=threshold))
        retired = []
        controller.retire_listener = retired.append
        for frame in range(threshold):
            with pytest.raises(ProgramFailure):
                controller.program(page_number(controller, 0, frame, 0))
        assert controller.is_retired(0)
        assert retired == [0]

    def test_erase_failure_retires_block_and_reraises(self):
        device = make_device(injector=ScriptedInjector(
            erase_script=[True]))
        controller = ProgrammableFlashController(device)
        retired = []
        controller.retire_listener = retired.append
        with pytest.raises(EraseFailure):
            controller.erase(0)
        assert controller.is_retired(0)
        assert controller.stats.erase_faults == 1
        assert retired == [0]

    def test_program_failure_reshapes_memoised_layout(self):
        device = make_device(injector=ScriptedInjector(
            program_script=[True]))
        controller = ProgrammableFlashController(device)
        before = controller.pages_of_block(0)
        with pytest.raises(ProgramFailure):
            controller.program(page_number(controller, 0, 2, 0), lba=1)
        after = controller.pages_of_block(0)
        assert len(after) == len(before) - 2
        assert all(a >> 1 != 2 for a in after)
        assert after == tuple(a for a in before if a >> 1 != 2)
        assert controller.block_capacity_pages(0) == len(after)

    def test_retirement_drops_memoised_layout(self):
        # The failed erase retires the block before its pended density
        # switch can apply: the layout keeps its MLC shape and the switch
        # stays pended.
        device = make_device(injector=ScriptedInjector(
            erase_script=[True]))
        controller = ProgrammableFlashController(device)
        before = controller.pages_of_block(0)
        controller.request_slc(page_number(controller, 0, 1, 0))
        with pytest.raises(EraseFailure):
            controller.erase(0)
        assert controller.is_retired(0)
        after = controller.pages_of_block(0)
        assert after is not before
        assert after == before
        assert controller.block_capacity_pages(0) == len(after)
        assert controller.has_pending_density_change(0, 1)


# ---------------------------------------------------------------------------
# Typed exceptions
# ---------------------------------------------------------------------------


class TestTypedErrors:
    def test_hierarchy(self):
        # Backward compatible with callers that catch RuntimeError.
        assert issubclass(CacheError, RuntimeError)
        assert issubclass(CacheCapacityError, CacheError)
        assert issubclass(ReserveBlockLostError, CacheDegradedError)
        assert issubclass(NoEvictableBlockError, CacheDegradedError)
        # Capacity exhaustion is not a degradation signal.
        assert not issubclass(CacheCapacityError, CacheDegradedError)

    def test_reexported_from_core(self):
        from repro import core
        assert core.CacheCapacityError is CacheCapacityError
        import repro
        assert repro.CacheDegradedError is CacheDegradedError

    def test_ssd_full_raises_capacity_error(self):
        cache = make_faulty_cache(None, split=False,
                                  allow_eviction_for_space=False,
                                  gc_move_budget=None)
        with pytest.raises(CacheCapacityError):
            for lba in range(10_000):
                cache.write(lba)


# ---------------------------------------------------------------------------
# Cache: remap, shrink, degrade, bypass
# ---------------------------------------------------------------------------


class TestCacheRecovery:
    def test_program_failure_remaps_to_fresh_frame(self):
        cache = make_faulty_cache(ScriptedInjector(program_script=[True]))
        outcome = cache.write(1)
        assert outcome.latency_us > 0
        assert cache.stats.remapped_programs == 1
        assert cache.read(1) is not None  # the data landed somewhere

    def test_bad_frame_unmaps_resident_pages(self):
        # First program succeeds (lba 1), second fails, killing the frame
        # holding lba 1's copy: the dirty page must leave via the flush.
        cache = make_faulty_cache(ScriptedInjector(
            program_script=[False, True]))
        cache.write(1)
        cache.write(2)
        assert cache.stats.remapped_programs == 1
        assert cache.stats.unrecovered_faults == 1
        assert cache.read(1) is None       # copy died with the frame
        assert cache.read(2) is not None   # remapped copy survives
        assert 1 in cache.flush()

    def test_erase_failure_shrinks_capacity(self):
        cache = make_faulty_cache(ScriptedInjector(erase_script=[True]),
                                  min_live_blocks=1)
        before = cache.total_pages()
        block = cache._read.free_blocks[0]
        with pytest.raises(EraseFailure):
            cache.controller.erase(block)
        assert cache.stats.retired_blocks == 1
        assert cache.total_pages() < before
        assert cache.live_capacity_fraction() < 1.0
        assert block not in cache._read.free_blocks
        assert not cache.degraded

    def test_degrades_below_min_blocks_floor(self):
        cache = make_faulty_cache(ScriptedInjector(erase_script=[True]),
                                  min_live_blocks=8)
        cache.write(5)  # dirty page that must survive the transition
        block = cache._read.free_blocks[0]
        with pytest.raises(EraseFailure):
            cache.controller.erase(block)
        assert cache.degraded
        assert cache.stats.degraded_events == 1
        # Bypass semantics: reads miss, writes forward to disk, fills
        # are no-ops, and the orphaned dirty page still reaches disk.
        assert cache.read(5) is None
        assert cache.stats.bypass_reads == 1
        outcome = cache.write(6)
        assert outcome.flushed_lbas == (6,)
        assert cache.stats.bypass_writes == 1
        assert cache.insert_clean(7) == 0.0
        assert 5 in cache.flush()

    def test_total_program_failure_degrades_not_crashes(self):
        cache = make_faulty_cache(
            FaultInjector(FaultConfig(program_fail_rate=1.0, seed=4)))
        for lba in range(20):
            cache.write(lba)
        assert cache.degraded
        assert cache.stats.remapped_programs > 0
        assert cache.stats.retired_blocks > 0
        # Still serving, straight to disk.
        assert cache.write(99).flushed_lbas == (99,)

    def test_retire_listener_is_wired_at_construction(self):
        cache = make_faulty_cache(ScriptedInjector())
        assert cache.controller.retire_listener is not None
        assert cache._fault_aware

    def test_no_injector_keeps_advisory_retirement(self):
        """Without an injector (wear-only studies) retirement must not
        shed blocks — the historical figures depend on it."""
        cache = make_faulty_cache(None, min_live_blocks=1)
        assert not cache._fault_aware
        before = len(cache._read.free_blocks)
        cache.controller._retire_block(cache._read.free_blocks[0])
        assert len(cache._read.free_blocks) == before
        assert cache.stats.retired_blocks == 0


# ---------------------------------------------------------------------------
# End to end through run_trace
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def _run(self, fault_config, read_retry_max=0, num_records=2500):
        system = build_flash_system(
            dram_bytes=1 << 20, flash_bytes=4 << 20,
            controller_config=ControllerConfig(
                read_retry_max=read_retry_max),
            fault_config=fault_config, seed=17)
        trace = build_workload("websearch1", num_records=num_records,
                               footprint_pages=4096, seed=17)
        return run_trace(system, trace)

    def test_uncorrectable_reads_become_misses(self):
        report = self._run(FaultConfig(
            read_disturb_rate=0.2, read_disturb_bits=64, seed=11))
        flash = report.flash
        assert flash is not None
        assert flash.uncorrectable > 0
        assert flash.recovered_faults > 0
        assert report.controller.uncorrectable_reads > 0
        assert report.faults is not None
        assert report.faults.read_disturbs > 0
        assert not report.flash_degraded

    def test_retry_ladder_reduces_uncorrectable_reads(self):
        # Bursts of 8 bits decay to 1 over three re-senses — within even
        # the initial ECC strength, so the ladder can actually save them.
        cfg = FaultConfig(read_disturb_rate=0.2, read_disturb_bits=8,
                          read_disturb_span=3, seed=11)
        without = self._run(cfg, read_retry_max=0)
        with_retry = self._run(cfg, read_retry_max=3)
        assert with_retry.controller.retry_recovered_reads > 0
        assert with_retry.controller.uncorrectable_reads \
            < without.controller.uncorrectable_reads

    def test_heavy_faults_complete_without_exception(self):
        report = self._run(FaultConfig.uniform(0.3, seed=2))
        assert report.requests > 0
        assert report.flash_live_capacity < 1.0
        assert report.flash.retired_blocks > 0

    def test_zero_rate_config_is_bit_identical_to_no_config(self):
        baseline = self._run(None, num_records=1500)
        zero = self._run(FaultConfig.uniform(0.0), num_records=1500)
        assert zero.faults is None  # no injector was attached at all
        assert zero.average_latency_us == baseline.average_latency_us
        assert zero.wall_clock_us == baseline.wall_clock_us
        assert zero.flash_miss_rate == baseline.flash_miss_rate
        assert zero.disk_reads == baseline.disk_reads
        assert zero.disk_writes == baseline.disk_writes
        assert zero.flash_live_capacity == 1.0

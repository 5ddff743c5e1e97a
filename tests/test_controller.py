"""Programmable Flash memory controller tests (sections 4, 5.2)."""

from __future__ import annotations

import pytest

from repro.core.cache import FlashDiskCache
from repro.core.controller import (
    ControllerConfig,
    FixedEccController,
    ProgrammableFlashController,
    ReconfigKind,
)
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import CellMode
from repro.flash.wear import CellLifetimeModel, WearModelConfig

from .conftest import page_number


def make_controller(worn=False, **config_kwargs):
    geometry = FlashGeometry(frames_per_block=4, num_blocks=4)
    device = FlashDevice(
        geometry=geometry,
        lifetime_model=CellLifetimeModel(WearModelConfig()) if worn else None,
        initial_mode=CellMode.MLC,
        seed=3,
    )
    return ProgrammableFlashController(
        device, config=ControllerConfig(**config_kwargs))


class TestDescriptors:
    def test_descriptor_reflects_fpst(self):
        controller = make_controller(initial_ecc_strength=2)
        descriptor = controller.descriptor(page_number(controller, 0, 0, 0))
        assert descriptor.ecc_strength == 2
        assert descriptor.mode is CellMode.MLC

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(max_ecc_strength=4, initial_ecc_strength=5)


class TestTimedOperations:
    def test_read_adds_decode_and_crc(self):
        controller = make_controller()
        result = controller.read(page_number(controller, 0, 0, 0))
        raw = controller.device.timing.mlc_read_us
        assert result.latency_us > raw
        assert result.recovered
        assert result.reconfig is None

    def test_program_adds_encode(self):
        controller = make_controller()
        latency = controller.program(page_number(controller, 0, 0, 0), lba=5)
        assert latency > controller.device.timing.mlc_write_us
        entry = controller.fpst.entry(page_number(controller, 0, 0, 0))
        assert entry.valid and entry.lba == 5

    def test_stronger_code_costs_more(self):
        weak = make_controller(initial_ecc_strength=1)
        strong = make_controller(initial_ecc_strength=12)
        assert (strong.read(page_number(strong, 0, 0, 0)).latency_us
                > weak.read(page_number(weak, 0, 0, 0)).latency_us)

    def test_erase_updates_fbst_and_resets_pages(self):
        controller = make_controller()
        controller.program(page_number(controller, 1, 0, 0), lba=9)
        controller.erase(1)
        assert controller.fbst.entry(1).erase_count == 1
        entry = controller.fpst.entry(page_number(controller, 1, 0, 0))
        assert not entry.valid and entry.lba is None

    def test_ecc_strength_persists_across_erase(self):
        """Strength tracks physical wear, so it must survive the erase."""
        controller = make_controller()
        address = page_number(controller, 0, 1, 0)
        controller.fpst.entry(address).ecc_strength = 7
        controller.erase(0)
        assert controller.fpst.entry(address).ecc_strength == 7

    def test_invalidate_clears_valid_bit(self):
        controller = make_controller()
        page = page_number(controller, 0, 0, 0)
        controller.program(page, lba=1)
        controller.invalidate(page)
        assert not controller.fpst.entry(page).valid


class TestDensityChangeAtErase:
    def test_pended_slc_applied_at_erase(self):
        controller = make_controller()
        address = page_number(controller, 2, 1, 0)
        controller.request_slc(address)
        assert controller.device.frame_mode(2, 1) is CellMode.MLC
        controller.erase(2)
        assert controller.device.frame_mode(2, 1) is CellMode.SLC
        assert controller.fbst.entry(2).total_slc_pages == 1

    def test_subpage_entries_dropped_on_density_switch(self):
        controller = make_controller()
        upper = page_number(controller, 2, 1, 1)
        controller.fpst.entry(upper).ecc_strength = 5
        controller.request_slc(page_number(controller, 2, 1, 0))
        controller.erase(2)
        # subpage 1 no longer exists in SLC mode
        assert controller.fpst.get(page_number(controller, 2, 1, 1)) is None

    def test_pages_of_block_follows_modes(self):
        controller = make_controller()
        assert len(controller.pages_of_block(0)) == 8  # 4 frames x 2 MLC
        controller.request_slc(page_number(controller, 0, 0, 0))
        controller.erase(0)
        assert len(controller.pages_of_block(0)) == 7


class TestEraseContract:
    """What one ``controller.erase`` does to the FPST, the FBST and the
    device, with pended SLC frames and raised ECC strengths in play."""

    def make(self):
        geometry = FlashGeometry(frames_per_block=4, num_blocks=4)
        device = FlashDevice(geometry=geometry, initial_mode=CellMode.MLC,
                             store_data=True, seed=3)
        return ProgrammableFlashController(
            device, config=ControllerConfig(initial_ecc_strength=2))

    def test_erase_resets_contents_and_keeps_wear_state(self):
        controller = self.make()
        device, fpst = controller.device, controller.fpst
        timing = device.timing
        # Program every page of block 1 but (1, 3, 0), which never gets
        # an FPST entry.
        for frame in range(4):
            for subpage in (0, 1):
                address = page_number(controller, 1, frame, subpage)
                if address == page_number(controller, 1, 3, 0):
                    continue
                controller.program(address, lba=10 * frame + subpage,
                                   data=b"x%d" % frame)
                fpst.entry(address).access_count = 7
        fpst.entry(page_number(controller, 1, 0, 0)).ecc_strength = 5
        fpst.entry(page_number(controller, 1, 2, 1)).ecc_strength = 4
        # Below the initial strength, and dropped below:
        fpst.entry(page_number(controller, 1, 0, 1)).ecc_strength = 1
        fpst.entry(page_number(controller, 1, 1, 1)).ecc_strength = 9
        controller.request_slc(page_number(controller, 1, 1, 0))
        controller.request_slc(page_number(controller, 1, 3, 0))

        latency = controller.erase(1)

        # Pre-erase modes were all MLC: the slowest mode sets the pulse.
        assert latency == timing.mlc_erase_us
        for frame in (1, 3):
            assert fpst.get(page_number(controller, 1, frame, 1)) is None
            assert device.frame_mode(1, frame) is CellMode.SLC
        assert fpst.get(page_number(controller, 1, 3, 0)) is None
        expected_strength = {(0, 0): 5, (0, 1): 1, (1, 0): 2, (2, 0): 2,
                             (2, 1): 4}
        for (frame, subpage), strength in expected_strength.items():
            entry = fpst.get(page_number(controller, 1, frame, subpage))
            assert entry is not None
            assert not entry.valid
            assert entry.lba is None
            assert entry.access_count == 0
            assert entry.ecc_strength == strength
            assert entry.mode is device.frame_mode(1, frame)
        fbst = controller.fbst.entry(1)
        # Strength added over the initial 2: 3 + 0 + 0 + 0 + 2; the
        # dropped (1, 1, 1) entry no longer counts.
        assert fbst.total_ecc == 5
        assert fbst.total_slc_pages == 2
        assert fbst.erase_count == 1
        assert controller.stats.erases == 1
        for frame in range(4):
            assert device.frame_damage(1, frame) == 1.0
        # store_data: the erase dropped every payload.
        for address in controller.pages_of_block(1):
            assert device.read_page(address).data is None
        assert controller.pages_of_block(1) == tuple(
            page_number(controller, 1, frame, subpage)
            for frame, subpage in ((0, 0), (0, 1), (1, 0), (2, 0), (2, 1),
                                   (3, 0)))
        with pytest.raises(IndexError):
            device.read_page(page_number(controller, 1, 1, 1))

    def test_erase_latency_is_the_slowest_frame_mode(self):
        controller = self.make()
        timing = controller.device.timing
        # Untouched block: every frame materialises in the initial mode.
        assert controller.erase(2) == timing.mlc_erase_us
        for frame in range(4):
            assert controller.device.frame_damage(2, frame) == 1.0
        for frame in (0, 1):
            controller.request_slc(page_number(controller, 2, frame, 0))
        # Mixed SLC/MLC before the pulse: MLC still sets it.
        assert controller.erase(2) == timing.mlc_erase_us
        for frame in (2, 3):
            controller.request_slc(page_number(controller, 2, frame, 0))
        assert controller.erase(2) == timing.mlc_erase_us
        # Every frame SLC before the pulse: the shorter SLC staircase.
        assert controller.erase(2) == timing.slc_erase_us
        entry = controller.fbst.entry(2)
        assert entry.erase_count == 4
        assert entry.total_slc_pages == 4
        assert controller.device.stats.erase_busy_us == \
            3 * timing.mlc_erase_us + timing.slc_erase_us
        for frame in range(4):
            assert controller.device.frame_damage(2, frame) == 4.0


class TestLayoutMemo:
    def test_repeated_calls_return_the_same_tuple(self):
        controller = make_controller()
        layout = controller.pages_of_block(1)
        # One mode and no bad frame: a range of page numbers.
        assert isinstance(layout, range)
        assert tuple(layout) == tuple(
            page_number(controller, 1, frame, subpage)
            for frame in range(4) for subpage in (0, 1))
        assert controller.pages_of_block(1) is layout

    def test_density_switch_reshapes_memoised_layout(self):
        controller = make_controller()
        before = controller.pages_of_block(0)
        controller.request_slc(page_number(controller, 0, 1, 0))
        assert controller.has_pending_density_change(0, 1)
        assert not controller.has_pending_density_change(0, 0)
        # Pended but not yet erased: the layout keeps its shape.
        assert controller.pages_of_block(0) is before
        controller.erase(0)
        after = controller.pages_of_block(0)
        assert after == tuple(
            a for a in before if a != page_number(controller, 0, 1, 1))
        assert controller.block_capacity_pages(0) == len(after)
        assert not controller.has_pending_density_change(0, 1)

    def test_cache_builds_layouts_only_for_blocks_it_opens(self):
        # Pricing every block at start-up must stay count-only: a layout
        # exists only once something opens, erases or refreshes a block.
        device = FlashDevice(geometry=FlashGeometry(num_blocks=1024),
                             initial_mode=CellMode.MLC, seed=3)
        controller = ProgrammableFlashController(device)
        cache = FlashDiskCache(controller)
        assert cache.total_pages() == 1024 * 128
        assert controller._block_layout == {}
        cache.insert_clean(7)
        assert set(controller._block_layout) == {cache._read.open_block}


class TestFaultResponse:
    def _age_to_limit(self, controller, block=0, frame=0):
        """Age a frame until its raw errors reach the page's strength."""
        address = page_number(controller, block, frame, 0)
        strength = controller.fpst.entry(address).ecc_strength
        threshold = controller.device.next_error_damage(
            block, frame, strength - 1)
        sensitivity = controller.device.frame_read_sensitivity(block, frame)
        controller.device.age_block(block, threshold / sensitivity * 1.001)
        return address

    def test_reconfig_triggered_at_limit(self):
        controller = make_controller(worn=True)
        address = self._age_to_limit(controller)
        result = controller.read(address)
        assert result.reconfig is not None
        assert controller.stats.descriptor_updates == 1

    def test_cold_page_prefers_stronger_ecc(self):
        """delta_tcs ~ freq * code_delay ~ 0 for a never-read page."""
        controller = make_controller(worn=True)
        address = self._age_to_limit(controller)
        entry = controller.fpst.entry(address)
        entry.access_count = 0
        controller.fgst.total_accesses = 1_000_000
        result = controller.read(address)
        assert result.reconfig is ReconfigKind.CODE_STRENGTH
        assert controller.fpst.entry(address).ecc_strength == 2

    def test_hot_page_prefers_density_reduction(self):
        controller = make_controller(worn=True)
        controller.marginal_miss_estimate = 0.0  # short tail: free capacity
        address = self._age_to_limit(controller)
        entry = controller.fpst.entry(address)
        entry.access_count = 500_000
        controller.fgst.total_accesses = 1_000_000
        result = controller.read(address)
        assert result.reconfig is ReconfigKind.DENSITY

    def test_exhausted_page_retires_block(self):
        controller = make_controller(worn=True, max_ecc_strength=1,
                                     initial_ecc_strength=1)
        address = self._age_to_limit(controller)
        entry = controller.fpst.entry(address)
        entry.mode = CellMode.MLC
        # Force SLC mode so neither repair is available.
        controller.request_slc(address)
        controller.erase(0)
        address = self._age_to_limit(controller)
        controller.read(address)
        assert controller.is_retired(0)
        assert controller.stats.blocks_retired == 1

    def test_uncorrectable_read_reported(self):
        controller = make_controller(worn=True)
        address = page_number(controller, 0, 0, 0)
        # Age far past the strength-1 limit so raw errors exceed t.
        threshold = controller.device.next_error_damage(0, 0, 5)
        controller.device.age_block(0, threshold)
        result = controller.read(address)
        assert not result.recovered
        assert controller.stats.uncorrectable_reads == 1

    def test_hot_promotion_flag_on_saturation(self):
        controller = make_controller(counter_max=3)
        address = page_number(controller, 0, 0, 0)
        flags = [controller.read(address).hot_promotion for _ in range(4)]
        assert flags[:2] == [False, False]
        assert flags[3] is True  # saturated on an MLC page


class TestFixedBaseline:
    def test_fixed_controller_retires_immediately(self):
        geometry = FlashGeometry(frames_per_block=4, num_blocks=4)
        device = FlashDevice(
            geometry=geometry,
            lifetime_model=CellLifetimeModel(WearModelConfig()), seed=3)
        controller = FixedEccController(device, strength=1)
        threshold = device.next_error_damage(0, 0, 0)
        device.age_block(0, threshold / 10 * 1.001)
        controller.read(page_number(controller, 0, 0, 0))
        assert controller.is_retired(0)
        assert controller.stats.descriptor_updates == 0

    def test_all_blocks_retired_flag(self):
        geometry = FlashGeometry(frames_per_block=2, num_blocks=2)
        device = FlashDevice(
            geometry=geometry,
            lifetime_model=CellLifetimeModel(WearModelConfig()), seed=3)
        controller = FixedEccController(device)
        assert not controller.all_blocks_retired
        for block in range(2):
            threshold = device.next_error_damage(block, 0, 0)
            device.age_block(block, threshold / 10 * 1.001)
            controller.read(page_number(controller, block, 0, 0))
        assert controller.all_blocks_retired

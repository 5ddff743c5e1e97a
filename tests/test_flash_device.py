"""Functional NAND device tests: protocol, modes, wear, accounting."""

from __future__ import annotations

import math

import pytest

from repro.flash.device import (
    EraseError,
    FlashDevice,
    PageState,
    ProgramError,
    MLC_READ_SENSITIVITY,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import CellMode
from repro.flash.wear import CellLifetimeModel, WearModelConfig


def page(device, block, frame, subpage=0):
    return device.geometry.page_number(block, frame, subpage)


class TestNandProtocol:
    def test_program_then_read(self, device):
        address = page(device, 0, 0, 0)
        device.program_page(address, b"payload")
        assert device.page_state(address) == PageState.PROGRAMMED
        result = device.read_page(address)
        assert result.raw_bit_errors == 0  # no wear model attached

    def test_erase_before_write_enforced(self, device):
        address = page(device, 1, 2, 1)
        device.program_page(address)
        with pytest.raises(ProgramError):
            device.program_page(address)
        device.erase_block(1)
        device.program_page(address)  # fine after erase

    def test_erase_resets_whole_block(self, device):
        for frame in range(device.geometry.frames_per_block):
            device.program_page(page(device, 2, frame, 0))
        device.erase_block(2)
        for frame in range(device.geometry.frames_per_block):
            assert device.page_state(
                page(device, 2, frame, 0)) == PageState.ERASED

    def test_erase_counts_accumulate(self, device):
        assert device.erase_count(3) == 0
        device.erase_block(3)
        device.erase_block(3)
        assert device.erase_count(3) == 2

    def test_bad_block_index_rejected(self, device):
        with pytest.raises(EraseError):
            device.erase_block(device.geometry.num_blocks)

    def test_out_of_range_frames_never_alias_another_frame(self, device):
        # Frames are keyed block * frames_per_block + frame, so frame 4 of
        # block 0 would be frame 0 of block 1 if it were not rejected.
        frames = device.geometry.frames_per_block
        device.erase_block(1, new_modes={0: CellMode.SLC})
        assert device.frame_mode(1, 0) is CellMode.SLC
        assert device.frame_damage(1, 0) == 1.0
        for block, frame in ((0, frames), (device.geometry.num_blocks, 0),
                             (-1, 0), (1, -1)):
            for query in (device.frame_mode, device.frame_damage,
                          device.raw_bit_errors_at,
                          device.frame_read_sensitivity):
                with pytest.raises(IndexError):
                    query(block, frame)
        # A page number names a frame key, so the out-of-range frame is
        # rejected where the number is formed.
        for block, frame in ((0, frames), (-1, 0), (1, -1)):
            with pytest.raises(IndexError):
                page(device, block, frame)
        for address in (page(device, device.geometry.num_blocks, 0, 0), -1):
            with pytest.raises(IndexError):
                device.read_page(address)
            with pytest.raises(IndexError):
                device.program_page(address)
        assert device.stats.reads == device.stats.programs == 0
        with pytest.raises(IndexError):
            device.block_frame_modes(device.geometry.num_blocks)

    def test_oversized_payload_rejected(self, device):
        with pytest.raises(ValueError):
            device.program_page(page(device, 0, 0, 0),
                                bytes(device.geometry.page_data_bytes + 1))

    def test_data_storage_roundtrip(self, small_geometry):
        device = FlashDevice(geometry=small_geometry, store_data=True)
        address = page(device, 0, 1, 1)
        device.program_page(address, b"persist me")
        assert device.read_page(address).data == b"persist me"
        device.erase_block(0)
        assert device.read_page(page(device, 0, 1, 0)).data is None


class TestDensityModes:
    def test_initial_mode_applies(self, device):
        assert device.frame_mode(0, 0) is CellMode.MLC

    def test_mode_change_takes_effect_at_erase(self, device):
        device.erase_block(0, new_modes={1: CellMode.SLC})
        assert device.frame_mode(0, 1) is CellMode.SLC
        assert device.frame_mode(0, 0) is CellMode.MLC

    def test_slc_frame_has_single_subpage(self, device):
        device.erase_block(0, new_modes={0: CellMode.SLC})
        device.program_page(page(device, 0, 0, 0))
        with pytest.raises(IndexError):
            device.read_page(page(device, 0, 0, 1))
        with pytest.raises(IndexError):
            device.program_page(page(device, 0, 0, 1))
        assert device.stats.reads == 0 and device.stats.programs == 1

    def test_block_capacity_reflects_modes(self, device):
        full_mlc = device.block_capacity_pages(0)
        device.erase_block(0, new_modes={0: CellMode.SLC, 1: CellMode.SLC})
        assert device.block_capacity_pages(0) == full_mlc - 2

    def test_latencies_by_mode(self, device):
        mlc_read = device.read_page(page(device, 0, 0, 0)).latency_us
        device.erase_block(0, new_modes={0: CellMode.SLC})
        slc_read = device.read_page(page(device, 0, 0, 0)).latency_us
        assert mlc_read == 50.0 and slc_read == 25.0

    def test_erase_latency_set_by_slowest_mode(self, device):
        result = device.erase_block(0)
        assert result.latency_us == 3300.0  # MLC erase
        device.erase_block(0, new_modes={
            frame: CellMode.SLC
            for frame in range(device.geometry.frames_per_block)})
        assert device.erase_block(0).latency_us == 1500.0


class TestWearInjection:
    def test_no_wear_model_means_no_errors(self, device):
        device.age_block(0, 1e9)
        assert device.raw_bit_errors_at(0, 0) == 0
        assert math.isinf(device.next_error_damage(0, 0, 0))

    def test_errors_grow_with_damage(self, worn_device):
        early = worn_device.raw_bit_errors_at(0, 0)
        worn_device.age_block(0, 50_000)
        late = worn_device.raw_bit_errors_at(0, 0)
        assert early == 0
        assert late > 0

    def test_mlc_more_sensitive_than_slc(self, worn_device):
        worn_device.age_block(0, 20_000)
        mlc_errors = worn_device.raw_bit_errors_at(0, 0)
        worn_device.erase_block(0, new_modes={0: CellMode.SLC})
        slc_errors = worn_device.raw_bit_errors_at(0, 0)
        assert slc_errors <= mlc_errors
        assert worn_device.frame_read_sensitivity(0, 0) == 1.0

    def test_read_sensitivity_constant(self, worn_device):
        assert worn_device.frame_read_sensitivity(0, 1) \
            == MLC_READ_SENSITIVITY == 10.0

    def test_next_error_damage_is_monotone_in_index(self, worn_device):
        thresholds = [worn_device.next_error_damage(0, 0, i)
                      for i in range(5)]
        assert thresholds == sorted(thresholds)
        assert thresholds[0] > 0

    def test_next_error_damage_matches_observed_errors(self, worn_device):
        threshold = worn_device.next_error_damage(0, 0, 0)
        worn_device.age_block(0, threshold * MLC_READ_SENSITIVITY ** -1 * 0.99
                              * MLC_READ_SENSITIVITY)
        # Just below: no errors seen by MLC read.
        worn_device.age_block(1, 0)  # no-op keeps block 1 fresh
        errors_before = worn_device.raw_bit_errors_at(0, 0)
        worn_device.age_block(0, threshold)  # way past now
        assert worn_device.raw_bit_errors_at(0, 0) >= max(errors_before, 1)

    def test_age_block_rejects_negative(self, worn_device):
        with pytest.raises(ValueError):
            worn_device.age_block(0, -1)

    def test_deterministic_given_seed(self, small_geometry):
        def build():
            return FlashDevice(
                geometry=small_geometry,
                lifetime_model=CellLifetimeModel(WearModelConfig()),
                seed=123,
            )
        a, b = build(), build()
        a.age_block(0, 30_000)
        b.age_block(0, 30_000)
        assert a.raw_bit_errors_at(0, 0) == b.raw_bit_errors_at(0, 0)


class TestAccounting:
    def test_stats_counts_and_busy_time(self, device):
        device.program_page(page(device, 0, 0, 0))
        device.read_page(page(device, 0, 0, 0))
        device.erase_block(0)
        stats = device.stats
        assert (stats.reads, stats.programs, stats.erases) == (1, 1, 1)
        assert stats.busy_us == pytest.approx(
            stats.read_busy_us + stats.program_busy_us + stats.erase_busy_us)
        assert stats.busy_us == pytest.approx(50.0 + 680.0 + 3300.0)

    def test_energy_accumulates(self, device):
        before = device.stats.energy_j
        device.read_page(page(device, 0, 0, 0))
        after = device.stats.energy_j
        assert after - before == pytest.approx(0.027 * 50e-6)

    def test_idle_energy(self, device):
        device.read_page(page(device, 0, 0, 0))
        idle = device.stats.idle_energy(1_000_000.0, 6e-6)
        assert idle == pytest.approx(6e-6 * (1_000_000 - 50) * 1e-6)

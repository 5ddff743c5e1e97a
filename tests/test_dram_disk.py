"""DRAM model, primary disk cache, and disk model tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.disk.model import DESKTOP_DISK_POWER, LAPTOP_DISK_POWER, DiskModel
from repro.dram.model import DramModel, DDR2_BANDWIDTH_BYTES_PER_US
from repro.dram.page_cache import PrimaryDiskCache


class TestDramModel:
    def test_access_latency_includes_transfer(self):
        dram = DramModel(size_bytes=1 << 28)
        expected = 0.055 + 2048 / DDR2_BANDWIDTH_BYTES_PER_US
        assert dram.access_us(2048) == pytest.approx(expected)

    def test_device_count_scales_with_size(self):
        assert DramModel(size_bytes=128 << 20).num_devices == 1
        assert DramModel(size_bytes=512 << 20).num_devices == 4

    def test_power_model_bytes_overrides_device_count(self):
        dram = DramModel(size_bytes=8 << 20,
                         power_model_bytes=512 << 20)
        assert dram.num_devices == 4

    def test_energy_breakdown_splits_read_write_idle(self):
        dram = DramModel(size_bytes=128 << 20)
        dram.read(2048)
        dram.read(2048)
        dram.write(2048)
        split = dram.energy_breakdown(wall_clock_us=10_000.0)
        assert split.read_j == pytest.approx(2 * split.write_j, rel=1e-6)
        assert split.idle_j > 0
        assert split.total_j == pytest.approx(
            split.read_j + split.write_j + split.idle_j)

    def test_powerdown_reduces_idle(self):
        active = DramModel(size_bytes=128 << 20)
        parked = DramModel(size_bytes=128 << 20, powerdown_when_idle=True)
        assert (parked.energy_breakdown(1000.0).idle_j
                < active.energy_breakdown(1000.0).idle_j)

    def test_wall_clock_shorter_than_busy_rejected(self):
        dram = DramModel(size_bytes=1 << 20)
        dram.read(1 << 20)
        with pytest.raises(ValueError):
            dram.energy_breakdown(wall_clock_us=0.001)

    def test_reset_stats(self):
        dram = DramModel(size_bytes=1 << 20)
        dram.read(64)
        dram.reset_stats()
        assert dram.reads == 0 and dram.read_busy_us == 0.0

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            DramModel(size_bytes=0)

    SIZES = (2048, 0, 1, 511, 2048, 3000, 4096, 0, 2048, 3000)

    def test_read_and_write_charge_access_us_bit_for_bit(self):
        dram = DramModel(size_bytes=1 << 20)
        for size in self.SIZES:
            expected = dram.access_us(size).hex()
            assert dram.read(size).hex() == expected
            assert dram.write(size).hex() == expected

    def test_negative_size_raises_on_every_call(self):
        dram = DramModel(size_bytes=1 << 20)
        for _ in range(3):
            with pytest.raises(ValueError):
                dram.read(-1)
            with pytest.raises(ValueError):
                dram.write(-1)
            with pytest.raises(ValueError):
                dram.access_us(-1)
        assert dram.reads == dram.writes == 0
        assert dram.read_busy_us == dram.write_busy_us == 0.0

    def test_busy_time_and_counts_accumulate_in_call_order(self):
        dram = DramModel(size_bytes=1 << 20)
        read_busy = write_busy = 0.0
        for index, size in enumerate(self.SIZES):
            if index % 3:
                dram.read(size)
                read_busy += dram.access_us(size)
            else:
                dram.write(size)
                write_busy += dram.access_us(size)
        assert dram.reads == 6 and dram.writes == 4
        assert dram.read_busy_us.hex() == read_busy.hex()
        assert dram.write_busy_us.hex() == write_busy.hex()
        dram.reset_stats()
        dram.read(2048)
        assert dram.read_busy_us.hex() == dram.access_us(2048).hex()


class TestPrimaryDiskCache:
    def test_read_miss_then_hit(self):
        pdc = PrimaryDiskCache(capacity_pages=4)
        hit, _ = pdc.read(7)
        assert not hit
        hit, _ = pdc.read(7)
        assert hit
        assert pdc.stats.read_hits == 1 and pdc.stats.read_misses == 1

    def test_hit_reports_shared_immutable_empty_evictions(self):
        pdc = PrimaryDiskCache(capacity_pages=4)
        pdc.read(7)
        pdc.write(8)
        outcomes = [pdc.read(7), pdc.write(7), pdc.read(8), pdc.write(8)]
        for hit, evictions in outcomes:
            assert hit
            assert evictions == ()
            assert isinstance(evictions, tuple)
        # One shared value: a hit allocates nothing.
        assert all(outcome is outcomes[0] for outcome in outcomes)
        assert pdc.stats.read_hits == 2 and pdc.stats.write_hits == 2

    def test_lru_eviction_order(self):
        pdc = PrimaryDiskCache(capacity_pages=2)
        pdc.read(1)
        pdc.read(2)
        pdc.read(1)            # 1 becomes MRU
        _, evictions = pdc.read(3)
        assert [e.page for e in evictions] == [2]

    def test_dirty_eviction_reported(self):
        pdc = PrimaryDiskCache(capacity_pages=1)
        pdc.write(5)
        _, evictions = pdc.read(6)
        assert evictions[0].page == 5 and evictions[0].dirty

    def test_write_marks_dirty_until_flush(self):
        pdc = PrimaryDiskCache(capacity_pages=4)
        pdc.write(1)
        pdc.write(2)
        pdc.read(3)
        assert pdc.dirty_pages == 2
        assert sorted(pdc.flush()) == [1, 2]
        assert pdc.dirty_pages == 0

    def test_invalidate(self):
        pdc = PrimaryDiskCache(capacity_pages=2)
        pdc.read(9)
        assert pdc.invalidate(9)
        assert not pdc.invalidate(9)
        assert 9 not in pdc

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PrimaryDiskCache(capacity_pages=0)

    @given(pages=st.lists(st.integers(min_value=0, max_value=30),
                          min_size=1, max_size=200))
    def test_property_capacity_never_exceeded(self, pages):
        pdc = PrimaryDiskCache(capacity_pages=8)
        for page in pages:
            pdc.read(page)
        assert len(pdc) <= 8

    @given(pages=st.lists(st.integers(min_value=0, max_value=5),
                          min_size=1, max_size=60))
    def test_property_working_set_within_capacity_never_misses_twice(
            self, pages):
        """Pages from a set smaller than capacity miss at most once each."""
        pdc = PrimaryDiskCache(capacity_pages=6)
        for page in pages:
            pdc.read(page)
        assert pdc.stats.read_misses == len(set(pages))


class TestDiskModel:
    def test_average_access_latency(self):
        disk = DiskModel()
        assert disk.read() == pytest.approx(4200.0)
        assert disk.write() == pytest.approx(4200.0)

    def test_sequential_extension(self):
        disk = DiskModel()
        assert disk.read(num_pages=11) == pytest.approx(4200.0 + 10 * 40.0)

    def test_batched_write_cheaper_than_individual(self):
        batched, individual = DiskModel(), DiskModel()
        batched.write(num_pages=100)
        for _ in range(100):
            individual.write()
        assert batched.busy_us < individual.busy_us / 10

    def test_energy_blends_active_and_idle(self):
        disk = DiskModel()
        disk.read()
        wall = 10_000.0
        expected = (LAPTOP_DISK_POWER.active_w * 4200.0
                    + LAPTOP_DISK_POWER.idle_w * (wall - 4200.0)) * 1e-6
        assert disk.energy_j(wall) == pytest.approx(expected)

    def test_power_profiles(self):
        assert DESKTOP_DISK_POWER.active_w == 13.0  # Table 2
        assert DESKTOP_DISK_POWER.idle_w == 9.3
        assert LAPTOP_DISK_POWER.active_w < DESKTOP_DISK_POWER.active_w

    def test_invalid_requests_rejected(self):
        disk = DiskModel()
        with pytest.raises(ValueError):
            disk.read(num_pages=0)
        disk.read()
        with pytest.raises(ValueError):
            disk.energy_j(wall_clock_us=1.0)

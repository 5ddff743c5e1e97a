"""Tests for the four DRAM-resident management tables (section 3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tables import (
    ACCESS_COUNTER_MAX,
    FBSTEntry,
    FlashBlockStatusTable,
    FlashCacheHashTable,
    FlashGlobalStatus,
    FlashPageStatusTable,
    FPSTEntry,
    metadata_overhead_bytes,
)
from repro.core.controller import ProgrammableFlashController
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import CellMode


class TestFPST:
    def test_entry_created_with_default_strength(self):
        table = FlashPageStatusTable(8, default_ecc_strength=3)
        entry = table.entry(0)
        assert entry.ecc_strength == 3
        assert not entry.valid
        assert entry.lba is None and entry.mode is CellMode.MLC

    def test_saturating_counter(self):
        # The controller's read bumps the counter; it stops at the
        # ceiling, and the page reads hot from the saturating read on.
        device = FlashDevice(geometry=FlashGeometry(frames_per_block=4,
                                                    num_blocks=2),
                             initial_mode=CellMode.MLC)
        controller = ProgrammableFlashController(device)
        address = device.geometry.page_number(0, 0, 0)
        controller.program(address, lba=7)
        entry = controller.fpst.entry(address)
        hot = [controller.read(address).hot_promotion
               for _ in range(ACCESS_COUNTER_MAX + 5)]
        assert hot == [False] * (ACCESS_COUNTER_MAX - 1) + [True] * 6
        assert entry.access_count == ACCESS_COUNTER_MAX

    def test_saturate_shortcut(self):
        entry = FlashPageStatusTable(8).entry(5)
        assert isinstance(entry, FPSTEntry)
        entry.saturate()
        assert entry.access_count == ACCESS_COUNTER_MAX

    def test_drop_and_iterate(self):
        table = FlashPageStatusTable(8)
        a, b = 0, 2
        table.entry(a)
        table.entry(b)
        table.drop(a)
        assert table.get(a) is None
        assert table.get(b).page == b
        assert bytes(table.present) == bytes([0, 0, 1, 0, 0, 0, 0, 0])


class TestFBST:
    def test_wear_out_cost_function(self):
        """wear_out = N_erase + k1*TotalECC + k2*TotalSLC (section 3.3)."""
        entry = FBSTEntry(erase_count=10, total_ecc=4, total_slc_pages=2)
        assert entry.wear_out(k1=1.0, k2=10.0) == pytest.approx(
            10 + 1.0 * 4 + 10.0 * 2)

    def test_k2_must_dominate_k1(self):
        """Section 3.3: "Constant k2 is larger than k1"."""
        with pytest.raises(ValueError):
            FlashBlockStatusTable(4, k1=5.0, k2=1.0)

    def test_all_retired_counts(self):
        table = FlashBlockStatusTable(2)
        table.entry(0).retired = True
        table.entry(1).retired = True
        assert table.retired_count == 2
        assert list(table.live_blocks()) == []


class TestFGST:
    def test_miss_rate(self):
        fgst = FlashGlobalStatus()
        for _ in range(3):
            fgst.record_hit(50.0)
        fgst.record_miss(4200.0)
        assert fgst.miss_rate == pytest.approx(0.25)

    def test_ewma_tracks_latency(self):
        fgst = FlashGlobalStatus(ewma_alpha=0.5)
        fgst.record_hit(100.0)
        fgst.record_hit(200.0)
        assert fgst.avg_hit_latency_us == pytest.approx(150.0)

    def test_relative_frequency(self):
        fgst = FlashGlobalStatus()
        assert fgst.relative_frequency(10) == 0.0
        fgst.record_hit(1.0)
        fgst.record_hit(1.0)
        assert fgst.relative_frequency(1) == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(alpha=st.sampled_from([0.01, 0.5]) | st.floats(
               0.001, 0.999, allow_nan=False),
           samples=st.lists(st.tuples(
               st.booleans(),
               st.sampled_from([0.0, 25.0, 4200.0]) | st.floats(
                   0.0, 1e6, allow_nan=False, allow_infinity=False)),
               max_size=60))
    def test_ewma_matches_two_step_blend(self, alpha, samples):
        # The FGST feeds the reconfiguration cost model, so its averages
        # must equal, bit for bit, the blend it was defined by: take the
        # first sample (or any sample while the average reads 0.0), then
        # (1 - alpha) * current + alpha * sample.
        def blend(current, sample):
            if current == 0.0:
                return sample
            return (1.0 - alpha) * current + alpha * sample

        fgst = FlashGlobalStatus(ewma_alpha=alpha)
        hit_avg = miss_avg = 0.0
        for is_hit, value in samples:
            if is_hit:
                fgst.record_hit(value)
                hit_avg = blend(hit_avg, value)
            else:
                fgst.record_miss(value)
                miss_avg = blend(miss_avg, value)
        assert fgst.avg_hit_latency_us.hex() == hit_avg.hex()
        assert fgst.avg_miss_penalty_us.hex() == miss_avg.hex()
        hits = sum(1 for is_hit, _ in samples if is_hit)
        assert (fgst.hits, fgst.misses, fgst.total_accesses) \
            == (hits, len(samples) - hits, len(samples))


class TestFCHT:
    def test_basic_mapping(self):
        fcht = FlashCacheHashTable()
        address = 12
        fcht.insert(42, address)
        assert 42 in fcht
        assert fcht.lookup(42) == address
        assert fcht.remove(42) == address
        assert fcht.lookup(42) is None

    def test_lookup_cost_grows_with_load(self):
        small = FlashCacheHashTable(buckets=4)
        large = FlashCacheHashTable(buckets=4096)
        for lba in range(1000):
            small.insert(lba, 0)
            large.insert(lba, 0)
        assert small.lookup_cost_us() > large.lookup_cost_us()

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            FlashCacheHashTable(buckets=0)


class TestMetadataOverhead:
    def test_paper_32gb_estimate(self):
        """Section 3: ~360MB of DRAM for 32GB of Flash, under 2%."""
        overhead = metadata_overhead_bytes(32 << 30)
        assert overhead == pytest.approx(360 << 20, rel=0.05)
        assert overhead / (32 << 30) < 0.02

    def test_scales_linearly_with_flash(self):
        small = metadata_overhead_bytes(1 << 30)
        large = metadata_overhead_bytes(4 << 30)
        assert large == pytest.approx(4 * small, rel=0.01)

    def test_rejects_sub_page_flash(self):
        with pytest.raises(ValueError):
            metadata_overhead_bytes(100)

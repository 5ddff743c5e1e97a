"""Cross-module integration tests.

These exercise the real end-to-end paths the unit tests stub around:
functional BCH protecting real bytes on a wearing device, the full
hierarchy aging under traffic, and experiment runners at reduced scale.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cache import FlashCacheConfig, FlashDiskCache
from repro.core.controller import ProgrammableFlashController
from repro.core.hierarchy import build_flash_system
from repro.ecc.bch import BCHDecodeFailure, design_code_for_page
from repro.ecc.crc import Crc32
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import CellMode
from repro.flash.wear import CellLifetimeModel, WearModelConfig
from repro.parallel import sweep
from repro.workloads.macro import build_workload

from .conftest import page_number


class TestFunctionalEccOnDevice:
    """Store real encoded pages on the device and repair injected errors —
    the complete section 4.1 datapath with actual bytes."""

    def test_page_survives_bit_errors_via_bch_plus_crc(self):
        rng = random.Random(77)
        code = design_code_for_page(256, t=4)  # small page for speed
        geometry = FlashGeometry(page_data_bytes=256, frames_per_block=2,
                                 num_blocks=2)
        device = FlashDevice(geometry=geometry, store_data=True)

        payload = bytes(rng.randrange(256) for _ in range(256))
        stored, parity = code.encode(payload)
        crc = Crc32().update(payload).digest()
        device.program_page(page_number(device, 0, 0, 0), stored)

        raw = device.read_page(page_number(device, 0, 0, 0)).data
        corrupted = bytearray(raw)
        for index in rng.sample(range(256), 3):
            corrupted[index] ^= 1 << rng.randrange(8)

        decoded, corrected = code.decode(bytes(corrupted), parity)
        assert corrected == 3
        assert Crc32.check(decoded, crc)

    def test_overwhelmed_code_caught_by_crc(self):
        rng = random.Random(78)
        code = design_code_for_page(64, t=2)
        payload = bytes(rng.randrange(256) for _ in range(64))
        _, parity = code.encode(payload)
        crc = Crc32().update(payload).digest()
        corrupted = bytearray(payload)
        for index in rng.sample(range(64), 12):
            corrupted[index] ^= 0xFF
        try:
            decoded, _ = code.decode(bytes(corrupted), parity)
        except BCHDecodeFailure:
            return  # detected outright
        assert not Crc32.check(decoded, crc)


class TestWearingCacheEndToEnd:
    def test_cache_survives_wear_and_reconfigures(self):
        """Run a cache over a wearing device long enough for pages to hit
        their correction limits; the controller must reconfigure and the
        cache must keep serving."""
        geometry = FlashGeometry(frames_per_block=4, num_blocks=8)
        device = FlashDevice(
            geometry=geometry,
            lifetime_model=CellLifetimeModel(WearModelConfig()),
            seed=5,
        )
        controller = ProgrammableFlashController(device)
        cache = FlashDiskCache(controller, FlashCacheConfig(
            hot_promotion=False))
        # Pre-age every block close to the MLC limit so traffic tips pages
        # over their thresholds quickly.
        for block in range(8):
            threshold = device.next_error_damage(block, 0, 0)
            device.age_block(block, threshold / 10.0 * 0.95)
        rng = random.Random(1)
        served = 0
        for index in range(4000):
            lba = rng.randrange(64)
            if rng.random() < 0.7:
                outcome = cache.read(lba)
                if outcome is None or not outcome.recovered:
                    cache.insert_clean(lba)
                else:
                    served += 1
            else:
                cache.write(lba)
        assert served > 0
        assert controller.stats.descriptor_updates > 0

    def test_full_system_with_wear_runs(self):
        system = build_flash_system(
            dram_bytes=1 << 20, flash_bytes=4 << 20,
            lifetime_model=CellLifetimeModel(WearModelConfig()),
        )
        trace = build_workload("alpha2", num_records=5000,
                               footprint_pages=4096, seed=4)
        system.run(trace)
        system.drain()
        assert system.stats.requests == 5000
        assert system.flash.stats.read_hits > 0


class TestExperimentRunnersSmoke:
    """Each figure runner executes at reduced scale and keeps its shape."""

    def test_fig1b_shape(self):
        from repro.experiments.fig1b_gc import combine, tasks
        points = combine(sweep(tasks(
            occupancies=(0.2, 0.5, 0.9), flash_blocks=16,
            writes_per_page=2.0)))
        overheads = [p.gc_overhead for p in points]
        assert overheads[0] < overheads[-1]
        assert points[-1].normalized_overhead == pytest.approx(
            overheads[-1] / 0.10)

    def test_fig4_shape(self):
        from repro.experiments.fig4_split import combine, tasks
        points = combine(sweep(tasks(flash_sizes_mb=(384, 640),
                                     scale_divisor=64,
                                     num_records=120_000)))
        # Split wins at the larger sizes and the gap grows (Figure 4).
        assert points[-1].split_miss_rate < points[-1].unified_miss_rate
        assert points[-1].improvement >= points[0].improvement - 0.02

    def test_fig6_series(self):
        from repro.experiments.fig6_ecc import (
            combine_decode_latency, combine_tolerable_cycles,
            decode_latency_tasks, tolerable_cycles_tasks)
        latencies = combine_decode_latency(
            sweep(decode_latency_tasks(t_values=(2, 6, 11))))
        assert latencies[0].total_us < latencies[-1].total_us
        cycles = combine_tolerable_cycles(
            sweep(tolerable_cycles_tasks(t_values=(0, 5, 10))))
        assert cycles[0.20][-1][1] > cycles[0.05][-1][1]

    def test_fig7_shapes(self):
        from repro.experiments.fig7_density import run_density_partition
        financial = run_density_partition(
            "financial2", area_fractions=(0.5, 2.2), grid_points=21)
        websearch = run_density_partition(
            "websearch1", area_fractions=(0.5, 2.2), grid_points=21)
        # Paper: Financial2 mostly SLC at half WSS; WebSearch1 mostly MLC.
        assert financial.points[0].optimal_slc_fraction > 0.5
        assert websearch.points[0].optimal_slc_fraction < 0.15

    def test_fig9_direction(self):
        from repro.experiments.fig9_power import combine, tasks
        result = combine(sweep(tasks("specweb99", scale_divisor=128,
                                     num_records=40_000,
                                     warmup_records=30_000)))
        assert result.power_ratio > 1.0

    def test_fig10_degrades_gracefully(self):
        from repro.experiments.fig10_ecc_throughput import combine, tasks
        points = combine(sweep(tasks(
            "specweb99", strengths=(1, 20), scale_divisor=128,
            num_records=20_000)))
        assert points[0].relative_bandwidth == pytest.approx(1.0)
        assert 0.3 < points[1].relative_bandwidth < 1.0

    def test_fig11_tail_trend(self):
        from repro.experiments.fig11_reconfig import combine, tasks
        rows = combine(sweep(tasks(
            workloads=("uniform", "exp2"), num_blocks=8,
            frames_per_block=4)))
        by_name = {row.workload: row for row in rows}
        assert by_name["uniform"].code_strength_fraction \
            > by_name["exp2"].code_strength_fraction

    def test_fig12_improvement(self):
        from repro.experiments.fig12_lifetime import (
            average_improvement, combine, tasks)
        rows = combine(sweep(tasks(workloads=("alpha2", "exp1"),
                                   num_blocks=8, frames_per_block=4)))
        assert all(row.improvement > 3.0 for row in rows)
        assert average_improvement(rows) > 3.0
        assert max(row.normalized_programmable for row in rows) \
            == pytest.approx(1.0)

"""Error-process model, scrub policy, and regime-simulation tests.

Covers the :mod:`repro.reliability` determinism contract (per-frame
streams, order-independent block multipliers, RNG-free scrub
decisions), the physics shapes (retention growth, wear acceleration,
history resets), the device/controller/cache threading (clock,
``refresh_block``, ``scrub_page``), byte-identity when the model is
off, and the regime simulator's headline result — the adaptive
controller outliving the fixed-ECC baseline.
"""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hierarchy import build_flash_system
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import CellMode
from repro.parallel import derive_seed
from repro.reliability import (
    ReliabilityConfig,
    ReliabilityModel,
    ScrubConfig,
    Scrubber,
)
from repro.reliability.model import _POISSON_MEAN_LIMIT
from repro.sim.engine import run_trace
from repro.sim.lifetime import (
    ErrorRegime,
    RegimeConfig,
    RegimeSimulator,
    simulate_regime,
    standard_regimes,
)
from repro.workloads.macro import build_workload

from .conftest import page_number


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestReliabilityConfig:
    @pytest.mark.parametrize("field", [
        "base_rber", "retention_rber_per_unit",
        "read_disturb_rber_per_read", "interference_rber_per_program",
    ])
    def test_each_rber_field_rejects_outside_unit_interval(self, field):
        ReliabilityConfig(**{field: 1.0})  # the legal maximum
        with pytest.raises(ValueError, match=field):
            ReliabilityConfig(**{field: 1.0000001})
        with pytest.raises(ValueError, match=field):
            ReliabilityConfig(**{field: -0.1})

    def test_shape_parameter_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(retention_unit_us=0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(spec_cycles=-1.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(block_sigma=-0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(mlc_factor=0.5)

    def test_any_enabled(self):
        assert not ReliabilityConfig().any_enabled
        assert not ReliabilityConfig.uniform(0.0).any_enabled
        assert ReliabilityConfig(base_rber=1e-6).any_enabled
        assert ReliabilityConfig.uniform(1e-6).any_enabled

    def test_uniform_derives_rate_hierarchy(self):
        cfg = ReliabilityConfig.uniform(1e-5, seed=9)
        assert cfg.base_rber == 1e-5
        assert cfg.retention_rber_per_unit > cfg.base_rber
        assert cfg.read_disturb_rber_per_read < cfg.base_rber
        assert cfg.interference_rber_per_program < cfg.base_rber
        assert cfg.seed == 9


class TestScrubConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScrubConfig(interval_us=0.0)
        with pytest.raises(ValueError):
            ScrubConfig(min_age_us=-1.0)
        with pytest.raises(ValueError):
            ScrubConfig(max_pages_per_pass=0)

    def test_scrubber_requires_a_model(self):
        system = build_flash_system(dram_bytes=1 << 20,
                                    flash_bytes=1 << 22)
        with pytest.raises(ValueError, match="ReliabilityModel"):
            Scrubber(system.flash)

    def test_build_rejects_scrub_without_reliability(self):
        with pytest.raises(ValueError, match="reliability_config"):
            build_flash_system(dram_bytes=1 << 20, flash_bytes=1 << 22,
                               scrub_config=ScrubConfig())


# ---------------------------------------------------------------------------
# Determinism contract
# ---------------------------------------------------------------------------


def _model(**overrides) -> ReliabilityModel:
    defaults = dict(base_rber=1e-4, retention_rber_per_unit=1e-4,
                    read_disturb_rber_per_read=1e-6, block_sigma=0.4,
                    seed=17)
    defaults.update(overrides)
    return ReliabilityModel(ReliabilityConfig(**defaults))


class TestDeterminism:
    def test_same_seed_same_per_frame_error_counts(self):
        a, b = _model(), _model()
        draws_a = [a.read_errors(0, 1, 100.0, CellMode.MLC, 1e9, 16896)
                   for _ in range(50)]
        draws_b = [b.read_errors(0, 1, 100.0, CellMode.MLC, 1e9, 16896)
                   for _ in range(50)]
        assert draws_a == draws_b

    def test_frames_draw_from_independent_streams(self):
        """A frame's error counts depend only on its own history: reads
        of *other* frames interleaved between its reads change nothing."""
        plain, interleaved = _model(), _model()
        alone = [plain.read_errors(2, 3, 50.0, CellMode.SLC, 1e9, 16896)
                 for _ in range(30)]
        mixed = []
        for _ in range(30):
            interleaved.read_errors(0, 0, 50.0, CellMode.SLC, 1e9, 16896)
            interleaved.read_errors(5, 1, 50.0, CellMode.SLC, 1e9, 16896)
            mixed.append(interleaved.read_errors(2, 3, 50.0, CellMode.SLC,
                                                 1e9, 16896))
        assert alone == mixed

    def test_block_multiplier_is_order_independent(self):
        ascending, descending = _model(), _model()
        up = [ascending.block_multiplier(b) for b in range(32)]
        down = [descending.block_multiplier(b) for b in reversed(range(32))]
        assert up == list(reversed(down))
        assert len(set(up)) > 1  # variation actually present

    def test_expected_rber_consumes_no_rng(self):
        """Scrub policy polls expected_rber freely; the polled and
        unpolled models must keep identical draw streams."""
        polled, unpolled = _model(), _model()
        for _ in range(100):
            polled.expected_rber(1, 1, 10.0, CellMode.MLC, 5e9)
        a = [polled.read_errors(1, 1, 10.0, CellMode.MLC, 5e9, 16896)
             for _ in range(20)]
        b = [unpolled.read_errors(1, 1, 10.0, CellMode.MLC, 5e9, 16896)
             for _ in range(20)]
        assert a == b


def _reference_counts(model: ReliabilityModel, frames, damages, cells):
    """What ``read_errors`` must return for reads of ``frames`` (in
    order) at ``damages``: Knuth's product method on each frame's own
    fresh ``Random(derive_seed(...))`` stream, or the rounded mean above
    the bulk limit."""
    streams = {}
    counts = []
    for (block, frame), damage in zip(frames, damages):
        rng = streams.get((block, frame))
        if rng is None:
            rng = streams[block, frame] = Random(derive_seed(
                model.config.seed, f"reliability:frame:{block}:{frame}"))
        mean = model.expected_rber(block, frame, damage, CellMode.SLC,
                                   0.0) * cells
        if mean > _POISSON_MEAN_LIMIT:
            counts.append(int(round(mean)))
            continue
        limit = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
        counts.append(count)
    return counts


class TestUniformStream:
    """Per-frame uniforms are buffered in blocks and refilled; the draws
    must equal an unbuffered generator's, block boundaries and all."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32),
           block=st.integers(min_value=0, max_value=4095),
           frame=st.integers(min_value=0, max_value=63),
           reads=st.integers(min_value=1, max_value=24),
           mean=st.one_of(
               st.sampled_from([_POISSON_MEAN_LIMIT - 0.5,
                                _POISSON_MEAN_LIMIT - 1e-6,
                                _POISSON_MEAN_LIMIT + 1e-6,
                                _POISSON_MEAN_LIMIT + 0.5]),
               st.floats(min_value=1e-3, max_value=80.0)),
           wear=st.lists(st.sampled_from([0.0, 1.0, 50.0, 2_000.0]),
                         min_size=1, max_size=4))
    def test_read_errors_equal_a_reference_knuth_loop(
            self, seed, block, frame, reads, mean, wear):
        cells = 16896
        model = ReliabilityModel(ReliabilityConfig(
            base_rber=mean / cells, seed=seed))
        # A second frame's reads interleave with the first's: neither
        # stream may see the other.
        other = (block + 1, 63 - frame)
        frames = [(block, frame) if i % 3 else other
                  for i in range(3 * reads)]
        # Damage moves the wear factor, so the mean varies read to read
        # (by 1.0002x to 1.44x): means near the bulk limit straddle it.
        damages = [wear[i % len(wear)] for i in range(len(frames))]
        expected = _reference_counts(
            ReliabilityModel(model.config), frames, damages, cells)
        got = [model.read_errors(b, f, damage, CellMode.SLC, 0.0, cells)
               for (b, f), damage in zip(frames, damages)]
        assert got == expected

    def test_long_runs_refill_many_blocks(self):
        # A mean just under the bulk limit takes ~65 uniforms per read:
        # every read crosses several block boundaries.
        cells = 16896
        config = ReliabilityConfig(
            base_rber=(_POISSON_MEAN_LIMIT - 0.01) / cells, seed=3)
        model = ReliabilityModel(config)
        frames = [(9, 4)] * 50
        damages = [0.0] * 50
        got = [model.read_errors(9, 4, 0.0, CellMode.SLC, 0.0, cells)
               for _ in frames]
        assert got == _reference_counts(ReliabilityModel(config), frames,
                                        damages, cells)
        assert model.stats.saturated_reads == 0
        assert sum(got) > 50 * 40


# ---------------------------------------------------------------------------
# Physics shapes
# ---------------------------------------------------------------------------


class TestErrorPhysics:
    def test_retention_grows_with_age_and_resets_on_program(self):
        model = _model(block_sigma=0.0)
        young = model.expected_rber(0, 0, 0.0, CellMode.SLC, 1e9)
        old = model.expected_rber(0, 0, 0.0, CellMode.SLC, 50e9)
        assert old > young
        model.note_program(0, 0, 50e9)
        fresh = model.expected_rber(0, 0, 0.0, CellMode.SLC, 50e9)
        assert fresh == pytest.approx(
            model.config.base_rber, rel=1e-12)

    def test_read_disturb_accumulates_and_erase_clears(self):
        model = _model(block_sigma=0.0)
        model.note_program(3, 1, 0.0)
        base = model.expected_rber(3, 1, 0.0, CellMode.SLC, 0.0)
        for _ in range(1000):
            # Each read draws its errors, then counts toward disturb.
            model.read_errors(3, 1, 0.0, CellMode.SLC, 0.0, 4096)
        disturbed = model.expected_rber(3, 1, 0.0, CellMode.SLC, 0.0)
        assert disturbed > base
        model.note_erase(3, 0.0, frames=4)
        assert model.expected_rber(3, 1, 0.0, CellMode.SLC, 0.0) \
            == pytest.approx(base)

    def test_wear_accelerates_every_process(self):
        model = _model(block_sigma=0.0)
        fresh = model.expected_rber(0, 0, 0.0, CellMode.MLC, 1e9)
        worn = model.expected_rber(0, 0, 10_000.0, CellMode.MLC, 1e9)
        assert worn == pytest.approx(fresh * 4.0)  # (1 + 1)**2

    def test_mlc_is_less_robust_than_slc(self):
        model = _model(block_sigma=0.0)
        slc = model.expected_rber(0, 0, 0.0, CellMode.SLC, 1e9)
        mlc = model.expected_rber(0, 0, 0.0, CellMode.MLC, 1e9)
        assert mlc == pytest.approx(slc * model.config.mlc_factor)

    def test_interference_only_hits_neighbours(self):
        model = _model(block_sigma=0.0,
                       interference_rber_per_program=1e-4)
        for frame in range(3):
            model.note_program(0, frame, 0.0)
        model.note_program(0, 1, 0.0)  # middle frame rewritten
        middle = model.expected_rber(0, 1, 0.0, CellMode.SLC, 0.0)
        edge = model.expected_rber(0, 0, 0.0, CellMode.SLC, 0.0)
        assert edge > middle  # neighbours absorbed the interference

    def test_interference_stays_inside_the_block(self):
        model = ReliabilityModel(ReliabilityConfig(
            base_rber=1e-4, interference_rber_per_program=1e-4, seed=2))
        device = FlashDevice(
            geometry=FlashGeometry(frames_per_block=4, num_blocks=4),
            initial_mode=CellMode.SLC, seed=3, reliability=model)
        fresh = model.expected_rber(1, 0, 0.0, CellMode.SLC, 0.0)
        # Block 0's last frame:
        device.program_page(page_number(device, 0, 3, 0))
        assert model.expected_rber(1, 0, 0.0, CellMode.SLC, 0.0) == fresh
        # The in-block neighbour did absorb the program.
        assert model.expected_rber(0, 2, 0.0, CellMode.SLC, 0.0) > fresh

    def test_poisson_saturation_shortcut(self):
        model = _model(base_rber=0.5, block_sigma=0.0)
        count = model.read_errors(0, 0, 0.0, CellMode.SLC, 0.0, 16896)
        assert count == pytest.approx(16896 * 0.5, rel=0.01)
        assert model.stats.saturated_reads == 1


# ---------------------------------------------------------------------------
# Device threading
# ---------------------------------------------------------------------------


class TestDeviceIntegration:
    def _device(self, **cfg):
        model = ReliabilityModel(ReliabilityConfig(**cfg))
        device = FlashDevice(
            geometry=FlashGeometry(frames_per_block=4, num_blocks=4),
            initial_mode=CellMode.SLC, seed=3, reliability=model)
        return device, model

    def test_clock_advances_with_operation_latency(self):
        device, _ = self._device(base_rber=1e-6)
        assert device.clock_us == 0.0
        address = page_number(device, 0, 0, 0)
        device.erase_block(0)
        device.program_page(address)
        device.read_page(address)
        assert device.clock_us > 0.0
        before = device.clock_us
        device.advance_clock(1e6)
        assert device.clock_us == before + 1e6
        with pytest.raises(ValueError):
            device.advance_clock(-1.0)

    def test_reads_see_model_errors_and_history_hooks_fire(self):
        device, model = self._device(base_rber=5e-4,
                                     read_disturb_rber_per_read=1e-6)
        address = page_number(device, 0, 0, 0)
        device.erase_block(0)
        device.program_page(address)
        errors = [device.read_page(address).raw_bit_errors
                  for _ in range(40)]
        assert model.stats.modelled_reads == 40
        assert sum(errors) > 0
        # Every read was recorded: with no retention term, no wear and no
        # block variation, the expected RBER is base + 40 reads' disturb.
        cfg = model.config
        assert model.expected_rber(0, 0, 0.0, CellMode.SLC,
                                   device.clock_us) == pytest.approx(
            cfg.base_rber + 40 * cfg.read_disturb_rber_per_read, rel=1e-12)

    def test_program_resets_retention_age(self):
        device, model = self._device(base_rber=1e-6)
        address = page_number(device, 0, 0, 0)
        device.erase_block(0)
        device.advance_clock(5e9)
        device.program_page(address)
        age = model.retention_age_us(0, 0, device.clock_us)
        assert age < 1e6  # only the program latency itself


# ---------------------------------------------------------------------------
# Byte-identity with the model disabled
# ---------------------------------------------------------------------------


class TestDisabledIsIdentical:
    def _run(self, reliability_config, num_records=1500):
        system = build_flash_system(
            dram_bytes=1 << 20, flash_bytes=1 << 22,
            reliability_config=reliability_config)
        records = build_workload("dbt2", num_records=num_records,
                                 footprint_pages=2048, seed=11)
        return run_trace(system, records)

    def test_zero_rate_config_is_bit_identical_to_no_config(self):
        baseline = self._run(None)
        zero = self._run(ReliabilityConfig.uniform(0.0))
        assert zero.reliability is None  # no model was attached at all
        assert zero.scrub is None
        assert zero.average_latency_us == baseline.average_latency_us
        assert zero.wall_clock_us == baseline.wall_clock_us
        assert zero.flash_miss_rate == baseline.flash_miss_rate
        assert zero.disk_reads == baseline.disk_reads
        assert zero.disk_writes == baseline.disk_writes


# ---------------------------------------------------------------------------
# Scrubbing: trace path (cache.scrub_page via Scrubber)
# ---------------------------------------------------------------------------


class TestTraceScrub:
    def _scrubbed_system(self, retention=3e-5, interval_us=1e5):
        return build_flash_system(
            dram_bytes=1 << 20, flash_bytes=1 << 22,
            reliability_config=ReliabilityConfig(
                base_rber=1e-7, retention_rber_per_unit=retention,
                retention_unit_us=1e6, seed=23),
            scrub_config=ScrubConfig(interval_us=interval_us,
                                     min_age_us=interval_us))

    def test_scrub_runs_and_refreshes_pages(self):
        system = self._scrubbed_system()
        records = build_workload("dbt2", num_records=4000,
                                 footprint_pages=2048, seed=11)
        report = run_trace(system, records)
        scrub = report.scrub
        assert scrub is not None
        assert scrub.passes > 0
        assert scrub.page_rewrites > 0
        assert scrub.busy_us > 0.0
        # Rewrites reset retention age: a scrubbed page's age is bounded
        # by the scrub cadence, not the trace length.
        assert report.reliability is not None
        assert report.reliability.modelled_reads > 0

    def test_scrub_decisions_are_deterministic(self):
        def run_once():
            system = self._scrubbed_system()
            records = build_workload("dbt2", num_records=3000,
                                     footprint_pages=2048, seed=11)
            report = run_trace(system, records)
            scrub = report.scrub
            return (scrub.passes, scrub.pages_scanned, scrub.scrub_reads,
                    scrub.page_rewrites, scrub.uncorrectable_found,
                    scrub.busy_us, report.reliability.error_bits)

        assert run_once() == run_once()

    def test_scrub_page_preserves_dirtiness(self):
        system = self._scrubbed_system(interval_us=1e12)  # never auto-runs
        flash = system.flash
        flash.write(77)
        assert 77 in flash._dirty
        address = flash.fcht.lookup(77)
        outcome = flash.scrub_page(77)
        assert outcome.refreshed
        assert 77 in flash._dirty  # rewrite does not launder dirtiness
        assert flash.fcht.lookup(77) is not None
        assert flash.fcht.lookup(77) != address  # moved out of place

    def test_scrub_page_on_unmapped_lba_is_a_noop(self):
        system = self._scrubbed_system(interval_us=1e12)
        outcome = system.flash.scrub_page(12345)
        assert not outcome.refreshed
        assert outcome.latency_us == 0.0


# ---------------------------------------------------------------------------
# Controller refresh (regime path)
# ---------------------------------------------------------------------------


class TestRefreshBlock:
    def test_refresh_rewrites_valid_pages_in_place(self):
        model = ReliabilityModel(ReliabilityConfig(base_rber=1e-7, seed=5))
        device = FlashDevice(
            geometry=FlashGeometry(frames_per_block=4, num_blocks=2),
            initial_mode=CellMode.SLC, seed=3, reliability=model)
        from repro.core.controller import ProgrammableFlashController
        controller = ProgrammableFlashController(device)
        addresses = [page_number(device, 0, frame, 0) for frame in range(4)]
        for i, address in enumerate(addresses):
            controller.program(address, lba=100 + i)
            controller.fpst.entry(address).access_count = 7 * (i + 1)
        device.advance_clock(1e9)
        elapsed = controller.refresh_block(0)
        assert elapsed > 0.0
        for i, address in enumerate(addresses):
            entry = controller.fpst.entry(address)
            assert entry.valid
            assert entry.lba == 100 + i
            # +1: the refresh itself read the page once.
            assert entry.access_count == 7 * (i + 1) + 1
        # The erase reset every frame's retention clock.
        assert model.retention_age_us(0, 0, device.clock_us) < 1e9


# ---------------------------------------------------------------------------
# Regime simulation
# ---------------------------------------------------------------------------


class TestRegimes:
    def test_regime_validation(self):
        with pytest.raises(ValueError):
            ErrorRegime(name="x", reliability=ReliabilityConfig(),
                        cycles_per_step=-1.0)
        with pytest.raises(ValueError):
            ErrorRegime(name="x", reliability=ReliabilityConfig(),
                        write_fraction=0.0)
        with pytest.raises(ValueError):
            RegimeConfig(regime=standard_regimes()["archival_cold"],
                         controller="nonsense")

    def test_standard_regimes_cover_the_three_scenarios(self):
        regimes = standard_regimes()
        assert set(regimes) == {"archival_cold", "write_hot",
                                "aged_device"}
        assert regimes["archival_cold"].dwell_us_per_step \
            > regimes["write_hot"].dwell_us_per_step
        assert regimes["write_hot"].cycles_per_step \
            > regimes["archival_cold"].cycles_per_step
        assert regimes["aged_device"].initial_cycles > 0

    def test_same_seed_reproduces_the_trajectory(self):
        def run_once():
            r = simulate_regime("aged_device", "programmable", seed=7,
                                max_steps=60)
            return (r.steps_run, r.probe_reads, r.uncorrectable_reads,
                    r.host_accesses, r.reliability.error_bits,
                    r.controller_stats.ecc_reconfigs,
                    r.controller_stats.density_reconfigs)

        assert run_once() == run_once()

    def test_adaptive_controller_outlives_fixed_ecc(self):
        """The acceptance headline: in every regime the programmable
        controller sustains more host accesses than BCH-1 before total
        failure (checked on the fastest regime here; the full three-way
        comparison is the fig13 sweep)."""
        adaptive = simulate_regime("write_hot", "programmable", seed=42,
                                   max_steps=120)
        fixed = simulate_regime("write_hot", "bch1", seed=42,
                                max_steps=120)
        assert not fixed.survived
        assert adaptive.host_accesses > fixed.host_accesses

    def test_scrub_reduces_uncorrectable_errors_on_cold_data(self):
        scrub = ScrubConfig(interval_us=5e9, min_age_us=1e10)
        unscrubbed = simulate_regime("archival_cold", "programmable",
                                     seed=42, max_steps=150)
        scrubbed = simulate_regime("archival_cold", "programmable",
                                   seed=42, max_steps=150, scrub=scrub)
        assert scrubbed.scrub is not None
        assert scrubbed.scrub.blocks_refreshed > 0
        assert scrubbed.uncorrectable_reads \
            < unscrubbed.uncorrectable_reads
        assert scrubbed.uber < unscrubbed.uber

    def test_simulator_charges_scrub_traffic_to_the_device(self):
        config = RegimeConfig(
            regime=standard_regimes()["archival_cold"], seed=42,
            max_steps=60, scrub=ScrubConfig(interval_us=5e9,
                                            min_age_us=1e10))
        simulator = RegimeSimulator(config)
        result = simulator.run()
        assert result.scrub is not None
        if result.scrub.blocks_refreshed:
            assert result.scrub.scrub_reads > 0
            assert result.scrub.page_rewrites > 0
            assert result.scrub.busy_us > 0.0

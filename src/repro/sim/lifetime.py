"""Accelerated (event-driven) Flash aging simulation (Figures 11 and 12).

Figure 12 measures the number of host accesses a Flash based disk cache
survives before *total failure* (every block retired), comparing the
programmable controller against a fixed BCH-1 controller; Figure 11 breaks
down which repair the programmable controller chose (stronger ECC vs
MLC->SLC) per workload.  Simulating 10^5..10^6 W/E cycles page by page is
infeasible, so this module replays the controller's *reliability events*
exactly and skips the uneventful cycles in between:

* Global wear-leveling spreads erases uniformly over live blocks, so all
  frames age at the same W/E-cycle rate; each block erase absorbs one
  block's worth of page writes, converting cycles to host page-writes via
  the live capacity (as blocks retire, survivors age faster).
* A frame's next reliability event is the damage level at which its raw
  error count reaches its current ECC strength — available in closed form
  from the device's order-statistic failure sampler
  (:meth:`~repro.flash.device.FlashDevice.next_error_damage`), divided by
  the mode's read sensitivity.
* At each event the *real* controller policy runs
  (:meth:`~repro.core.controller.ProgrammableFlashController.choose_repair`
  via the fault-response path), fed per-frame access frequencies sampled
  from the workload's popularity distribution over the cached (hottest)
  half of the working set — Figure 11's configuration sets the Flash to
  half the working-set size.

The result records host accesses to total failure, the event log, and the
controller's reconfiguration statistics.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from random import Random
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.controller import (
    ControllerReadResult,
    ControllerStats,
    FixedEccController,
    ProgrammableFlashController,
)
from ..flash.device import FlashDevice
from ..parallel import derive_seed
from ..flash.geometry import FlashGeometry
from ..flash.timing import CellMode
from ..flash.wear import CellLifetimeModel, WearModelConfig
from ..reliability import (
    ReliabilityConfig,
    ReliabilityModel,
    ReliabilityStats,
    ScrubConfig,
    ScrubStats,
)
from ..workloads.macro import MACRO_WORKLOADS, _MICRO_SPECS, MacroWorkloadSpec
from ..workloads.synthetic import SyntheticConfig

__all__ = ["AgingConfig", "AgingResult", "LifetimeSimulator",
           "simulate_lifetime", "lifetime_ratio",
           "ErrorRegime", "RegimeConfig", "RegimeResult",
           "RegimeSimulator", "simulate_regime", "standard_regimes"]

#: Footprints are scaled to at most this many pages for the aging runs;
#: popularity *shape* is preserved (exp rates are rescaled).
_MAX_AGING_FOOTPRINT_PAGES = 1 << 18


@dataclass(frozen=True)
class AgingConfig:
    """Configuration of one accelerated aging run."""

    workload: str = "alpha2"
    controller: str = "programmable"      # or "bch1"
    num_blocks: int = 16
    frames_per_block: int = 8
    cache_coverage: float = 0.5           # Flash = half the working set
    stdev_frac: float = 0.05
    seed: int = 42
    max_events: int = 200_000

    def __post_init__(self) -> None:
        if self.controller not in ("programmable", "bch1"):
            raise ValueError("controller must be 'programmable' or 'bch1'")
        if not 0.0 < self.cache_coverage <= 1.0:
            raise ValueError("cache_coverage must be in (0, 1]")
        if self.num_blocks < 1 or self.frames_per_block < 1:
            raise ValueError("geometry must be non-trivial")


@dataclass
class AgingResult:
    """Outcome of an accelerated aging run."""

    config: AgingConfig
    host_accesses_to_failure: float
    page_writes_to_failure: float
    erase_cycles_to_failure: float
    events: int
    controller_stats: ControllerStats
    half_capacity_accesses: Optional[float] = None
    first_choices: Dict[str, int] = field(default_factory=dict)

    @property
    def reconfig_breakdown(self) -> Dict[str, float]:
        """Lifetime-wide descriptor-update mix."""
        return self.controller_stats.reconfig_breakdown()

    @property
    def early_reconfig_breakdown(self) -> Dict[str, float]:
        """Figure 11's quantity: the decision mix "near the point where
        the Flash cells start to fail" — each frame's *first*
        reconfiguration, before forced late-life ECC escalation dilutes
        the signal."""
        total = sum(self.first_choices.values())
        if total == 0:
            return {"code_strength": 0.0, "density": 0.0}
        return {
            "code_strength": self.first_choices.get("code_strength", 0) / total,
            "density": self.first_choices.get("density", 0) / total,
        }


def _workload_profile(name: str) -> Tuple[int, float, tuple]:
    """(footprint pages, write fraction, tail spec) for any Table 4 name."""
    if name in MACRO_WORKLOADS:
        spec = MACRO_WORKLOADS[name]
        return spec.footprint_pages, 1.0 - spec.read_fraction, spec.tail
    if name in _MICRO_SPECS:
        return (SyntheticConfig().footprint_pages, 0.1, _MICRO_SPECS[name])
    raise KeyError(f"unknown workload {name!r}")


#: Accesses the primed FGST stands for; its hit share is the steady-state
#: hit rate the repair heuristic weighs a density reduction against.
_PRIMED_ACCESSES = 1_000_000


class _AgingCore:
    """The device, controller and steady-state tables both aging
    simulators age, and the probe read that replays the controller's
    fault response.

    ``config`` is an :class:`AgingConfig` or a :class:`RegimeConfig`;
    both carry the geometry, wear spread, seed and controller choice.
    ``reliability`` attaches the error-process model to the device.
    """

    def __init__(self, config: AgingConfig | RegimeConfig,
                 reliability: Optional[ReliabilityModel] = None) -> None:
        geometry = FlashGeometry(
            frames_per_block=config.frames_per_block,
            num_blocks=config.num_blocks,
        )
        lifetime_model = CellLifetimeModel(
            WearModelConfig(stdev_frac=config.stdev_frac,
                            cells_per_page=geometry.cells_per_frame))
        self.device = FlashDevice(
            geometry=geometry,
            lifetime_model=lifetime_model,
            initial_mode=CellMode.MLC,
            seed=config.seed,
            reliability=reliability,
        )
        if config.controller == "programmable":
            self.controller = ProgrammableFlashController(self.device)
        else:
            self.controller = FixedEccController(self.device, strength=1)
        self._num_blocks = config.num_blocks
        self._frames_per_block = config.frames_per_block
        self._frame_freq: Dict[Tuple[int, int], int] = {}
        #: Each frame's *first* reconfiguration, counted by kind.
        self.first_choices: Dict[str, int] = {}
        self._decided: Set[Tuple[int, int]] = set()

    def _prime(self, hits: int, marginal_miss: float,
               draw_count: Callable[[], int]) -> None:
        """Install the steady-state context the repair heuristic reads:
        FGST statistics with ``hits`` of :data:`_PRIMED_ACCESSES` hits,
        the marginal page's miss cost, and every frame's representative
        page valid with an access count from ``draw_count`` (drawn in
        block-major order)."""
        fgst = self.controller.fgst
        fgst.hits = hits
        fgst.misses = _PRIMED_ACCESSES - hits
        fgst.total_accesses = _PRIMED_ACCESSES
        fgst.avg_hit_latency_us = self.device.timing.mlc_read_us
        fgst.avg_miss_penalty_us = 4200.0
        self.controller.marginal_miss_estimate = marginal_miss
        for block in range(self._num_blocks):
            for frame in range(self._frames_per_block):
                self._frame_freq[(block, frame)] = draw_count()
            self._restore_block_entries(block)

    def _restore_block_entries(self, block: int) -> None:
        """Re-mark the block's representative pages valid at their primed
        access counts (steady-state rewrite traffic immediately
        repopulates an erased block)."""
        entry_of = self.controller.fpst.entry
        page_number = self.device.geometry.page_number
        for frame in range(self._frames_per_block):
            entry = entry_of(page_number(block, frame))
            entry.valid = True
            entry.access_count = self._frame_freq[(block, frame)]

    def _probe(self, block: int, frame: int) -> ControllerReadResult:
        """Read a frame's representative page through the real controller
        at its primed access count, count the frame's first
        reconfiguration, and erase the block when the read pended a
        density change (which takes effect only at the erase)."""
        controller = self.controller
        page = self.device.geometry.page_number(block, frame)
        controller.fpst.entry(page).access_count = \
            self._frame_freq[(block, frame)]
        result = controller.read(page)
        reconfig = result.reconfig
        if reconfig is not None and (block, frame) not in self._decided:
            self._decided.add((block, frame))
            self.first_choices[reconfig.value] = \
                self.first_choices.get(reconfig.value, 0) + 1
        if ((reconfig is not None or not result.recovered)
                and controller.has_pending_density_change(block, frame)):
            controller.erase(block)
            self._restore_block_entries(block)
        return result


class LifetimeSimulator(_AgingCore):
    """Event-driven Flash aging for one (workload, controller) pair."""

    def __init__(self, config: AgingConfig):
        super().__init__(config)
        self.config = config
        footprint, write_fraction, tail = _workload_profile(config.workload)
        self.write_fraction = max(write_fraction, 1e-3)
        # Scale the footprint for tractable popularity tables, preserving
        # the tail shape (exp rate scales inversely with footprint).
        scale = 1.0
        if footprint > _MAX_AGING_FOOTPRINT_PAGES:
            scale = footprint / _MAX_AGING_FOOTPRINT_PAGES
            footprint = _MAX_AGING_FOOTPRINT_PAGES
        if tail[0] == "exp":
            tail = ("exp", tail[1] * scale)
        self.footprint_pages = footprint
        spec = MacroWorkloadSpec(
            name=config.workload, description="aging profile",
            footprint_bytes=footprint * 2048,
            read_fraction=1.0 - self.write_fraction, tail=tail)
        self.distribution = spec.make_distribution(footprint)
        self._prime_from_popularity()

    # -- setup -------------------------------------------------------------------

    def _prime_from_popularity(self) -> None:
        """Prime the tables from the workload's popularity.

        Frames hold the hottest ``cache_coverage`` share of the working
        set; each frame's representative page gets an access frequency
        sampled from the popularity of that cached range, and the FGST
        carries the corresponding miss rate and latencies.
        """
        cfg = self.config
        distribution = self.distribution
        cached_pages = max(int(self.footprint_pages * cfg.cache_coverage), 1)
        # The FPST-priming stream must be independent of the device's own
        # wear stream (both flow from cfg.seed); derive it instead of the
        # old ``seed + 1``, which is the fig9 drift pattern SIM002 bans.
        rng = Random(derive_seed(cfg.seed, "lifetime:fpst-prime"))
        cached_mass = 0.0
        # Cumulative popularity of the cached range, sampled (the exact sum
        # over millions of ranks is unnecessary for the heuristic).
        probe = max(cached_pages // 4096, 1)
        for rank in range(0, cached_pages, probe):
            cached_mass += distribution.rank_probability(rank) * probe
        cached_mass = min(cached_mass, 1.0)

        # Frames are assigned popularity ranks drawn from the access
        # distribution itself (not uniformly): descriptor updates are
        # observed on reads, so frequently accessed pages dominate the
        # update mix — the effect behind Figure 11's tail-length trend.
        def draw_count() -> int:
            rank = distribution.sample_rank(rng.random())
            rank = min(rank, cached_pages - 1)
            return int(distribution.rank_probability(rank)
                       * _PRIMED_ACCESSES)

        # The marginal-page miss cost the heuristic compares against: the
        # popularity of the least popular *cached* page (what the cache
        # would lose to a density reduction).
        marginal_rank = min(cached_pages, self.footprint_pages - 1)
        self._prime(int(_PRIMED_ACCESSES * cached_mass),
                    distribution.rank_probability(marginal_rank),
                    draw_count)

    # -- event mechanics ------------------------------------------------------------

    def _frame_strength(self, block: int, frame: int) -> int:
        return self.controller.fpst.entry(
            self.device.geometry.page_number(block, frame)).ecc_strength

    def _trigger_cycle(self, block: int, frame: int) -> float:
        """W/E cycle count at which this frame next reaches its ECC limit."""
        strength = self._frame_strength(block, frame)
        damage = self.device.next_error_damage(block, frame, strength - 1)
        sensitivity = self.device.frame_read_sensitivity(block, frame)
        # Nudge past the exact threshold so the replayed read definitely
        # observes the failure (guards against float-division rounding
        # landing one ulp short, which would re-enqueue the same event
        # forever).
        return damage / sensitivity * (1.0 + 1e-9) + 1e-9

    def _live_capacity_pages(self) -> int:
        total = 0
        for block in self.controller.fbst.live_blocks():
            total += self.device.block_capacity_pages(block)
        return total

    def run(self) -> AgingResult:
        """Age the device to total failure; returns the lifetime record."""
        cfg = self.config
        heap: List[Tuple[float, int, int]] = []
        for block in range(cfg.num_blocks):
            for frame in range(cfg.frames_per_block):
                heapq.heappush(
                    heap, (self._trigger_cycle(block, frame), block, frame))

        cycle = 0.0
        page_writes = 0.0
        half_capacity_writes: Optional[float] = None
        initial_capacity = self._live_capacity_pages()
        events = 0
        while heap and not self.controller.all_blocks_retired:
            events += 1
            if events > cfg.max_events:
                raise RuntimeError(
                    "aging simulation exceeded max_events; the policy is "
                    "likely oscillating")
            trigger, block, frame = heapq.heappop(heap)
            if self.controller.is_retired(block):
                continue
            if math.isinf(trigger):
                break
            if trigger > cycle:
                live_pages = self._live_capacity_pages()
                delta = trigger - cycle
                page_writes += delta * live_pages
                # Deposit the elapsed damage in every live block.
                for live in self.controller.fbst.live_blocks():
                    self.device.age_block(live, delta)
                cycle = trigger
            # The frame has reached its correction limit: replay the
            # controller's fault response via a real (zero-extra-damage)
            # read of the representative page.
            self._probe(block, frame)
            if self.controller.is_retired(block):
                capacity = self._live_capacity_pages()
                if (half_capacity_writes is None
                        and capacity <= initial_capacity / 2):
                    half_capacity_writes = page_writes
                continue
            heapq.heappush(
                heap, (self._trigger_cycle(block, frame), block, frame))

        host_accesses = page_writes / self.write_fraction
        return AgingResult(
            config=cfg,
            host_accesses_to_failure=host_accesses,
            page_writes_to_failure=page_writes,
            erase_cycles_to_failure=cycle,
            events=events,
            controller_stats=self.controller.stats,
            half_capacity_accesses=(
                half_capacity_writes / self.write_fraction
                if half_capacity_writes is not None else None),
            first_choices=self.first_choices,
        )


def simulate_lifetime(workload: str, controller: str = "programmable",
                      seed: int = 42, **overrides) -> AgingResult:
    """One-call aging run for a Table 4 workload."""
    config = AgingConfig(workload=workload, controller=controller,
                         seed=seed, **overrides)
    return LifetimeSimulator(config).run()


def lifetime_ratio(workload: str, seed: int = 42, **overrides) -> float:
    """Programmable-vs-BCH1 lifetime improvement (the Figure 12 metric)."""
    programmable = simulate_lifetime(workload, "programmable", seed,
                                     **overrides)
    fixed = simulate_lifetime(workload, "bch1", seed, **overrides)
    if fixed.host_accesses_to_failure == 0:
        raise RuntimeError("baseline lifetime is zero")
    return (programmable.host_accesses_to_failure
            / fixed.host_accesses_to_failure)


# ---------------------------------------------------------------------------
# Error-regime simulation (physics-driven robustness studies)
# ---------------------------------------------------------------------------
#
# The event-driven :class:`LifetimeSimulator` above replays only *wear*
# (it skips the uneventful cycles between ECC-limit crossings, which is
# exactly what makes it fast and exactly why it cannot see time-dependent
# error processes).  The regime simulator below takes the complementary
# approach: a coarse time-stepped loop with the full
# :class:`~repro.reliability.ReliabilityModel` attached to the device, so
# retention, read disturb, program interference, and process variation
# all act on every probe read — and the scrub countermeasure
# (:meth:`~repro.core.controller.ProgrammableFlashController.refresh_block`)
# can fight back.  Each *step* stands for a fixed slab of real operation:
# so many W/E cycles of write traffic per live frame, so many reads, so
# much idle dwell time on the device clock.


@dataclass(frozen=True)
class ErrorRegime:
    """One operating point of the error physics (a Figure-13 column).

    A regime bundles the :class:`~repro.reliability.ReliabilityConfig`
    rates with the traffic pattern that excites them: write heat
    (``cycles_per_step``), read pressure (``reads_per_frame_per_step``),
    neighbour-write interference, retention dwell, and how old the
    device already is (``initial_cycles``).
    """

    name: str
    reliability: ReliabilityConfig
    #: W/E cycles every live frame accumulates per step (write heat;
    #: wear-leveling spreads writes uniformly, as in the aging model).
    cycles_per_step: float = 0.0
    #: Reads each live frame absorbs per step (read-disturb pressure)
    #: *on top of* the probe read the simulator issues itself.
    reads_per_frame_per_step: int = 0
    #: Neighbour programs deposited per frame per step (interference).
    neighbor_programs_per_step: int = 0
    #: Device idle time (us) added per step (retention exposure).
    dwell_us_per_step: float = 0.0
    #: P/E cycles pre-loaded into every block before the run starts
    #: (an already-aged device).
    initial_cycles: float = 0.0
    #: Host write share, converting page writes to host accesses.
    write_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.cycles_per_step < 0 or self.initial_cycles < 0:
            raise ValueError("cycle counts must be non-negative")
        if (self.reads_per_frame_per_step < 0
                or self.neighbor_programs_per_step < 0):
            raise ValueError("per-step event counts must be non-negative")
        if self.dwell_us_per_step < 0:
            raise ValueError("dwell_us_per_step must be non-negative")
        if not 0.0 < self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in (0, 1]")


def standard_regimes() -> Dict[str, ErrorRegime]:
    """The three canonical regimes of the fig13 sweep.

    Rates are tuned so expected raw error counts per frame read
    (``RBER * ~16.9k cells``) traverse the controller's t in [1, 12]
    BCH window over a run — low enough to start correctable, high
    enough to force repair decisions.
    """
    return {
        # Cold data sitting on a mostly idle device: essentially no
        # write traffic, so nothing refreshes naturally and retention
        # dominates.  Scrubbing is the only thing standing between this
        # regime and uncorrectable rot.
        "archival_cold": ErrorRegime(
            name="archival_cold",
            reliability=ReliabilityConfig(
                base_rber=1e-6,
                retention_rber_per_unit=3e-6,
                retention_unit_us=1e9,
                read_disturb_rber_per_read=1e-8,
                block_sigma=0.3,
            ),
            cycles_per_step=0.05,
            reads_per_frame_per_step=1,
            dwell_us_per_step=2e9,
            write_fraction=0.02,
        ),
        # A write-hot tenant: heavy program traffic ages cells fast and
        # sprays interference, but also rewrites data constantly, so
        # retention never accumulates.  Wear is what kills here — the
        # regime where the adaptive controller's repair ladder pays.
        "write_hot": ErrorRegime(
            name="write_hot",
            reliability=ReliabilityConfig(
                base_rber=1e-6,
                retention_rber_per_unit=1e-7,
                retention_unit_us=1e9,
                read_disturb_rber_per_read=5e-9,
                interference_rber_per_program=2e-8,
                wear_accel=2.0,
                block_sigma=0.3,
            ),
            cycles_per_step=40.0,
            reads_per_frame_per_step=4,
            neighbor_programs_per_step=4,
            dwell_us_per_step=1e8,
            write_fraction=0.6,
        ),
        # A device already most of the way through its rated endurance:
        # moderate mixed traffic, but the wear acceleration factor
        # multiplies every other error process from step one.
        "aged_device": ErrorRegime(
            name="aged_device",
            reliability=ReliabilityConfig(
                base_rber=1e-6,
                retention_rber_per_unit=8e-7,
                retention_unit_us=1e9,
                read_disturb_rber_per_read=1e-8,
                interference_rber_per_program=1e-8,
                wear_accel=2.5,
                block_sigma=0.3,
            ),
            cycles_per_step=10.0,
            reads_per_frame_per_step=2,
            neighbor_programs_per_step=1,
            dwell_us_per_step=5e8,
            initial_cycles=7_000.0,
            write_fraction=0.3,
        ),
    }


@dataclass(frozen=True)
class RegimeConfig:
    """Configuration of one error-regime run."""

    regime: ErrorRegime
    controller: str = "programmable"      # or "bch1"
    num_blocks: int = 8
    frames_per_block: int = 4
    stdev_frac: float = 0.05
    seed: int = 42
    max_steps: int = 400
    #: Scrub policy; ``None`` disables background refresh.
    scrub: Optional[ScrubConfig] = None

    def __post_init__(self) -> None:
        if self.controller not in ("programmable", "bch1"):
            raise ValueError("controller must be 'programmable' or 'bch1'")
        if self.num_blocks < 1 or self.frames_per_block < 1:
            raise ValueError("geometry must be non-trivial")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class RegimeResult:
    """Outcome of one error-regime run."""

    config: RegimeConfig
    steps_run: int
    host_accesses: float
    page_writes: float
    erase_cycles: float
    probe_reads: int
    uncorrectable_reads: int
    #: True when the device outlived ``max_steps`` (did not totally fail).
    survived: bool
    controller_stats: ControllerStats
    reliability: ReliabilityStats
    scrub: Optional[ScrubStats] = None
    first_choices: Dict[str, int] = field(default_factory=dict)

    @property
    def uber(self) -> float:
        """Uncorrectable bit error rate: uncorrectable reads per bit
        read (the denominator counts every controller read's cells)."""
        if self.probe_reads == 0:
            return 0.0
        return (self.uncorrectable_reads
                / (self.probe_reads * _REGIME_CELLS_PER_FRAME))

    @property
    def repair_breakdown(self) -> Dict[str, float]:
        """Lifetime-wide repair-choice mix (ECC vs density)."""
        return self.controller_stats.reconfig_breakdown()


#: Bits per frame under the default 2048+64-byte page geometry — the
#: UBER denominator's per-read bit count.
_REGIME_CELLS_PER_FRAME = (2048 + 64) * 8


class RegimeSimulator(_AgingCore):
    """Time-stepped device aging under one error regime.

    Each step deposits the regime's traffic (wear cycles, reads,
    neighbour programs, dwell time) into the device and the reliability
    model, then issues one *real* probe read per live frame so the
    controller's retry ladder, ECC escalation, and density downgrades
    all respond to the physics.  Optionally a scrub pass (whole-block
    :meth:`~repro.core.controller.ProgrammableFlashController.refresh_block`)
    runs whenever the scrub interval elapses on the device clock.

    Determinism: the device, wear model, and reliability model all seed
    their streams from ``config.seed`` via ``derive_seed``; the step
    loop itself consumes no randomness, so one (regime, controller,
    seed) triple always produces the same trajectory.
    """

    def __init__(self, config: RegimeConfig):
        regime = config.regime
        # Rebase the model's stream on the run seed so regime sweeps over
        # seeds decorrelate, while the regime's rates stay authoritative.
        self.model = ReliabilityModel(replace(
            regime.reliability,
            seed=derive_seed(config.seed, f"regime:{regime.name}")))
        super().__init__(config, reliability=self.model)
        self.config = config
        # Steady-state context: a 90 % hit rate, seeded access counts,
        # and any pre-existing age the regime specifies.
        rng = Random(derive_seed(config.seed, "regime:fpst-prime"))
        self._prime(900_000, 1e-4, lambda: rng.randrange(100, 10_000))
        if regime.initial_cycles > 0:
            for block in range(config.num_blocks):
                self.device.age_block(block, regime.initial_cycles)

    def _live_blocks(self) -> List[int]:
        return list(self.controller.fbst.live_blocks())

    def run(self) -> RegimeResult:
        cfg = self.config
        regime = cfg.regime
        controller = self.controller
        device = self.device
        model = self.model
        scrub_stats = ScrubStats() if cfg.scrub is not None else None
        last_scrub_us = 0.0
        cycles_since_rewrite = 0.0
        page_writes = 0.0
        erase_cycles = 0.0
        probe_reads = 0
        uncorrectable = 0
        steps = 0

        for _ in range(cfg.max_steps):
            if controller.all_blocks_retired:
                break
            steps += 1
            live = self._live_blocks()
            # -- deposit this step's traffic into the physics ------------
            if regime.cycles_per_step > 0:
                live_pages = 0
                for block in live:
                    live_pages += device.block_capacity_pages(block)
                    device.age_block(block, regime.cycles_per_step)
                page_writes += regime.cycles_per_step * live_pages
                erase_cycles += regime.cycles_per_step
            if regime.dwell_us_per_step > 0:
                device.advance_clock(regime.dwell_us_per_step)
            if (regime.reads_per_frame_per_step
                    or regime.neighbor_programs_per_step):
                for block in live:
                    for frame in range(cfg.frames_per_block):
                        model.accumulate(
                            block, frame,
                            reads=regime.reads_per_frame_per_step,
                            neighbor_programs=(
                                regime.neighbor_programs_per_step))
            # Steady-state rewrite traffic refreshes data roughly once
            # per full W/E cycle of writes: a write-hot regime never
            # accumulates retention age, an archival one always does.
            cycles_since_rewrite += regime.cycles_per_step
            if cycles_since_rewrite >= 1.0:
                cycles_since_rewrite = 0.0
                for block in live:
                    model.note_erase(block, device.clock_us,
                                     cfg.frames_per_block)
            # -- probe reads: the controller sees the physics ------------
            for block in live:
                if controller.is_retired(block):
                    continue
                for frame in range(cfg.frames_per_block):
                    entry = controller.fpst.get(
                        device.geometry.page_number(block, frame))
                    if entry is None or not entry.valid:
                        continue
                    probe_reads += 1
                    if not self._probe(block, frame).recovered:
                        uncorrectable += 1
                    if controller.is_retired(block):
                        break
            # -- scrub countermeasure ------------------------------------
            if (cfg.scrub is not None
                    and device.clock_us - last_scrub_us
                    >= cfg.scrub.interval_us):
                last_scrub_us = device.clock_us
                self._scrub_pass(scrub_stats)

        host_accesses = page_writes / regime.write_fraction
        return RegimeResult(
            config=cfg,
            steps_run=steps,
            host_accesses=host_accesses,
            page_writes=page_writes,
            erase_cycles=erase_cycles,
            probe_reads=probe_reads,
            uncorrectable_reads=uncorrectable,
            survived=not controller.all_blocks_retired,
            controller_stats=controller.stats,
            reliability=model.stats,
            scrub=scrub_stats,
            first_choices=self.first_choices,
        )

    def _scrub_pass(self, stats: Optional[ScrubStats]) -> None:
        """Refresh every live block whose representative data has aged
        past the scrub threshold (whole-block in-place refresh)."""
        assert stats is not None
        cfg = self.config
        scrub = cfg.scrub
        assert scrub is not None
        controller = self.controller
        device = self.device
        model = self.model
        stats.passes += 1
        budget = scrub.max_pages_per_pass
        for block in self._live_blocks():
            if budget <= 0 or controller.is_retired(block):
                continue
            stats.pages_scanned += cfg.frames_per_block
            age_us = model.retention_age_us(block, 0, device.clock_us)
            if age_us < scrub.min_age_us:
                continue
            budget -= cfg.frames_per_block
            reads_before = device.stats.reads
            programs_before = device.stats.programs
            uncorrectable_before = controller.stats.uncorrectable_reads
            elapsed = controller.refresh_block(block)
            stats.scrub_reads += device.stats.reads - reads_before
            stats.page_rewrites += device.stats.programs - programs_before
            stats.uncorrectable_found += (
                controller.stats.uncorrectable_reads - uncorrectable_before)
            stats.busy_us += elapsed
            if not controller.is_retired(block):
                stats.blocks_refreshed += 1
                self._restore_block_entries(block)


def simulate_regime(regime: ErrorRegime | str,
                    controller: str = "programmable",
                    seed: int = 42, **overrides) -> RegimeResult:
    """One-call regime run; ``regime`` may be a standard-regime name."""
    if isinstance(regime, str):
        regime = standard_regimes()[regime]
    config = RegimeConfig(regime=regime, controller=controller,
                          seed=seed, **overrides)
    return RegimeSimulator(config).run()

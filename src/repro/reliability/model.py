"""Physics-grounded NAND error-process model (robustness studies).

The event-style :mod:`repro.faults` injector covers *discrete* failures
(read-disturb bursts, program/erase status faults, infant mortality);
this module covers the slow error physics that actually drives the
paper's adaptive controller, following the error taxonomy of Luo's
thesis ("Architectural Techniques for Improving NAND Flash Memory
Reliability", PAPERS.md):

* **wear** — the raw bit error rate (RBER) grows polynomially with P/E
  cycles; the per-frame damage the wear model already tracks feeds a
  ``(1 + damage/spec_cycles) ** wear_accel`` acceleration factor;
* **retention** — charge leaks while data sits: RBER grows with the
  *device-time* age of the data since it was programmed, and faster on
  worn cells (retention loss dominates end-of-life error budgets);
* **read disturb** — every read of a frame weakly programs it; errors
  accumulate with the read count since the last program;
* **program interference** — programming a page shifts the threshold
  voltages of already-programmed neighbour frames;
* **process variation** — blocks are not born equal: each block carries
  a lognormal RBER multiplier drawn from the seed alone.

Determinism contract (the same one :class:`~repro.faults.FaultInjector`
honours): every random quantity flows from an independent
``derive_seed``-keyed stream.  The per-block multiplier is a pure
function of (seed, block); per-frame error draws come from the frame's
own ``Random(derive_seed(seed, "reliability:frame:{block}:{frame}"))``
stream, so the error counts a frame observes depend only on the seed and
on that frame's own operation history — never on the order other frames
were touched — which makes results identical at any sweep worker count.

State layout: each block the model hears of gets one row with a slot
per frame, and a slot holds the frame's whole history — programmed-at
time, reads since program, neighbour programs — and its pending
uniforms, so a read does one lookup.  A frame is read only a few times,
so a slot does not keep a whole generator: it takes its stream's first
:data:`_UNIFORM_BLOCK` uniforms and drops the generator.  A frame that
uses all of them rebuilds its generator, skips the uniforms already
used, and keeps the generator from then on.  The frame sees exactly the
uniforms, in the same order, that one generator kept for its whole life
would give.

The model *composes with* the injector: :class:`~repro.flash.device.
FlashDevice` adds the model's error count to the wear-sampler and
injector errors on every read.  ``None`` (the default everywhere)
changes nothing, so every pre-existing figure stays byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence

from ..flash.geometry import DEFAULT_GEOMETRY
from ..flash.timing import CellMode
from ..parallel import derive_seed

__all__ = ["ReliabilityConfig", "ReliabilityStats", "ReliabilityModel"]

#: Above this expected error count a read is deeply uncorrectable (the
#: hardware tops out at t=12); the Poisson draw is replaced by its
#: rounded mean, which avoids pathological Knuth-loop lengths without
#: changing any reachable decode outcome.
_POISSON_MEAN_LIMIT = 64.0

#: Uniforms a frame's slot takes from its stream at a time.  Frames are
#: read about twice on average and a draw below the bulk limit uses
#: ``count + 1`` uniforms, so most frames never need a second block.
_UNIFORM_BLOCK = 8


@dataclass(frozen=True)
class ReliabilityConfig:
    """Error-process rates and shapes; all rates default to zero.

    RBER contributions are per-bit probabilities and must lie in
    ``[0, 1]`` — the same bound :class:`~repro.faults.FaultConfig`
    enforces on its rates.
    """

    #: Per-bit error probability of fresh, unworn, just-programmed data.
    base_rber: float = 0.0
    #: Added RBER per ``retention_unit_us`` of data age.
    retention_rber_per_unit: float = 0.0
    #: Device time (us) of one retention unit.
    retention_unit_us: float = 1e9
    #: Added RBER per read of the frame since its last program.
    read_disturb_rber_per_read: float = 0.0
    #: Added RBER per program of a neighbouring frame.
    interference_rber_per_program: float = 0.0
    #: Rated P/E endurance anchoring the wear acceleration.
    spec_cycles: float = 10_000.0
    #: Exponent of the ``(1 + damage/spec_cycles)`` wear factor.
    wear_accel: float = 2.0
    #: Sigma of the per-block lognormal RBER multiplier (0 = identical
    #: blocks).
    block_sigma: float = 0.0
    #: MLC frames see this multiple of the SLC RBER (tighter margins).
    mlc_factor: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("base_rber", "retention_rber_per_unit",
                     "read_disturb_rber_per_read",
                     "interference_rber_per_program"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.retention_unit_us <= 0:
            raise ValueError("retention_unit_us must be positive")
        if self.spec_cycles <= 0:
            raise ValueError("spec_cycles must be positive")
        if self.wear_accel < 0:
            raise ValueError("wear_accel must be non-negative")
        if self.block_sigma < 0:
            raise ValueError("block_sigma must be non-negative")
        if self.mlc_factor < 1.0:
            raise ValueError("mlc_factor must be >= 1 (MLC is never "
                             "more robust than SLC)")

    @property
    def any_enabled(self) -> bool:
        return (self.base_rber > 0.0
                or self.retention_rber_per_unit > 0.0
                or self.read_disturb_rber_per_read > 0.0
                or self.interference_rber_per_program > 0.0)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "ReliabilityConfig":
        """One knob for sweeps and the CLI: ``rate`` is the base RBER;
        retention is an order of magnitude above it per unit (retention
        dominates end-of-life budgets), disturb and interference orders
        of magnitude below (they need thousands of events to matter)."""
        return cls(
            base_rber=rate,
            retention_rber_per_unit=min(rate * 10.0, 1.0),
            read_disturb_rber_per_read=rate / 100.0,
            interference_rber_per_program=rate / 50.0,
            block_sigma=0.35,
            seed=seed,
        )


@dataclass
class ReliabilityStats:
    """Counts of physics-modelled error activity on the read path."""

    modelled_reads: int = 0     # reads the model attached errors to
    error_bits: int = 0         # total raw bit errors contributed
    saturated_reads: int = 0    # reads whose expected errors hit the
    #                             Poisson bulk limit (deep wear-out)

    @property
    def bits_per_read(self) -> float:
        return (self.error_bits / self.modelled_reads
                if self.modelled_reads else 0.0)


class _FrameSlot:
    """Per-frame history the error processes integrate over, plus the
    frame's uniform stream."""

    __slots__ = ("programmed_at_us", "reads_since_program",
                 "neighbor_programs", "uniforms", "cursor", "rng")

    def __init__(self) -> None:
        self.programmed_at_us = 0.0
        self.reads_since_program = 0
        self.neighbor_programs = 0
        #: Uniforms taken from the frame's stream; ``cursor`` indexes the
        #: next unused one.
        self.uniforms: Sequence[float] = ()
        self.cursor = 0
        #: The frame's generator, kept once its first block ran out.
        self.rng: Optional[Random] = None


#: History of a frame no operation has touched.
_FRESH = _FrameSlot()


def _touch(row: List[Optional[_FrameSlot]], frame: int) -> _FrameSlot:
    """Give a frame touched for the first time its slot."""
    slot = row[frame] = _FrameSlot()
    return slot


class ReliabilityModel:
    """Seeded, deterministic error-process model queried by the device.

    :class:`~repro.flash.device.FlashDevice` notifies the model of every
    program and erase (which reset a frame's retention/disturb history)
    and asks for an error count on every read.  The scrubbing policy
    (:mod:`repro.reliability.scrub`) reads the same state to pick
    refresh candidates without perturbing any RNG stream.
    """

    def __init__(self, config: ReliabilityConfig | None = None) -> None:
        self.config = config or ReliabilityConfig()
        self.stats = ReliabilityStats()
        self._block_mult: Dict[int, float] = {}
        self._wear: Dict[float, float] = {}
        self._frames_per_block = DEFAULT_GEOMETRY.frames_per_block
        #: block -> one slot per frame, ``None`` until the frame is first
        #: touched (an untouched frame has no history to erase).
        self._rows: Dict[int, List[Optional[_FrameSlot]]] = {}

    def attach(self, frames_per_block: int) -> None:
        """Size the per-block rows to the device's blocks (the device
        calls this when the model is attached to it)."""
        if self._rows and frames_per_block != self._frames_per_block:
            raise ValueError("the model already holds history for blocks "
                             f"of {self._frames_per_block} frames")
        self._frames_per_block = frames_per_block

    # -- per-block process variation -------------------------------------------

    def block_multiplier(self, block: int) -> float:
        """Lognormal RBER multiplier of ``block``.

        A pure function of (seed, block) — independent of query order —
        so sweeps that touch blocks in different orders still see the
        same weak and strong blocks.
        """
        cached = self._block_mult.get(block)
        if cached is None:
            sigma = self.config.block_sigma
            cached = 1.0
            if sigma > 0.0:
                block_seed = derive_seed(self.config.seed,
                                         f"reliability:block:{block}")
                cached = math.exp(sigma * Random(block_seed).gauss(0.0, 1.0))
            self._block_mult[block] = cached
        return cached

    # -- frame history ----------------------------------------------------------

    def _row(self, block: int) -> List[Optional[_FrameSlot]]:
        row = self._rows.get(block)
        if row is None:
            row = self._rows[block] = [None] * self._frames_per_block
        return row

    def _find(self, block: int, frame: int) -> _FrameSlot:
        """The frame's slot, or :data:`_FRESH` without creating one."""
        row = self._rows.get(block)
        return (row[frame] if row is not None else None) or _FRESH

    def note_program(self, block: int, frame: int, now_us: float) -> None:
        """A frame was programmed: its own history resets (fresh data),
        and already-written neighbour frames in the block absorb
        interference."""
        row = self._row(block)
        slot = row[frame] or _touch(row, frame)
        slot.programmed_at_us = now_us
        slot.reads_since_program = 0
        slot.neighbor_programs = 0
        if self.config.interference_rber_per_program > 0.0:
            if frame > 0:
                (row[frame - 1] or _touch(row, frame - 1)) \
                    .neighbor_programs += 1
            if frame + 1 < len(row):
                (row[frame + 1] or _touch(row, frame + 1)) \
                    .neighbor_programs += 1

    def note_erase(self, block: int, now_us: float, frames: int) -> None:
        """A block erase wipes every frame's accumulated error history."""
        row = self._rows.get(block)
        if row is None:
            return
        for slot in row[:frames]:
            if slot is None:
                continue
            slot.programmed_at_us = now_us
            slot.reads_since_program = 0
            slot.neighbor_programs = 0

    def accumulate(self, block: int, frame: int, reads: int = 0,
                   neighbor_programs: int = 0) -> None:
        """Bulk history deposit for accelerated simulations: account for
        ``reads`` reads and ``neighbor_programs`` neighbour programs
        without replaying each operation."""
        row = self._row(block)
        slot = row[frame] or _touch(row, frame)
        slot.reads_since_program += reads
        slot.neighbor_programs += neighbor_programs

    def retention_age_us(self, block: int, frame: int,
                         now_us: float) -> float:
        """Device-time age of the frame's data (scrub candidate signal)."""
        return max(now_us - self._find(block, frame).programmed_at_us, 0.0)

    # -- error process ----------------------------------------------------------

    def expected_rber(self, block: int, frame: int, damage: float,
                      mode: CellMode, now_us: float) -> float:
        """Deterministic expected RBER of a read right now (no RNG
        consumed — safe for scrub policy and tests to poll)."""
        return self._rber(self._find(block, frame), block, damage, mode,
                          now_us)

    def _rber(self, slot: _FrameSlot, block: int, damage: float,
              mode: CellMode, now_us: float) -> float:
        cfg = self.config
        age_us = max(now_us - slot.programmed_at_us, 0.0)
        wear = self._wear.get(damage)
        if wear is None:
            wear = self._wear[damage] = (
                (1.0 + max(damage, 0.0) / cfg.spec_cycles) ** cfg.wear_accel)
        rber = (cfg.base_rber
                + cfg.retention_rber_per_unit
                * (age_us / cfg.retention_unit_us)
                + cfg.read_disturb_rber_per_read * slot.reads_since_program
                + cfg.interference_rber_per_program
                * slot.neighbor_programs) * wear
        multiplier = self._block_mult.get(block)
        rber *= (multiplier if multiplier is not None
                 else self.block_multiplier(block))
        if mode is CellMode.MLC:
            rber *= cfg.mlc_factor
        return min(rber, 1.0)

    def read_errors(self, block: int, frame: int, damage: float,
                    mode: CellMode, now_us: float, cells: int) -> int:
        """Raw bit errors this read observes (Poisson around the expected
        count, from the frame's own uniform stream); the read then counts
        toward the frame's read disturb."""
        row = self._rows.get(block) or self._row(block)
        slot = row[frame] or _touch(row, frame)
        rber = self._rber(slot, block, damage, mode, now_us)
        slot.reads_since_program += 1
        if rber <= 0.0:
            return 0
        mean = rber * cells
        stats = self.stats
        if mean > _POISSON_MEAN_LIMIT:
            # Deeply uncorrectable either way; skip the O(mean) loop.
            stats.saturated_reads += 1
            count = int(round(mean))
        else:
            # Knuth's product method over the frame's uniforms.
            limit = math.exp(-mean)
            uniforms = slot.uniforms
            at = slot.cursor
            if at == len(uniforms):
                uniforms, at = self._refill(slot, block, frame), 0
            product = uniforms[at]
            at += 1
            count = 0
            while product > limit:
                count += 1
                if at == len(uniforms):
                    uniforms, at = self._refill(slot, block, frame), 0
                product *= uniforms[at]
                at += 1
            slot.cursor = at
        count = min(count, cells)
        stats.modelled_reads += 1
        stats.error_bits += count
        return count

    def _refill(self, slot: _FrameSlot, block: int,
                frame: int) -> List[float]:
        """Replace the slot's used-up uniforms with the next block of
        the frame's stream."""
        rng = slot.rng
        if rng is None:
            rng = Random(derive_seed(
                self.config.seed, f"reliability:frame:{block}:{frame}"))
            if slot.uniforms:
                # The first block ran out: skip it and keep the generator.
                for _ in slot.uniforms:
                    rng.random()
                slot.rng = rng
        draw = rng.random
        uniforms = slot.uniforms = [draw() for _ in range(_UNIFORM_BLOCK)]
        return uniforms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        return (f"ReliabilityModel(base={c.base_rber}, "
                f"retention={c.retention_rber_per_unit}/"
                f"{c.retention_unit_us}us, "
                f"disturb={c.read_disturb_rber_per_read}, "
                f"interference={c.interference_rber_per_program}, "
                f"sigma={c.block_sigma}, seed={c.seed})")

"""Functional dual-mode NAND Flash device simulator.

This is the silicon substrate under the paper's disk cache: a NAND array
with real NAND semantics —

* **erase-before-write**: a page programs exactly once per erase cycle;
  re-programming without an intervening block erase raises
  :class:`ProgramError` (this is the physical constraint that forces the
  cache layer into out-of-place writes and garbage collection);
* **block-granular erase**: pages share fate with their block;
* **per-frame density mode**: each page frame can be (re)configured as SLC
  (one page, fast, robust) or MLC (two pages, dense, fragile) when its
  block is erased, following the dual-mode designs of Cho et al. that the
  paper builds on (section 4.2);
* **wear**: every erase cycle deposits one damage unit in each frame; on a
  read, the number of raw bit errors equals the number of cells whose
  sampled failure threshold lies below the frame's *effective* damage —
  damage times an MLC read-margin sensitivity of 10x, which reproduces the
  Table 1 endurance gap (100k SLC vs 10k MLC cycles) and makes the
  MLC->SLC density switch a genuine reliability lever;
* **timing and energy**: every operation returns its Table 2/3 latency and
  accumulates active energy.

Payload storage is optional (``store_data=True``): functional ECC tests
store and corrupt real bytes, while the large trace-driven simulations run
metadata-only for speed.

Pages are addressed by page number (:meth:`FlashGeometry.page_number`).
Per-frame mode and damage and per-page state live in flat columns indexed
by frame key (``page >> 1``) and page number, so a page costs no Python
object; wear samplers and stored payloads are sparse dicts.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from random import Random
from typing import Dict, List, NamedTuple, Optional

from ..faults.injector import FaultInjector
from ..reliability.model import ReliabilityModel
from .geometry import FlashGeometry, PageAddress, DEFAULT_GEOMETRY
from .timing import (
    CellMode,
    FlashPower,
    FlashTiming,
    DEFAULT_FLASH_POWER,
    DEFAULT_FLASH_TIMING,
)
from .wear import CellLifetimeModel, PageFailureSampler

__all__ = [
    "FlashDeviceError",
    "ProgramError",
    "EraseError",
    "ProgramFailure",
    "EraseFailure",
    "PageState",
    "ReadResult",
    "ProgramResult",
    "EraseResult",
    "FlashStats",
    "FlashDevice",
    "MLC_READ_SENSITIVITY",
]


_SLC = CellMode.SLC

#: Effective-damage multiplier for MLC reads: MLC sensing margins are ~10x
#: tighter, which is exactly the Table 1 endurance ratio (100k/10k).
MLC_READ_SENSITIVITY = 10.0


class FlashDeviceError(Exception):
    """Base class for NAND protocol violations."""


class ProgramError(FlashDeviceError):
    """Raised when programming a page that is not in the erased state."""


class EraseError(FlashDeviceError):
    """Raised on invalid erase requests (e.g. bad block index)."""


class ProgramFailure(FlashDeviceError):
    """An otherwise-legal program operation reported a status failure.

    Unlike :class:`ProgramError` (a protocol violation by the caller),
    this models the NAND chip's own fail bit: the page frame is suspect
    and the data must be placed elsewhere.  The attempt still costs the
    full program latency, recorded in :attr:`latency_us`.
    """

    def __init__(self, page: int, address: PageAddress, latency_us: float):
        super().__init__(f"program failed at {address}")
        self.page = page
        self.latency_us = latency_us


class EraseFailure(FlashDeviceError):
    """A legal erase operation reported a status failure.

    Firmware convention (and the paper's block-retirement path) treats a
    failed erase as terminal for the block.  The attempt still costs the
    full erase latency, recorded in :attr:`latency_us`.
    """

    def __init__(self, block: int, latency_us: float):
        super().__init__(f"erase failed on block {block}")
        self.block = block
        self.latency_us = latency_us


class PageState:
    """Page lifecycle states (module-level constants, not an Enum, because
    the trace simulator touches these in hot loops)."""

    ERASED = 0
    PROGRAMMED = 1


class ReadResult(NamedTuple):
    """Outcome of a page read."""

    latency_us: float
    raw_bit_errors: int
    data: Optional[bytes]
    mode: CellMode


class ProgramResult(NamedTuple):
    latency_us: float
    mode: CellMode


class EraseResult(NamedTuple):
    latency_us: float
    erase_count: int


@dataclass
class FlashStats:
    """Cumulative operation counts, busy time (per kind), and energy."""

    reads: int = 0
    programs: int = 0
    erases: int = 0
    busy_us: float = 0.0
    read_busy_us: float = 0.0
    program_busy_us: float = 0.0
    erase_busy_us: float = 0.0
    energy_j: float = 0.0

    def record(self, latency_us: float, active_w: float,
               kind: str = "read") -> None:
        self.busy_us += latency_us
        if kind == "read":
            self.read_busy_us += latency_us
        elif kind == "program":
            self.program_busy_us += latency_us
        else:
            self.erase_busy_us += latency_us
        self.energy_j += active_w * latency_us * 1e-6

    def idle_energy(self, total_us: float, idle_w: float) -> float:
        """Idle energy over a wall-clock window of ``total_us``."""
        idle_us = max(total_us - self.busy_us, 0.0)
        return idle_w * idle_us * 1e-6


class FlashDevice:
    """The functional dual-mode NAND array.

    Parameters
    ----------
    geometry:
        Array dimensions; defaults to 2KB pages, 64-frame blocks.
    timing, power:
        Latency/power constants (Tables 2/3).
    lifetime_model:
        Wear model used to sample per-frame cell-failure thresholds.  Pass
        ``None`` to disable wear entirely (reads report zero raw errors) —
        useful for pure capacity/latency studies.
    initial_mode:
        Density mode every frame starts in (the paper's device boots MLC).
    store_data:
        Keep page payloads in memory so reads return real bytes.
    seed:
        Seed for the wear-threshold sampling RNG.
    soft_error_rate_per_bit:
        Probability of a *transient* (retention / read-disturb) bit error
        per cell per read.  Table 1 specifies 10-20 year retention, so the
        default is zero; reliability studies can raise it to exercise the
        ECC path with soft errors that, unlike wear-out, do not persist.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` consulted on every
        operation.  Injected faults surface as extra raw bit errors on
        reads, :class:`ProgramFailure`/:class:`EraseFailure` on writes and
        erases, and all-bits-bad reads from infant-mortality blocks.
        ``None`` (the default) changes nothing.
    reliability:
        Optional :class:`~repro.reliability.ReliabilityModel` adding
        physics-driven raw bit errors (retention, read disturb, program
        interference, process variation) to every read.  The device
        keeps a monotonic operation clock (:attr:`clock_us`) the model's
        retention term integrates over; composes with (does not replace)
        the wear sampler and the fault injector.  ``None`` (the default)
        changes nothing.
    """

    def __init__(
        self,
        geometry: FlashGeometry = DEFAULT_GEOMETRY,
        timing: FlashTiming = DEFAULT_FLASH_TIMING,
        power: FlashPower = DEFAULT_FLASH_POWER,
        lifetime_model: Optional[CellLifetimeModel] = None,
        initial_mode: CellMode = CellMode.MLC,
        store_data: bool = False,
        seed: int = 0,
        soft_error_rate_per_bit: float = 0.0,
        fault_injector: Optional[FaultInjector] = None,
        reliability: Optional[ReliabilityModel] = None,
    ):
        if soft_error_rate_per_bit < 0 or soft_error_rate_per_bit > 1:
            raise ValueError("soft_error_rate_per_bit must be in [0, 1]")
        self.geometry = geometry
        self.timing = timing
        self.power = power
        self.lifetime_model = lifetime_model
        self.initial_mode = initial_mode
        self.store_data = store_data
        self.soft_error_rate_per_bit = soft_error_rate_per_bit
        self.fault_injector = fault_injector
        self.reliability = reliability
        if reliability is not None:
            reliability.attach(geometry.frames_per_block)
        #: Monotonic device time (us): advances with every operation's
        #: latency plus any idle time the caller deposits via
        #: :meth:`advance_clock`.  The reliability model's retention
        #: term ages data against this clock.
        self.clock_us = 0.0
        self.stats = FlashStats()
        #: Optional :class:`repro.telemetry.Telemetry` handle.  ``None``
        #: (the default) keeps every operation on the historical code
        #: path; attaching costs one attribute check per operation.
        self.telemetry = None
        #: Optional op log: while it is a list, every read/program/erase
        #: appends its latency (us), including ones that raise a status
        #: failure — the plane was occupied either way.  The event
        #: engine sets one list for a whole run and places each
        #: request's ops on the channel/plane fabric from it; ``None``
        #: (the default) changes nothing.
        self.op_log: Optional[List[float]] = None
        self._rng = Random(seed)
        self._erase_counts: List[int] = [0] * geometry.num_blocks
        # Columns per frame key (``block * frames_per_block + frame``,
        # i.e. ``page >> 1``) and per page number.
        self._frames_per_block = geometry.frames_per_block
        frames = geometry.num_blocks * geometry.frames_per_block
        self._frame_count = frames
        self._modes: List[CellMode] = [initial_mode] * frames
        self._damage = array("d", [0.0]) * frames
        self._states = bytearray(2 * frames)  # PageState per page
        self._samplers: Dict[int, PageFailureSampler] = {}
        self._data: Dict[int, Optional[bytes]] = {}  # store_data only
        # Per-mode constants of the page ops and the erase, fixed at
        # construction: the hot paths pick one by testing ``mode is
        # _SLC``.  A page op's pair is (latency, energy), the energy
        # being the same ``active_w * latency * 1e-6`` the op books.
        mlc = CellMode.MLC

        def cost(latency_us: float) -> tuple[float, float]:
            return latency_us, power.active_w * latency_us * 1e-6

        self._slc_read = cost(timing.read_us(_SLC))
        self._mlc_read = cost(timing.read_us(mlc))
        self._slc_write = cost(timing.write_us(_SLC))
        self._mlc_write = cost(timing.write_us(mlc))
        self._slc_erase_us = timing.erase_us(_SLC)
        self._mlc_erase_us = timing.erase_us(mlc)

    # -- frame bookkeeping ----------------------------------------------------

    def _sampler(self, key: int) -> PageFailureSampler:
        sampler = self._samplers.get(key)
        if sampler is None:
            sampler = self._samplers[key] = PageFailureSampler(
                model=self.lifetime_model,  # type: ignore[arg-type]
                n_cells=self.geometry.cells_per_frame,
                rng=Random(self._rng.getrandbits(64)),
            )
        return sampler

    def _check_frame(self, block: int, frame: int) -> int:
        """The frame's key; ``IndexError`` when it is out of range."""
        if not (0 <= block < self.geometry.num_blocks
                and 0 <= frame < self._frames_per_block):
            raise IndexError(
                f"frame ({block}, {frame}) out of range (device has "
                f"{self.geometry.num_blocks} blocks of "
                f"{self._frames_per_block} frames)")
        return block * self._frames_per_block + frame

    def _check_page(self, page: int) -> None:
        """Raise ``IndexError``: ``page`` is not a page of the array under
        its frame's current mode (the page ops' slow path)."""
        if not 0 <= page < 2 * self._frame_count:
            raise IndexError(f"page {page} out of range (device has "
                             f"{2 * self._frame_count} page numbers)")
        self.geometry.validate_address(self.geometry.page_address(page),
                                       self._modes[page >> 1])

    def frame_mode(self, block: int, frame: int) -> CellMode:
        return self._modes[self._check_frame(block, frame)]

    def block_frame_modes(self, block: int) -> List[CellMode]:
        """Modes of every frame in ``block``, in frame order."""
        first = self._check_frame(block, 0)
        return self._modes[first:first + self._frames_per_block]

    def erase_count(self, block: int) -> int:
        self._check_block(block)
        return self._erase_counts[block]

    def frame_damage(self, block: int, frame: int) -> float:
        return self._damage[self._check_frame(block, frame)]

    def page_state(self, page: int) -> int:
        if not 0 <= page >> 1 < self._frame_count \
                or page & 1 and self._modes[page >> 1] is _SLC:
            self._check_page(page)
        return self._states[page]

    # -- NAND operations --------------------------------------------------------

    def read_page(self, page: int) -> ReadResult:
        """Read one page: returns latency, raw bit errors, optional data."""
        key = page >> 1
        if not 0 <= key < self._frame_count:
            self._check_page(page)
        mode = self._modes[key]
        if page & 1 and mode is _SLC:
            self._check_page(page)
        latency, energy = self._slc_read if mode is _SLC else self._mlc_read
        stats = self.stats
        stats.reads += 1
        stats.busy_us += latency
        stats.read_busy_us += latency
        stats.energy_j += energy
        self.clock_us += latency
        log = self.op_log
        if log is not None:
            log.append(latency)
        # No telemetry hook here: nand.reads is harvested from
        # DeviceStats at end of run (Telemetry.harvest_cache_counters).
        # Wear and soft errors only exist when configured; skipping the
        # call otherwise consumes no RNG, exactly like making it.
        if self.soft_error_rate_per_bit > 0.0 or (
                self.lifetime_model is not None and self._damage[key] > 0):
            errors = self._raw_bit_errors(key)
        else:
            errors = 0
        injector = self.fault_injector
        model = self.reliability
        if injector is not None or model is not None:
            block, index = divmod(key, self._frames_per_block)
            if injector is not None:
                if injector.block_dead(block):
                    self._kill_frame(key)
                    errors = self.geometry.cells_per_frame
                else:
                    errors += injector.read_fault_bits(block, index)
            if model is not None:
                # read_errors also counts the read toward read disturb.
                errors += model.read_errors(
                    block, index, self._damage[key], mode, self.clock_us,
                    self.geometry.cells_per_frame)
        return ReadResult(latency, errors,
                          self._data.get(page) if self.store_data else None,
                          mode)

    def program_page(self, page: int,
                     data: Optional[bytes] = None) -> ProgramResult:
        """Program an erased page; raises :class:`ProgramError` otherwise.

        With a fault injector attached the operation can also raise
        :class:`ProgramFailure` — the attempt burns the page (it needs an
        erase before any retry) and costs the full program latency.
        """
        key = page >> 1
        if not 0 <= key < self._frame_count:
            self._check_page(page)
        mode = self._modes[key]
        if page & 1 and mode is _SLC:
            self._check_page(page)
        states = self._states
        if states[page] != PageState.ERASED:
            raise ProgramError(
                f"page {self.geometry.page_address(page)} is not erased; "
                f"NAND requires a block erase before reprogramming"
            )
        if data is not None and len(data) > self.geometry.page_data_bytes:
            raise ValueError(
                f"payload of {len(data)} bytes exceeds page size "
                f"{self.geometry.page_data_bytes}"
            )
        latency, energy = self._slc_write if mode is _SLC else self._mlc_write
        block, index = divmod(key, self._frames_per_block)
        injector = self.fault_injector
        if injector is not None and (
                injector.block_dead(block)
                or injector.program_fault(block, index)):
            # The failed attempt still occupies the plane for the full
            # program time and leaves the page in an indeterminate
            # (non-erased) state.
            states[page] = PageState.PROGRAMMED
            self.stats.programs += 1
            self.stats.record(latency, self.power.active_w, kind="program")
            self.clock_us += latency
            log = self.op_log
            if log is not None:
                log.append(latency)
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.nand_fault("program")
            raise ProgramFailure(page, self.geometry.page_address(page),
                                 latency_us=latency)
        states[page] = PageState.PROGRAMMED
        if self.store_data:
            self._data[page] = data
        stats = self.stats
        stats.programs += 1
        stats.busy_us += latency
        stats.program_busy_us += latency
        stats.energy_j += energy
        self.clock_us += latency
        log = self.op_log
        if log is not None:
            log.append(latency)
        model = self.reliability
        if model is not None:
            model.note_program(block, index, self.clock_us)
        # No telemetry hook here: nand.* counters are harvested from
        # DeviceStats at end of run (Telemetry.harvest_cache_counters).
        return ProgramResult(latency, mode)

    def erase_block(
        self,
        block: int,
        new_modes: Optional[Dict[int, CellMode]] = None,
    ) -> EraseResult:
        """Erase a block, optionally reconfiguring frame density modes.

        Mode changes take effect *at erase*, matching the controller
        protocol in section 5.2 ("the updated page settings are applied on
        the next erase and write access").  Each frame absorbs one damage
        unit per erase cycle.

        With a fault injector attached the operation can raise
        :class:`EraseFailure`; the attempt costs the full erase latency
        and leaves the block's contents untouched.
        """
        self._check_block(block)
        frames_per_block = self._frames_per_block
        first = block * frames_per_block
        end = first + frames_per_block
        modes = self._modes
        injector = self.fault_injector
        if injector is not None and (injector.block_dead(block)
                                     or injector.erase_fault(block)):
            latency = max(self.timing.erase_us(mode)
                          for mode in modes[first:end])
            self.stats.erases += 1
            self.stats.record(latency, self.power.active_w, kind="erase")
            self.clock_us += latency
            log = self.op_log
            if log is not None:
                log.append(latency)
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.nand_fault("erase")
            raise EraseFailure(block, latency_us=latency)
        slc_frames = modes[first:end].count(_SLC)
        damage = self._damage
        for key in range(first, end):
            damage[key] += 1.0
        for index, mode in (new_modes or {}).items():
            if 0 <= index < frames_per_block:
                modes[first + index] = mode
        self._states[2 * first:2 * end] = bytes(2 * frames_per_block)
        if self.store_data:
            for page in range(2 * first, 2 * end):
                self._data.pop(page, None)
        # The block erases as one pulse train; its latency is set by the
        # slowest frame mode present (MLC needs the longer staircase).
        if slc_frames == frames_per_block:
            latency = self._slc_erase_us
        elif slc_frames:
            latency = max(self._slc_erase_us, self._mlc_erase_us)
        else:
            latency = self._mlc_erase_us
        self._erase_counts[block] += 1
        self.stats.erases += 1
        self.stats.record(latency, self.power.active_w, kind="erase")
        self.clock_us += latency
        log = self.op_log
        if log is not None:
            log.append(latency)
        model = self.reliability
        if model is not None:
            model.note_erase(block, self.clock_us,
                             self.geometry.frames_per_block)
        return EraseResult(latency, self._erase_counts[block])

    # -- wear/error injection ---------------------------------------------------

    def _kill_frame(self, key: int) -> None:
        """Mark a frame's wear sampler dead (infant-mortality block)."""
        if self.lifetime_model is not None:
            self._sampler(key).kill()

    def _raw_bit_errors(self, key: int) -> int:
        errors = self._transient_errors()
        damage = self._damage[key]
        if self.lifetime_model is None or damage <= 0:
            return errors
        sensitivity = (
            MLC_READ_SENSITIVITY if self._modes[key] is CellMode.MLC else 1.0
        )
        return errors + self._sampler(key).failed_cells(damage * sensitivity)

    def _transient_errors(self) -> int:
        """Soft (non-persistent) errors for one read: Poisson-distributed
        with mean cells * rate, which is exact in the rare-error regime."""
        rate = self.soft_error_rate_per_bit
        if rate <= 0.0:
            return 0
        mean = rate * self.geometry.cells_per_frame
        # Knuth's algorithm suffices for the small means reliability
        # studies use (mean >> 10 would make every read uncorrectable).
        import math
        limit = math.exp(-mean)
        count, product = 0, self._rng.random()
        while product > limit:
            count += 1
            product *= self._rng.random()
        return count

    def raw_bit_errors_at(self, block: int, frame: int) -> int:
        """Current raw error count for a frame without a timed read."""
        return self._raw_bit_errors(self._check_frame(block, frame))

    def advance_clock(self, idle_us: float) -> None:
        """Deposit idle device time on :attr:`clock_us`.

        Operations advance the clock by their own latency; callers that
        model dwell time between operations (retention studies, the
        regime simulator) add it here so data genuinely ages while the
        device sits idle.
        """
        if idle_us < 0:
            raise ValueError("idle_us must be non-negative")
        self.clock_us += idle_us

    def age_block(self, block: int, cycles: float) -> None:
        """Deposit ``cycles`` W/E cycles of damage in every frame of a block
        without simulating each erase individually.

        Used by the accelerated (event-driven) lifetime simulations of
        Figures 11/12, where millions of W/E cycles elapse between
        interesting reliability events.  Page states are untouched — the
        caller represents steady-state rewrite traffic, after which the
        pages hold fresh data again.
        """
        self._check_block(block)
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        damage = self._damage
        first = block * self._frames_per_block
        for key in range(first, first + self._frames_per_block):
            damage[key] += cycles
        self._erase_counts[block] += int(cycles)

    def next_error_damage(self, block: int, frame: int,
                          error_index: int) -> float:
        """Damage level (in W/E cycles as seen by an SLC read) at which the
        frame's ``error_index + 1``-th cell fails.

        Divide by :data:`MLC_READ_SENSITIVITY` for the cycle count at which
        an MLC read observes that failure.  ``math.inf`` when the device
        has no wear model.
        """
        if self.lifetime_model is None:
            return float("inf")
        return self._sampler(self._check_frame(block, frame)) \
            .next_failure_damage(error_index)

    def frame_read_sensitivity(self, block: int, frame: int) -> float:
        """Effective-damage multiplier of the frame's current mode."""
        mode = self._modes[self._check_frame(block, frame)]
        return MLC_READ_SENSITIVITY if mode is CellMode.MLC else 1.0

    def wear_summary(self) -> tuple[float, float]:
        """(max, average) frame damage across the whole array."""
        damage = self._damage
        return max(damage), sum(damage) / len(damage)

    # -- capacity ----------------------------------------------------------------

    def block_capacity_pages(self, block: int) -> int:
        """Logical pages the block currently provides given frame modes."""
        return sum(map(self.geometry.pages_per_frame,
                       self.block_frame_modes(block)))

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.geometry.num_blocks:
            raise EraseError(
                f"block {block} out of range "
                f"(device has {self.geometry.num_blocks} blocks)"
            )

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"FlashDevice(blocks={g.num_blocks}, "
            f"frames_per_block={g.frames_per_block}, "
            f"initial_mode={self.initial_mode.value})"
        )

"""The programmable Flash memory controller (paper sections 4 and 5.2).

The controller is the reliability layer between the disk-cache software
and the raw NAND array.  Per page it maintains (in the FPST) a BCH error
correction strength ``t`` in [1, 12] and a density mode (MLC or SLC); on
every access it:

* generates a *descriptor* from the FPST (ECC strength + mode) — the
  control message a real device driver would DMA to the controller;
* charges the BCH decode/encode latency of the page's current strength on
  top of the raw NAND latency (and the CRC check, which is negligible);
* watches the raw bit-error count.  When a page reaches its correction
  limit, the reconfiguration heuristic of section 5.2.1 picks the cheaper
  of two repairs by estimated latency impact:

      delta_t_cs = freq_i * delta_code_delay          (stronger ECC)
      delta_t_d  ~= delta_miss * (t_miss + t_hit) + freq_i * delta_SLC
                                                      (MLC -> SLC)

  The chosen change is *pended* and applied at the block's next erase
  ("the updated page settings are applied on the next erase and write
  access").  A page already at ``t = max`` and SLC retires its block
  permanently.

A fixed-strength baseline (:class:`FixedEccController`) models the
conventional BCH-1 controller Figure 12 compares against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Set)

from ..ecc.latency import AcceleratorConfig, BCHLatencyModel
from ..flash.device import EraseFailure, FlashDevice, ProgramFailure
from ..flash.timing import CellMode
from .tables import (
    ACCESS_COUNTER_MAX,
    FPSTEntry,
    FlashBlockStatusTable,
    FlashGlobalStatus,
    FlashPageStatusTable,
)

__all__ = [
    "ReconfigKind",
    "PageDescriptor",
    "ControllerConfig",
    "ControllerReadResult",
    "ControllerStats",
    "ProgrammableFlashController",
    "FixedEccController",
]

#: CRC32 check latency: "tens of nanoseconds" (section 4.1.2).
CRC_CHECK_US = 0.05

_SLC = CellMode.SLC


class ReconfigKind(enum.Enum):
    """The two descriptor-update responses of section 5.2.1."""

    CODE_STRENGTH = "code_strength"
    DENSITY = "density"


@dataclass(frozen=True)
class PageDescriptor:
    """Control message sent to the controller ahead of a page access."""

    page: int
    ecc_strength: int
    mode: CellMode


@dataclass(frozen=True)
class ControllerConfig:
    """Policy constants of the programmable controller."""

    max_ecc_strength: int = 12     # hardware limit (section 4.1)
    initial_ecc_strength: int = 1
    counter_max: int = ACCESS_COUNTER_MAX
    #: Read-retry ladder depth: when a read exceeds the page's correction
    #: strength, re-sense up to this many times (each retry costs a full
    #: NAND read plus decode) before declaring it uncorrectable.  Retries
    #: only help against *transient* errors (read disturb, injected
    #: bursts); 0 disables the ladder, preserving the historical
    #: single-sense behaviour for wear-only studies.
    read_retry_max: int = 0
    #: Retire a block after this many program failures across its frames.
    program_fail_retire_threshold: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.initial_ecc_strength <= self.max_ecc_strength:
            raise ValueError("initial ECC strength outside [1, max]")
        if self.read_retry_max < 0:
            raise ValueError("read_retry_max must be non-negative")
        if self.program_fail_retire_threshold < 1:
            raise ValueError("program_fail_retire_threshold must be >= 1")


class ControllerReadResult(NamedTuple):
    """Outcome of a controller-mediated page read."""

    latency_us: float
    corrected_errors: int
    recovered: bool               # False => CRC-confirmed uncorrectable
    reconfig: Optional[ReconfigKind]
    hot_promotion: bool           # counter saturated on an MLC page


@dataclass
class ControllerStats:
    """Counts of the controller's reliability actions (Figure 11 inputs)."""

    reads: int = 0
    programs: int = 0
    erases: int = 0
    ecc_reconfigs: int = 0
    density_reconfigs: int = 0
    uncorrectable_reads: int = 0
    blocks_retired: int = 0
    hot_promotions: int = 0
    # -- degradation metrics (fault handling) --------------------------------
    read_retries: int = 0          # extra senses spent in the retry ladder
    retry_recovered_reads: int = 0  # reads saved by a re-sense
    program_faults: int = 0        # program-status failures observed
    erase_faults: int = 0          # erase-status failures observed
    frames_marked_bad: int = 0     # frames pulled from service

    @property
    def descriptor_updates(self) -> int:
        return self.ecc_reconfigs + self.density_reconfigs

    def reconfig_breakdown(self) -> Dict[str, float]:
        """Fractions of descriptor updates by kind (Figure 11 bars)."""
        total = self.descriptor_updates
        if total == 0:
            return {"code_strength": 0.0, "density": 0.0}
        return {
            "code_strength": self.ecc_reconfigs / total,
            "density": self.density_reconfigs / total,
        }


class ProgrammableFlashController:
    """Variable-ECC, variable-density Flash memory controller.

    Owns the NAND device plus the FPST/FBST/FGST tables, and implements
    the reconfiguration policy.  The disk-cache layer above allocates
    pages and decides placement; this layer decides *how reliably* each
    page is stored.
    """

    def __init__(
        self,
        device: FlashDevice,
        config: ControllerConfig | None = None,
        latency_model: BCHLatencyModel | None = None,
        fgst: FlashGlobalStatus | None = None,
    ) -> None:
        self.device = device
        self.config = config or ControllerConfig()
        self.latency_model = latency_model or BCHLatencyModel(
            AcceleratorConfig(max_t=self.config.max_ecc_strength)
        )
        geometry = device.geometry
        self._frames_per_block = geometry.frames_per_block
        #: Page numbers per block (two per frame).
        self.block_span = 2 * geometry.frames_per_block
        self.fpst = FlashPageStatusTable(
            geometry.num_blocks * self.block_span,
            default_ecc_strength=self.config.initial_ecc_strength)
        self.fbst = FlashBlockStatusTable(device.geometry.num_blocks)
        self.fgst = fgst or FlashGlobalStatus()
        self.stats = ControllerStats()
        #: Optional :class:`repro.telemetry.Telemetry` handle; ``None``
        #: (default) keeps the mediated operations un-instrumented.
        self.telemetry: Optional[Any] = None
        #: Optional externally measured miss-rate increase per lost cache
        #: page (the paper's runtime-measured "delta miss").  When None, a
        #: uniform-popularity estimate is derived from the FGST.
        self.marginal_miss_estimate: Optional[float] = None
        #: Invoked with the block index whenever a block retires, so the
        #: cache layer can pull it from service and shrink its capacity.
        self.retire_listener: Optional[Callable[[int], None]] = None
        # Pending density changes per block ({frame: mode}), applied at
        # that block's next successful erase.
        self._pending_modes: Dict[int, Dict[int, CellMode]] = {}
        # Frame keys (``page >> 1``) with program-status failures:
        # permanently out of service.
        self._bad_frames: Set[int] = set()
        # Per-block shape memos: the page count and the page layout.  A
        # block's shape only moves when a frame goes bad, an erase applies
        # a pended density change or the block retires; those paths call
        # _forget_block_shape and everyone else reads the memos.  The
        # capacity memo stays count-only so pricing every block (as the
        # cache does at start-up) builds no layouts.
        self._block_capacity: Dict[int, int] = {}
        self._block_layout: Dict[int, Sequence[int]] = {}
        self._program_fail_counts: Dict[int, int] = {}
        self._decode_cache: Dict[int, float] = {}
        self._encode_cache: Dict[int, float] = {}
        # Bound once for the per-page paths; a span tracer patches the
        # classes before any controller is built, so these are traced.
        self._counter_max = self.config.counter_max
        self._read_page = device.read_page
        self._program_page = device.program_page
        # Both modes' page counts, taken once for the per-frame paths.
        self._slc_pages = device.geometry.pages_per_frame(CellMode.SLC)
        self._mlc_pages = device.geometry.pages_per_frame(CellMode.MLC)

    # -- descriptor plumbing --------------------------------------------------

    def descriptor(self, page: int) -> PageDescriptor:
        entry = self.fpst.entry(page)
        return PageDescriptor(page, entry.ecc_strength, entry.mode)

    def _decode_us(self, t: int) -> float:
        cached = self._decode_cache.get(t)
        if cached is None:
            cached = self.latency_model.decode_us(t)
            self._decode_cache[t] = cached
        return cached

    def _encode_us(self, t: int) -> float:
        cached = self._encode_cache.get(t)
        if cached is None:
            cached = self.latency_model.encode_us(t)
            self._encode_cache[t] = cached
        return cached

    # -- mediated NAND operations ------------------------------------------------

    def read(self, page: int) -> ControllerReadResult:
        """Timed page read with ECC decode and reconfiguration triggers.

        When the first sense exceeds the page's correction strength and
        ``read_retry_max`` allows it, the controller re-senses: transient
        errors (read disturb) can vanish on a retry, turning a would-be
        uncorrectable read into a recovered one.  Every retry costs a full
        NAND read plus decode, charged to the returned latency.
        """
        fpst = self.fpst
        if not fpst.present[page]:
            fpst.entry(page)
        raw_us, errors, _, mode = self._read_page(page)
        fpst.slc[page] = mode is _SLC  # FPST reflects the physical mode
        strength = fpst.ecc[page]
        decode_us = self._decode_cache.get(strength)
        if decode_us is None:
            decode_us = self._decode_us(strength)
        latency = raw_us + decode_us + CRC_CHECK_US
        self.stats.reads += 1

        retries = 0
        while errors > strength and retries < self.config.read_retry_max:
            retries += 1
            self.stats.read_retries += 1
            resense = self._read_page(page)
            latency += resense.latency_us \
                + self._decode_us(strength) + CRC_CHECK_US
            errors = min(errors, resense.raw_bit_errors)

        recovered = errors <= strength
        if retries and recovered:
            self.stats.retry_recovered_reads += 1
        if not recovered:
            self.stats.uncorrectable_reads += 1
        reconfig: Optional[ReconfigKind] = None
        if errors >= strength:
            # At (or past) the correction limit: reconfigure per 5.2.1.
            reconfig = self._respond_to_faults(page, FPSTEntry(fpst, page))
            strength = fpst.ecc[page]

        # Bump the page's saturating access counter (section 5.2.2).
        count = fpst.access[page]
        counter_max = self._counter_max
        if count < counter_max:
            count += 1
            fpst.access[page] = count
        hot = count >= counter_max and not fpst.slc[page]
        if hot:
            self.stats.hot_promotions += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.flash_read(latency)
        return ControllerReadResult(
            latency, errors if errors < strength else strength, recovered,
            reconfig, hot)

    def program(self, page: int, lba: Optional[int] = None,
                data: Optional[bytes] = None) -> float:
        """Timed page program with ECC encode; registers the page in FPST.

        A :class:`~repro.flash.device.ProgramFailure` from the device is
        re-raised after bookkeeping: the frame is marked bad (its pages
        leave the address space) and the block retires once it has
        accumulated ``program_fail_retire_threshold`` failures.  The
        caller is expected to remap the data to a fresh page.
        """
        try:
            program_us, mode = self._program_page(page, data)
        except ProgramFailure:
            self.stats.programs += 1
            self._note_program_failure(page)
            raise
        fpst = self.fpst
        if not fpst.present[page]:
            fpst.entry(page)
        fpst.slc[page] = mode is _SLC
        fpst.valid[page] = 1
        fpst.lba[page] = -1 if lba is None else lba
        fpst.access[page] = 0
        self.stats.programs += 1
        strength = fpst.ecc[page]
        encode_us = self._encode_cache.get(strength)
        if encode_us is None:
            encode_us = self._encode_us(strength)
        latency = program_us + encode_us
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.flash_program(latency)
        return latency

    def _note_program_failure(self, page: int) -> None:
        """Pull a failing frame out of service; retire the block after K."""
        self.stats.program_faults += 1
        key = page >> 1
        block = key // self._frames_per_block
        if key not in self._bad_frames:
            self._bad_frames.add(key)
            self._forget_block_shape(block)
            self.stats.frames_marked_bad += 1
            # The frame's pages leave the address space.  Only *invalid*
            # entries drop immediately: valid ones keep their LBA
            # back-pointers so the cache layer can unmap the data they
            # held before abandoning the frame.
            fpst = self.fpst
            for sibling in self.frame_pages(page):
                if fpst.present[sibling] and not fpst.valid[sibling]:
                    fpst.drop(sibling)
        failures = self._program_fail_counts.get(block, 0) + 1
        self._program_fail_counts[block] = failures
        if failures >= self.config.program_fail_retire_threshold:
            self._retire_block(block)

    def erase(self, block: int) -> float:
        """Timed block erase; applies pended density reconfigurations.

        An :class:`~repro.flash.device.EraseFailure` retires the block
        (the firmware convention) and is re-raised so the cache layer can
        drop the block from its capacity.
        """
        new_modes = self._pending_modes.get(block)
        # Capture the *pre-erase* page layout: an MLC->SLC switch halves
        # the address space and the vanished subpage-1 entries must drop.
        stale_pages = self.pages_of_block(block)
        if new_modes:
            # The applied density switch reshapes the block.
            self._forget_block_shape(block)
        try:
            result = self.device.erase_block(block, new_modes=new_modes)
        except EraseFailure:
            self.stats.erases += 1
            self.stats.erase_faults += 1
            self._retire_block(block)
            raise
        if new_modes:
            del self._pending_modes[block]
        fbst_entry = self.fbst.entry(block)
        fbst_entry.erase_count = result.erase_count
        modes = self.device.block_frame_modes(block)
        fbst_entry.total_ecc = self.fpst.reset_erased(
            stale_pages, modes, self.config.initial_ecc_strength)
        fbst_entry.total_slc_pages = modes.count(CellMode.SLC)
        self.stats.erases += 1
        return result.latency_us

    def invalidate(self, page: int) -> None:
        """Mark a page invalid (out-of-place write superseded it)."""
        self.fpst.valid[page] = 0

    def refresh_block(self, block: int) -> float:
        """Scrub refresh: re-read, erase, and rewrite a block in place.

        The retention countermeasure at controller level (used by the
        regime simulator; the trace-path cache scrubs out-of-place via
        :meth:`~repro.core.cache.FlashDiskCache.scrub_page` so its
        region bookkeeping stays exact).  Every valid page is re-read
        through the normal ECC path — latent errors are detected and
        the section 5.2.1 response runs — then the block is erased
        (applying any pended density change and resetting the frames'
        retention clocks) and the surviving pages are reprogrammed at
        their own addresses with LBA back-pointers and access history
        preserved.  Pages whose re-read fails are dropped; a read that
        retires the block aborts the refresh.  Returns the total
        latency of the reads, the erase, and the rewrites.
        """
        elapsed = 0.0
        survivors: List[tuple[int, Optional[int], int]] = []
        for page in self.pages_of_block(block):
            entry = self.fpst.get(page)
            if entry is None or not entry.valid:
                continue
            result = self.read(page)
            elapsed += result.latency_us
            if self.is_retired(block):
                return elapsed
            if not result.recovered:
                # The copy is lost; nothing worth rewriting.
                entry.valid = False
                entry.lba = None
                continue
            survivors.append((page, entry.lba, entry.access_count))
        try:
            elapsed += self.erase(block)
        except EraseFailure as failure:
            return elapsed + failure.latency_us
        live = set(self.pages_of_block(block))
        for page, lba, access_count in survivors:
            if page not in live:
                # A pended MLC->SLC switch applied at the erase shrank
                # the address space; the vanished subpage's data must be
                # re-fetched by the layer above.
                continue
            try:
                elapsed += self.program(page, lba=lba)
            except ProgramFailure as failure:
                elapsed += failure.latency_us
                if self.is_retired(block):
                    break
                continue
            self.fpst.access[page] = access_count
        return elapsed

    # -- section 5.2.1: response to an increase in faults -------------------------

    def _respond_to_faults(self, page: int,
                           entry: FPSTEntry) -> Optional[ReconfigKind]:
        """Choose stronger ECC vs density reduction by the latency heuristics."""
        can_strengthen = entry.ecc_strength < self.config.max_ecc_strength
        can_densify = entry.mode is CellMode.MLC
        if not can_strengthen and not can_densify:
            self._retire_block(page // self.block_span)
            return None

        if can_strengthen and can_densify:
            choice = self._cheaper_repair(entry)
        elif can_strengthen:
            choice = ReconfigKind.CODE_STRENGTH
        else:
            choice = ReconfigKind.DENSITY

        if choice is ReconfigKind.CODE_STRENGTH:
            entry.ecc_strength += 1
            self._account_page_ecc(page // self.block_span, 1, None)
            self.stats.ecc_reconfigs += 1
        else:
            self._pend_density_change(page)
            self.stats.density_reconfigs += 1
        if self.telemetry is not None:
            self.telemetry.reconfig(choice.value)
        return choice

    def choose_repair(self, entry: FPSTEntry) -> ReconfigKind:
        """Public face of the section 5.2.1 heuristic: given a page's FPST
        entry, pick the repair (stronger ECC vs MLC->SLC) with the smaller
        estimated latency impact.  Exposed for the accelerated lifetime
        simulator, which replays the same policy event-driven."""
        return self._cheaper_repair(entry)

    def _cheaper_repair(self, entry: FPSTEntry) -> ReconfigKind:
        """Evaluate delta_t_cs vs delta_t_d (section 5.2.1 heuristics)."""
        fgst = self.fgst
        freq = fgst.relative_frequency(entry.access_count)
        delta_code_delay = (
            self._decode_us(entry.ecc_strength + 1)
            - self._decode_us(entry.ecc_strength)
        )
        delta_tcs = freq * delta_code_delay

        timing = self.device.timing
        slc_gain = timing.mlc_read_us - timing.slc_read_us
        delta_miss = self._density_miss_increase()
        t_miss = fgst.avg_miss_penalty_us or 4200.0
        t_hit = fgst.avg_hit_latency_us or timing.mlc_read_us
        delta_td = delta_miss * (t_miss + t_hit) - freq * slc_gain
        return (ReconfigKind.CODE_STRENGTH if delta_tcs <= delta_td
                else ReconfigKind.DENSITY)

    def _density_miss_increase(self) -> float:
        """Estimated miss-rate increase from halving one frame's capacity.

        Losing one page of an N-page cache raises the miss rate by the hit
        share of the *marginal* (least popular cached) page.  When the
        environment has measured that quantity (section 5.2.1: "delta miss
        [is] measured during run-time"), it is installed in
        :attr:`marginal_miss_estimate`; otherwise fall back to the uniform
        share (1 - miss) / N.
        """
        if self.marginal_miss_estimate is not None:
            return self.marginal_miss_estimate
        total_pages = (self.device.geometry.num_blocks
                       * self.device.geometry.frames_per_block * 2)
        return (1.0 - self.fgst.miss_rate) / total_pages

    def _pend_density_change(self, page: int) -> None:
        block, frame = divmod(page >> 1, self._frames_per_block)
        self._pending_modes.setdefault(block, {})[frame] = CellMode.SLC

    def has_pending_density_change(self, block: int, frame: int) -> bool:
        """True while a density change for the frame awaits an erase."""
        return frame in self._pending_modes.get(block, ())

    def request_slc(self, page: int) -> None:
        """Externally pend an MLC->SLC switch (hot-page promotion path)."""
        self._pend_density_change(page)

    def _retire_block(self, block: int) -> None:
        entry = self.fbst.entry(block)
        if not entry.retired:
            entry.retired = True
            self._forget_block_shape(block)
            self.stats.blocks_retired += 1
            if self.telemetry is not None:
                self.telemetry.retire()
            if self.retire_listener is not None:
                self.retire_listener(block)

    def _account_page_ecc(self, block: int, ecc_delta: int,
                          mode: Optional[CellMode]) -> None:
        self.fbst.entry(block).total_ecc += ecc_delta

    def _forget_block_shape(self, block: int) -> None:
        """Drop the block's capacity and layout memos after a reshape."""
        self._block_capacity.pop(block, None)
        self._block_layout.pop(block, None)

    # -- queries used by the cache layer ---------------------------------------

    def pages_of_block(self, block: int) -> Sequence[int]:
        """The page numbers the block offers under current frame modes,
        in page order.

        Frames marked bad by program failures are excluded — their pages
        have left the address space.  A block of one mode and no bad
        frame is a ``range``; the layout is memoised until the block is
        reshaped, so repeated calls return the same sequence.
        """
        layout = self._block_layout.get(block)
        if layout is None:
            modes = self.device.block_frame_modes(block)
            first_key = block * self._frames_per_block
            bad_frames = self._bad_frames
            start, stop = 2 * first_key, 2 * first_key + self.block_span
            if modes.count(modes[0]) == len(modes) and not any(
                    key in bad_frames
                    for key in range(first_key, first_key + len(modes))):
                layout = range(start, stop, 2 if modes[0] is _SLC else 1)
            else:
                layout = tuple(
                    page for page in range(start, stop)
                    if page >> 1 not in bad_frames
                    and not (page & 1 and modes[(page >> 1) - first_key]
                             is _SLC))
            self._block_layout[block] = layout
        return layout

    def frame_pages(self, page: int) -> range:
        """The page numbers of ``page``'s frame under its current mode."""
        first = page & ~1
        mode = self.device.frame_mode(
            *divmod(page >> 1, self._frames_per_block))
        return range(first, first + (1 if mode is _SLC else 2))

    def block_capacity_pages(self, block: int) -> int:
        """Logical pages the block offers, net of bad frames."""
        cached = self._block_capacity.get(block)
        if cached is not None:
            return cached
        modes = self.device.block_frame_modes(block)
        if self._bad_frames:
            first_key = block * self._frames_per_block
            modes = [mode for frame, mode in enumerate(modes)
                     if first_key + frame not in self._bad_frames]
        # Two modes exist; counting one of them prices the whole block.
        slc = modes.count(CellMode.SLC)
        capacity = (slc * self._slc_pages
                    + (len(modes) - slc) * self._mlc_pages)
        self._block_capacity[block] = capacity
        return capacity

    def is_bad_frame(self, block: int, frame: int) -> bool:
        return block * self._frames_per_block + frame in self._bad_frames

    def wear_out(self, block: int) -> float:
        return self.fbst.wear_out(block)

    def is_retired(self, block: int) -> bool:
        return self.fbst.entry(block).retired

    @property
    def all_blocks_retired(self) -> bool:
        return self.fbst.retired_count == len(self.fbst)


class FixedEccController(ProgrammableFlashController):
    """Conventional BCH-1 controller: no reconfiguration, no density control.

    The Figure 12 baseline: when a page's raw error count reaches the fixed
    correction strength, the block simply retires.
    """

    def __init__(self, device: FlashDevice, strength: int = 1,
                 fgst: FlashGlobalStatus | None = None) -> None:
        config = ControllerConfig(
            max_ecc_strength=strength, initial_ecc_strength=strength)
        super().__init__(device, config=config, fgst=fgst)

    def _respond_to_faults(self, page: int,
                           entry: FPSTEntry) -> Optional[ReconfigKind]:
        self._retire_block(page // self.block_span)
        return None

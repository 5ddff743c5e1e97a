"""Background scrub/refresh: the countermeasure retention errors force.

Once the error-process model (:mod:`repro.reliability.model`) is on,
cold data rots: retention RBER grows with data age until even the
strongest BCH code cannot correct a read.  Real controllers answer with
a *scrub* pass — periodically re-read resident data and rewrite anything
that has aged past a threshold, resetting its retention clock at the
cost of extra read/program/erase traffic (which this module charges to
the ordinary wear, latency, and energy accounting; nothing is free).

Two consumers share the policy vocabulary here:

* :class:`Scrubber` drives the trace-path cache
  (:class:`~repro.core.cache.FlashDiskCache`): each pass walks the
  cached LBAs in deterministic (sorted) order, refreshes aged pages via
  :meth:`~repro.core.cache.FlashDiskCache.scrub_page` (an ordinary
  out-of-place rewrite, so every cache invariant holds), and hands any
  eviction-flushed dirty LBAs back to the hierarchy's write-back queue.
* the regime simulator (:mod:`repro.sim.lifetime`) reuses
  :class:`ScrubConfig`/:class:`ScrubStats` around
  :meth:`~repro.core.controller.ProgrammableFlashController.refresh_block`.

Determinism: scrub decisions are pure functions of the device clock and
the model's frame state — no RNG — so the same seed and trace produce
the same scrub schedule at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

__all__ = ["ScrubConfig", "ScrubStats", "Scrubber"]


@dataclass(frozen=True)
class ScrubConfig:
    """Scrub cadence and refresh thresholds."""

    #: Device time (us) between scan passes.
    interval_us: float = 5e9
    #: Refresh pages whose retention age is at least this (us).
    min_age_us: float = 1e10
    #: Upper bound on pages refreshed per pass (traffic guard so one
    #: pass cannot monopolise the device).
    max_pages_per_pass: int = 256

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ValueError("interval_us must be positive")
        if self.min_age_us <= 0:
            raise ValueError("min_age_us must be positive")
        if self.max_pages_per_pass < 1:
            raise ValueError("max_pages_per_pass must be >= 1")


@dataclass
class ScrubStats:
    """Scrub traffic and findings (reported per run and per regime)."""

    passes: int = 0
    pages_scanned: int = 0        # candidates examined (metadata only)
    scrub_reads: int = 0          # timed re-reads issued
    page_rewrites: int = 0        # pages rewritten fresh
    blocks_refreshed: int = 0     # whole-block refreshes (regime path)
    uncorrectable_found: int = 0  # latent errors past correction
    busy_us: float = 0.0          # device time consumed by scrubbing


class Scrubber:
    """Periodic retention scrub over a Flash disk cache.

    The hierarchy calls :meth:`maybe_scrub` from its periodic-flush tick
    (cheap no-op until the device clock crosses the next interval); a
    pass re-reads and rewrites aged pages through the cache's own
    machinery so FCHT mappings, region bookkeeping, and GC stay exact.
    """

    def __init__(self, cache: Any, config: ScrubConfig | None = None) -> None:
        self.cache = cache
        self.config = config or ScrubConfig()
        self.stats = ScrubStats()
        model = cache.controller.device.reliability
        if model is None:
            raise ValueError("scrubbing needs a ReliabilityModel on the "
                             "device (there is nothing to age without one)")
        self.model = model
        self._last_pass_us = 0.0

    def maybe_scrub(self) -> Tuple[float, List[int]]:
        """Run a pass if the scrub interval elapsed on the device clock.

        Returns ``(background latency us, dirty LBAs flushed by scrub
        evictions)`` — ``(0.0, [])`` almost always.
        """
        now_us = self.cache.controller.device.clock_us
        if now_us - self._last_pass_us < self.config.interval_us:
            return 0.0, []
        self._last_pass_us = now_us
        return self.scrub_pass(now_us)

    def scrub_pass(self, now_us: float) -> Tuple[float, List[int]]:
        """One full scan: refresh every aged page within the pass budget."""
        cache = self.cache
        model = self.model
        config = self.config
        stats = self.stats
        stats.passes += 1
        rewrites_before = stats.page_rewrites
        elapsed = 0.0
        flushed: List[int] = []
        budget = config.max_pages_per_pass
        frames_per_block = cache.controller.device.geometry.frames_per_block
        for lba in cache.cached_lbas():
            if budget <= 0:
                break
            page = cache.fcht.lookup(lba)
            if page is None:
                continue
            stats.pages_scanned += 1
            block, frame = divmod(page >> 1, frames_per_block)
            age_us = model.retention_age_us(block, frame, now_us)
            if age_us < config.min_age_us:
                continue
            budget -= 1
            stats.scrub_reads += 1
            outcome = cache.scrub_page(lba)
            elapsed += outcome.latency_us
            flushed.extend(outcome.flushed_lbas)
            if outcome.refreshed:
                stats.page_rewrites += 1
            elif outcome.uncorrectable:
                stats.uncorrectable_found += 1
            if cache.degraded:
                break
        stats.busy_us += elapsed
        telemetry = cache.telemetry
        if telemetry is not None:
            telemetry.scrub(elapsed,
                            stats.page_rewrites - rewrites_before)
        return elapsed, flushed

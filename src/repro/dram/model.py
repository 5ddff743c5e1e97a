"""DDR2 DRAM timing and power model.

Reproduces the accounting the paper did with the Micron system-power
calculator: each 1Gb DDR2 device draws ``active_w`` while a read or write
burst is in flight and ``idle_active_w`` otherwise (``idle_powerdown_w``
when the rank is in power-down).  Latency is the Table 2/3 55 ns access
plus a bandwidth term for the burst length, which matters because the disk
cache moves whole 2KB pages over the memory bus via DMA.

Figure 9 splits memory power into read / write / idle components, so the
model keeps read and write busy time separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..flash.timing import (
    DramPower,
    DramTiming,
    DEFAULT_DRAM_POWER,
    DEFAULT_DRAM_TIMING,
)

__all__ = ["DramEnergyBreakdown", "DramModel"]

#: DDR2-533 x8 peak transfer rate used for page DMA bursts (bytes/us).
DDR2_BANDWIDTH_BYTES_PER_US = 4266.0

#: Table 2 describes per-1Gb-device power; sizes scale device count.
DEVICE_BITS = 1 << 30


@dataclass
class DramEnergyBreakdown:
    """Energy split matching the Figure 9 stacked bars (joules)."""

    read_j: float = 0.0
    write_j: float = 0.0
    idle_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.read_j + self.write_j + self.idle_j


@dataclass
class DramModel:
    """A DRAM subsystem of ``size_bytes`` built from 1Gb DDR2 devices."""

    size_bytes: int
    timing: DramTiming = field(default_factory=lambda: DEFAULT_DRAM_TIMING)
    power: DramPower = field(default_factory=lambda: DEFAULT_DRAM_POWER)
    powerdown_when_idle: bool = False
    #: When simulations scale capacities down for speed, power should still
    #: reflect the platform being modelled: device count is derived from
    #: this size when set (e.g. the paper's 512MB) instead of the scaled
    #: ``size_bytes``.
    power_model_bytes: int | None = None

    read_busy_us: float = 0.0
    write_busy_us: float = 0.0
    reads: int = 0
    writes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 1:
            raise ValueError("DRAM size must be positive")
        # Byte count -> access_us() of it (``timing`` is fixed once
        # built).  The request path moves one page size millions of
        # times; the memo hands back the very float access_us computed,
        # so busy-time sums are unchanged.  Not a dataclass field: it
        # stays out of asdict(), repr() and ==.
        self._latency_us: Dict[int, float] = {}

    @property
    def num_devices(self) -> int:
        """1Gb devices needed for this capacity (a DIMM is 8 of them)."""
        modeled = self.power_model_bytes or self.size_bytes
        return max(1, -(-modeled * 8 // DEVICE_BITS))

    # -- timed accesses --------------------------------------------------------

    def access_us(self, num_bytes: int) -> float:
        """Latency of one access moving ``num_bytes`` over the bus."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return self.timing.access_us + num_bytes / DDR2_BANDWIDTH_BYTES_PER_US

    def _memo_latency(self, num_bytes: int) -> float:
        # A rejected size raises here and is never memoised, so it raises
        # on every call.
        latency = self._latency_us[num_bytes] = self.access_us(num_bytes)
        return latency

    def read(self, num_bytes: int) -> float:
        try:
            latency = self._latency_us[num_bytes]
        except KeyError:
            latency = self._memo_latency(num_bytes)
        self.read_busy_us += latency
        self.reads += 1
        return latency

    def write(self, num_bytes: int) -> float:
        try:
            latency = self._latency_us[num_bytes]
        except KeyError:
            latency = self._memo_latency(num_bytes)
        self.write_busy_us += latency
        self.writes += 1
        return latency

    # -- power -------------------------------------------------------------------

    def energy_breakdown(self, wall_clock_us: float) -> DramEnergyBreakdown:
        """Energy over a simulated window of ``wall_clock_us``.

        Only one rank bursts at a time (the paper's single-channel platform),
        so burst power applies to busy time and all devices idle otherwise.
        """
        busy_us = self.read_busy_us + self.write_busy_us
        if wall_clock_us < busy_us - 1e-6:
            raise ValueError(
                f"wall clock {wall_clock_us}us shorter than busy time {busy_us}us"
            )
        idle_w = (
            self.power.idle_powerdown_w
            if self.powerdown_when_idle
            else self.power.idle_active_w
        )
        devices = self.num_devices
        burst_extra_w = self.power.active_w - idle_w
        return DramEnergyBreakdown(
            read_j=burst_extra_w * self.read_busy_us * 1e-6,
            write_j=burst_extra_w * self.write_busy_us * 1e-6,
            idle_j=devices * idle_w * wall_clock_us * 1e-6,
        )

    def average_power_w(self, wall_clock_us: float) -> float:
        if wall_clock_us <= 0:
            return 0.0
        return self.energy_breakdown(wall_clock_us).total_j / (wall_clock_us * 1e-6)

    def reset_stats(self) -> None:
        self.read_busy_us = self.write_busy_us = 0.0
        self.reads = self.writes = 0

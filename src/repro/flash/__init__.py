"""NAND Flash substrate: geometry, timing/power constants, wear, device.

Implements the dual-mode (SLC/MLC) NAND array the paper's disk cache sits
on: real erase-before-write semantics, per-frame density modes, the
exponential wear-out model of section 4.1.3, and the Table 1–3 constants.
"""

from .timing import (
    CellMode,
    FlashTiming,
    FlashPower,
    DramTiming,
    DramPower,
    DiskTiming,
    DiskPower,
    ITRSEntry,
    ITRS_ROADMAP,
    SLC_ENDURANCE_CYCLES,
    MLC_ENDURANCE_CYCLES,
    DEFAULT_FLASH_TIMING,
    DEFAULT_FLASH_POWER,
)
from .geometry import FlashGeometry, PageAddress, DEFAULT_GEOMETRY
from .wear import (
    WearModelConfig,
    CellLifetimeModel,
    PageFailureSampler,
    mlc_damage_factor,
    damage_per_cycle,
)
from .device import (
    FlashDevice,
    FlashDeviceError,
    FlashStats,
    ProgramError,
    EraseError,
    PageState,
    ReadResult,
    ProgramResult,
    EraseResult,
    MLC_READ_SENSITIVITY,
)
from .channels import ChannelConfig, NandScheduler, ScheduledOp

__all__ = [
    "CellMode",
    "FlashTiming",
    "FlashPower",
    "DramTiming",
    "DramPower",
    "DiskTiming",
    "DiskPower",
    "ITRSEntry",
    "ITRS_ROADMAP",
    "SLC_ENDURANCE_CYCLES",
    "MLC_ENDURANCE_CYCLES",
    "DEFAULT_FLASH_TIMING",
    "DEFAULT_FLASH_POWER",
    "FlashGeometry",
    "PageAddress",
    "DEFAULT_GEOMETRY",
    "WearModelConfig",
    "CellLifetimeModel",
    "PageFailureSampler",
    "mlc_damage_factor",
    "damage_per_cycle",
    "FlashDevice",
    "FlashDeviceError",
    "FlashStats",
    "ProgramError",
    "EraseError",
    "PageState",
    "ReadResult",
    "ProgramResult",
    "EraseResult",
    "MLC_READ_SENSITIVITY",
    "ChannelConfig",
    "NandScheduler",
    "ScheduledOp",
]

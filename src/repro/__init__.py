"""repro — a full reproduction of "Improving NAND Flash Based Disk Caches"
(Kgil, Roberts, Mudge; ISCA 2008).

The package implements the paper's complete system stack in Python:

* :mod:`repro.ecc` — GF(2^m) arithmetic, a functional variable-strength
  BCH codec, CRC32, and the hardware-accelerator latency/area model.
* :mod:`repro.flash` — the dual-mode (SLC/MLC) NAND device simulator with
  erase-before-write semantics, the exponential wear-out model, and the
  Table 1–3 constants.
* :mod:`repro.dram`, :mod:`repro.disk` — the DDR2 and hard-drive models
  bounding the memory hierarchy.
* :mod:`repro.core` — the contribution: the split read/write Flash disk
  cache, its four management tables, the programmable Flash memory
  controller (variable ECC + density control), the SLC/MLC partition
  optimizer, and the full platform hierarchies of Figure 2.
* :mod:`repro.workloads` — the Table 4 benchmark suite (micro generators,
  statistically matched macro generators, and a UMass SPC trace reader).
* :mod:`repro.sim` — the trace engine, server throughput model, and the
  accelerated aging simulator behind Figures 11/12.
* :mod:`repro.experiments` — one runner per paper table and figure.

Quickstart::

    from repro import build_flash_system, build_workload, run_trace

    system = build_flash_system(dram_bytes=8 << 20, flash_bytes=64 << 20)
    trace = build_workload("dbt2", num_records=100_000,
                           footprint_pages=65_536)
    report = run_trace(system, trace)
    print(report.flash_miss_rate, report.power.total_w)
"""

from .core import (
    CacheError,
    CacheCapacityError,
    CacheDegradedError,
    FlashDiskCache,
    FlashCacheConfig,
    ProgrammableFlashController,
    FixedEccController,
    ControllerConfig,
    DramOnlySystem,
    FlashBackedSystem,
    SystemConfig,
    build_flash_system,
    DensityPartitionOptimizer,
)
from .ecc import BCHCode, BCHLatencyModel, Crc32, design_code_for_page
from .flash import (
    CellMode,
    FlashDevice,
    FlashGeometry,
    PageAddress,
    CellLifetimeModel,
    WearModelConfig,
)
from .faults import FaultConfig, FaultInjector, FaultStats
from .sim import run_trace, run_trace_concurrent, ServerModel, \
    simulate_lifetime, lifetime_ratio
from .workloads import Trace, TraceRecord, build_workload, read_spc
from .power import system_power_breakdown

__version__ = "1.0.0"

__all__ = [
    "CacheError",
    "CacheCapacityError",
    "CacheDegradedError",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FlashDiskCache",
    "FlashCacheConfig",
    "ProgrammableFlashController",
    "FixedEccController",
    "ControllerConfig",
    "DramOnlySystem",
    "FlashBackedSystem",
    "SystemConfig",
    "build_flash_system",
    "DensityPartitionOptimizer",
    "BCHCode",
    "BCHLatencyModel",
    "Crc32",
    "design_code_for_page",
    "CellMode",
    "FlashDevice",
    "FlashGeometry",
    "PageAddress",
    "CellLifetimeModel",
    "WearModelConfig",
    "run_trace",
    "run_trace_concurrent",
    "ServerModel",
    "simulate_lifetime",
    "lifetime_ratio",
    "Trace",
    "TraceRecord",
    "build_workload",
    "read_spc",
    "system_power_breakdown",
    "__version__",
]

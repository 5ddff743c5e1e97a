"""Figure 9: system memory + disk power and network bandwidth.

Two platform pairs, each run on its macro workload:

* dbt2:      512MB DRAM + disk   vs  256MB DRAM + 1GB Flash + disk
* SPECWeb99: 512MB DRAM + disk   vs  128MB DRAM + 2GB Flash + disk

(the paper pairs equal die area: Flash is ~2x denser than DRAM per Table
1, so 256MB of DRAM trades for ~1GB of MLC Flash).  Reported per
configuration: memory read/write/idle power, disk power, and the achieved
network bandwidth normalised to the DRAM-only baseline.  Shapes to match:
the Flash configuration cuts combined memory+disk power by ~2-3x while
holding or improving bandwidth.

All capacities and footprints are scaled down by a common divisor for
simulation speed; power *ratios* survive scaling because busy fractions
and hit rates are preserved.

Seed discipline: the power delta must isolate the architecture, not
workload noise, so **both platform arms replay byte-identical traces** —
the same measurement stream (built from the experiment seed) and the
same warmup stream (built from one seed derived via
:func:`repro.parallel.derive_seed`, shared by both arms; warmup and
measurement use distinct streams so the steady state is not a literal
replay of the cache contents).  The arm tasks therefore carry *equal*
seeds on purpose; deriving per-arm seeds here would silently put the two
bars on different workloads.

Spawn-safety: each arm is one task; the worker rebuilds its workload
streams and platform from picklable primitives, and ``FIG9_CONFIGS`` is
a registry of frozen dataclasses nothing mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.hierarchy import DramOnlySystem, SystemConfig, build_flash_system
from ..parallel import SweepResult, SweepTask, derive_seed, sweep
from ..power.models import PowerBreakdown
from ..sim.engine import SimulationReport, run_trace
from ..workloads.macro import build_workload
from ..workloads.trace import PAGE_BYTES

__all__ = ["Fig9Config", "Fig9Result", "FIG9_CONFIGS", "tasks", "combine"]


@dataclass(frozen=True)
class Fig9Config:
    """One Figure 9 panel: a workload and its two platforms."""

    workload: str
    footprint_bytes: int
    baseline_dram_bytes: int
    flash_dram_bytes: int
    flash_bytes: int


FIG9_CONFIGS: Dict[str, Fig9Config] = {
    "dbt2": Fig9Config(
        workload="dbt2",
        footprint_bytes=2 << 30,
        baseline_dram_bytes=512 << 20,
        flash_dram_bytes=256 << 20,
        flash_bytes=1 << 30,
    ),
    "specweb99": Fig9Config(
        workload="specweb99",
        footprint_bytes=int(1.8 * (1 << 30)),
        baseline_dram_bytes=512 << 20,
        flash_dram_bytes=128 << 20,
        flash_bytes=2 << 30,
    ),
}


@dataclass(frozen=True)
class Fig9Result:
    """Both bars of one panel plus the normalised bandwidth."""

    workload: str
    baseline: PowerBreakdown
    flash: PowerBreakdown

    @property
    def power_ratio(self) -> float:
        """Baseline power over Flash-config power (paper: up to ~3x)."""
        return self.baseline.total_w / self.flash.total_w

    @property
    def relative_bandwidth(self) -> float:
        """Flash-config bandwidth normalised to the baseline."""
        return (self.flash.throughput_rps
                / max(self.baseline.throughput_rps, 1e-9))


def warmup_seed(seed: int) -> int:
    """The warmup stream's seed, shared by both platform arms.

    Derived (not ``seed + 1``) so it cannot collide with another
    experiment's measurement stream, and computed once from the
    experiment seed so every arm warms up on the identical trace.
    """
    return derive_seed(seed, "fig9:warmup")


def _arm_task(workload: str, arm: str, scale_divisor: int,
              num_records: int, warmup_records: int,
              seed: int) -> PowerBreakdown:
    """Worker entry point: one platform arm of one Figure 9 panel.

    The platform first replays the warmup stream to populate its caches,
    then resets the time/energy accounting and measures the steady state
    on the measurement stream — the regime Figure 9 reports.  Both arms
    receive the same ``seed``, so both build byte-identical streams.
    """
    config = FIG9_CONFIGS[workload]
    footprint_pages = max(config.footprint_bytes // scale_divisor
                          // PAGE_BYTES, 1)
    warmup = build_workload(config.workload, num_records=warmup_records,
                            seed=warmup_seed(seed),
                            footprint_pages=footprint_pages)
    records = build_workload(config.workload, num_records=num_records,
                             seed=seed, footprint_pages=footprint_pages)
    if arm == "baseline":
        system = DramOnlySystem(SystemConfig(
            dram_bytes=max(config.baseline_dram_bytes // scale_divisor,
                           PAGE_BYTES),
            power_model_dram_bytes=config.baseline_dram_bytes))
    elif arm == "flash":
        system = build_flash_system(
            dram_bytes=max(config.flash_dram_bytes // scale_divisor,
                           PAGE_BYTES),
            flash_bytes=max(config.flash_bytes // scale_divisor, 1 << 20),
            power_model_dram_bytes=config.flash_dram_bytes,
        )
    else:
        raise ValueError(f"unknown arm {arm!r}")
    system.run(warmup)
    system.reset_measurement()
    report: SimulationReport = run_trace(system, records)
    return report.power


def tasks(workload: str = "dbt2",
          scale_divisor: int = 64,
          num_records: int = 150_000,
          warmup_records: int = 100_000,
          seed: int = 13) -> List[SweepTask]:
    """One Figure 9 panel as two arm tasks.

    Both tasks carry the *same* seed by design — see the module
    docstring's seed discipline.
    """
    return [
        SweepTask(key=f"fig9:{workload}:{arm}", fn=_arm_task,
                  kwargs={"workload": workload, "arm": arm,
                          "scale_divisor": scale_divisor,
                          "num_records": num_records,
                          "warmup_records": warmup_records,
                          "seed": seed})
        for arm in ("baseline", "flash")
    ]


def combine(results: Sequence[SweepResult]) -> Fig9Result:
    """Assemble one panel's two arm results into the figure row."""
    by_arm = {result.key.rsplit(":", 1)[1]: result.unwrap()
              for result in results}
    workload = results[0].key.split(":")[1]
    return Fig9Result(
        workload=workload,
        baseline=by_arm["baseline"],
        flash=by_arm["flash"],
    )


def main() -> None:
    for workload in FIG9_CONFIGS:
        result = combine(sweep(tasks(workload)))
        print(f"Figure 9 ({workload})")
        for label, power in (("DRAM-only", result.baseline),
                             ("DRAM+Flash", result.flash)):
            print(f"  {label:11s} rd={power.mem_read_w:6.3f}W "
                  f"wr={power.mem_write_w:6.3f}W "
                  f"idle={power.mem_idle_w:6.3f}W "
                  f"disk={power.disk_w:6.3f}W "
                  f"total={power.total_w:6.3f}W")
        print(f"  power ratio {result.power_ratio:.2f}x, "
              f"relative bandwidth {result.relative_bandwidth:.2f}")
        print()


if __name__ == "__main__":
    main()

"""Figure 10: server throughput as a function of BCH code strength.

As Flash wears, the controller raises ECC strength everywhere; the decode
latency rides on every Flash read.  The paper sweeps a *uniform* code
strength from 0 to 50 correctable bits on the 256MB-DRAM + 1GB-Flash
platform and reports bandwidth relative to the no-ECC point, for
SPECWeb99 and dbt2.  Expected shape: graceful degradation, with the
disk-bound dbt2 falling off harder past ~15 bits.

The sweep reruns the scaled platform with a fixed-strength controller per
point and converts storage behaviour to throughput with the closed-loop
server model.

Spawn-safety: one task per code strength; the worker rebuilds workload,
platform, and controller from the task's primitives.  The ECC-disabled
reference point pre-loads the decode/encode latency caches of *its own
freshly built* controller — per-task state, never a shared object.  All
strengths deliberately share the experiment seed: the figure replays one
identical trace per workload so the throughput delta isolates the code
strength.  Relative bandwidth is computed in :func:`combine` (parent
process) against the weakest strength in the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.controller import ControllerConfig
from ..core.hierarchy import build_flash_system
from ..ecc.latency import AcceleratorConfig, BCHLatencyModel
from ..parallel import SweepResult, SweepTask, sweep
from ..sim.engine import run_trace
from ..sim.server import ServerModel
from ..workloads.macro import build_workload
from ..workloads.trace import PAGE_BYTES

__all__ = ["ThroughputPoint", "PAPER_STRENGTHS", "tasks", "combine"]

#: The x axis of Figure 10 (0 = ECC disabled reference point).
PAPER_STRENGTHS = (0, 1, 5, 10, 15, 20, 30, 40, 50)


@dataclass(frozen=True)
class ThroughputPoint:
    strength: int
    average_latency_us: float
    flash_busy_us_per_request: float
    relative_bandwidth: float


def _run_at_strength(workload: str, strength: int, scale_divisor: int,
                     num_records: int, seed: int) -> tuple[float, float]:
    """(avg storage latency, flash busy per request) at one strength."""
    footprint_bytes = {"dbt2": 2 << 30,
                       "specweb99": int(1.8 * (1 << 30))}[workload]
    footprint_pages = footprint_bytes // scale_divisor // PAGE_BYTES
    records = build_workload(workload, num_records=num_records, seed=seed,
                             footprint_pages=footprint_pages)
    controller_config = ControllerConfig(
        max_ecc_strength=max(strength, 1),
        initial_ecc_strength=max(strength, 1),
    )
    system = build_flash_system(
        dram_bytes=(256 << 20) // scale_divisor,
        flash_bytes=(1 << 30) // scale_divisor,
        controller_config=controller_config,
    )
    # The controller hardware limit is 12 in the paper; strengths beyond
    # that are simulated "to fully capture the performance trends"
    # (section 7.2), so widen the accelerator model accordingly.
    system.flash.controller.latency_model = BCHLatencyModel(
        AcceleratorConfig(max_t=64))
    if strength == 0:
        # ECC disabled: zero decode/encode latency reference.
        system.flash.controller._decode_cache = {strength: 0.0}
        system.flash.controller._encode_cache = {strength: 0.0}
        for t in range(1, 65):
            system.flash.controller._decode_cache[t] = 0.0
            system.flash.controller._encode_cache[t] = 0.0
    report = run_trace(system, records)
    flash_busy = system.flash.controller.device.stats.busy_us
    decode_busy = 0.0
    if strength > 0:
        decode_model = system.flash.controller.latency_model
        decode_busy = (system.flash.controller.stats.reads
                       * decode_model.decode_us(strength))
    busy_per_request = (flash_busy + decode_busy) / max(report.requests, 1)
    return report.average_latency_us, busy_per_request


def _strength_task(workload: str, strength: int, scale_divisor: int,
                   num_records: int, seed: int
                   ) -> Tuple[int, float, float]:
    """Worker entry point: one strength's (strength, latency, busy)."""
    latency, busy = _run_at_strength(
        workload, strength, scale_divisor, num_records, seed)
    return strength, latency, busy


def tasks(
    workload: str = "specweb99",
    strengths: Sequence[int] = PAPER_STRENGTHS,
    scale_divisor: int = 64,
    num_records: int = 60_000,
    seed: int = 17,
) -> List[SweepTask]:
    """The Figure 10 grid for one workload, one task per code strength."""
    return [SweepTask(key=f"fig10:{workload}:t={strength}",
                      fn=_strength_task,
                      kwargs={"workload": workload, "strength": strength,
                              "scale_divisor": scale_divisor,
                              "num_records": num_records, "seed": seed})
            for strength in strengths]


def combine(results: Sequence[SweepResult],
            server: ServerModel | None = None) -> List[ThroughputPoint]:
    """Normalise each strength's throughput to the weakest in the grid."""
    server = server or ServerModel()
    samples: Dict[int, tuple[float, float]] = {}
    order: List[int] = []
    for result in results:
        strength, latency, busy = result.unwrap()
        samples[strength] = (latency, busy)
        order.append(strength)
    base_latency, base_busy = samples[min(order)]
    base_throughput = server.throughput_rps(base_latency, base_busy)
    points: List[ThroughputPoint] = []
    for strength in order:
        latency, busy = samples[strength]
        throughput = server.throughput_rps(latency, busy)
        points.append(ThroughputPoint(
            strength=strength,
            average_latency_us=latency,
            flash_busy_us_per_request=busy,
            relative_bandwidth=throughput / base_throughput,
        ))
    return points


def main() -> None:
    for workload in ("specweb99", "dbt2"):
        print(f"Figure 10 ({workload}): relative bandwidth vs BCH strength")
        print(f"{'t':>3} {'latency us':>11} {'busy/req us':>12} {'rel bw':>7}")
        for point in combine(sweep(tasks(workload))):
            print(f"{point.strength:>3} {point.average_latency_us:11.1f} "
                  f"{point.flash_busy_us_per_request:12.1f} "
                  f"{point.relative_bandwidth:7.3f}")
        print()


if __name__ == "__main__":
    main()

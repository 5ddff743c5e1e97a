"""Figure 7: optimal access latency and SLC/MLC partition vs die area.

For Financial2 (443.8MB working set) and WebSearch1 (5116.7MB), the paper
sweeps Flash die area up to the full working set and reports, per area,
the latency-minimal SLC fraction and the latency it achieves.  The
reproduction evaluates the analytical partition optimizer over each
workload's popularity distribution.

Paper shapes to look for: Financial2's short tail makes a large (~70%)
SLC share optimal at half the working set, while WebSearch1 wants almost
pure MLC until the die approaches the full working set — where both snap
to 100% SLC and the latency floor of 25 us.

Spawn-safety: one sweep task per workload; the worker builds a fresh
popularity distribution and optimizer from the task's primitives.  The
exponential-tail rescaling below constructs a *new* spec instead of
mutating the shared ``MACRO_WORKLOADS`` entry, so the module-level
registry is never written to from any task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.density import DensityPartitionOptimizer, DensityPartitionPoint
from ..parallel import SweepResult, SweepTask
from ..workloads.macro import MACRO_WORKLOADS

__all__ = ["Fig7Series", "run_density_partition", "FIG7_WORKLOADS",
           "tasks", "combine"]

FIG7_WORKLOADS = ("financial2", "websearch1")

#: Footprints are scaled to this many pages to keep popularity tables
#: small; die areas scale with them so the x axis stays proportional.
_SCALED_FOOTPRINT_PAGES = 1 << 17


@dataclass(frozen=True)
class Fig7Series:
    """One panel of Figure 7."""

    workload: str
    working_set_mb: float
    working_set_area_mm2: float
    points: List[DensityPartitionPoint]


def run_density_partition(
    workload: str,
    area_fractions: Sequence[float] = (0.05, 0.10, 0.25, 0.50, 0.75,
                                       1.00, 1.50, 2.00, 2.20),
    grid_points: int = 51,
) -> Fig7Series:
    """Sweep die area (as a fraction of the working-set area) for one
    workload and return the optimal-partition series."""
    spec = MACRO_WORKLOADS[workload]
    footprint = min(spec.footprint_pages, _SCALED_FOOTPRINT_PAGES)
    scale = spec.footprint_pages / footprint
    tail = spec.tail
    if tail[0] == "exp":
        tail = ("exp", tail[1] * scale)
        spec = type(spec)(
            name=spec.name, description=spec.description,
            footprint_bytes=spec.footprint_bytes,
            read_fraction=spec.read_fraction, tail=tail,
            sequential_write_fraction=spec.sequential_write_fraction)
    distribution = spec.make_distribution(footprint)
    optimizer = DensityPartitionOptimizer(distribution)
    full_area = optimizer.working_set_area_mm2
    areas = [max(full_area * fraction, 1e-3) for fraction in area_fractions]
    points = optimizer.figure_7_series(areas, grid_points=grid_points)
    return Fig7Series(
        workload=workload,
        working_set_mb=spec.footprint_bytes / (1 << 20),
        working_set_area_mm2=full_area * scale,
        points=points,
    )


def tasks(
    workloads: Sequence[str] = FIG7_WORKLOADS,
    area_fractions: Sequence[float] = (0.05, 0.10, 0.25, 0.50, 0.75,
                                       1.00, 1.50, 2.00, 2.20),
    grid_points: int = 51,
) -> List[SweepTask]:
    """One task per workload panel (the optimizer shares its popularity
    table across all die areas, so the panel is the natural unit)."""
    return [SweepTask(key=f"fig7:{workload}", fn=run_density_partition,
                      kwargs={"workload": workload,
                              "area_fractions": tuple(area_fractions),
                              "grid_points": grid_points})
            for workload in workloads]


def combine(results: Sequence[SweepResult]) -> List[Fig7Series]:
    return [result.unwrap() for result in results]


def main() -> None:
    for workload in FIG7_WORKLOADS:
        series = run_density_partition(workload)
        print(f"Figure 7 ({workload}): working set "
              f"{series.working_set_mb:.1f}MB")
        print(f"{'area mm^2':>10} {'SLC %':>7} {'latency us':>11}")
        for point in series.points:
            print(f"{point.die_area_mm2:10.1f} "
                  f"{point.optimal_slc_fraction:7.0%} "
                  f"{point.average_latency_us:11.1f}")
        print()


if __name__ == "__main__":
    main()

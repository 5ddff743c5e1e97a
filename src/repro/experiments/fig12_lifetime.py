"""Figure 12: Flash lifetime, programmable controller vs fixed BCH-1.

For each workload, the number of host accesses until *total Flash
failure* (every block retired), for the programmable controller and a
conventional one-error-correcting controller, normalised to the largest
observed lifetime.  The paper's headline: the programmable controller
extends lifetime by a factor of ~20 on average — a six-month device
stretches past ten years.

Spawn-safety: one task per (workload, controller) pair; the worker runs
a fresh aging simulation from the task's primitives, with overrides as a
plain dict.  Both controllers of a workload share the experiment seed by
design — the comparison must age identical devices under identical
traffic — and the cross-workload normalisation happens in
:func:`combine` (parent process), which needs every pair's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

from ..parallel import SweepResult, SweepTask, sweep
from ..sim.lifetime import simulate_lifetime

__all__ = ["LifetimeRow", "FIG12_WORKLOADS", "tasks", "combine",
           "average_improvement"]

#: The x axis of Figure 12 (the paper omits exp2 in this figure).
FIG12_WORKLOADS = (
    "uniform", "alpha1", "alpha2", "alpha3", "exp1",
    "websearch1", "websearch2", "financial1", "financial2",
)


@dataclass(frozen=True)
class LifetimeRow:
    """One workload's pair of bars."""

    workload: str
    programmable_accesses: float
    bch1_accesses: float
    normalized_programmable: float
    normalized_bch1: float

    @property
    def improvement(self) -> float:
        return self.programmable_accesses / self.bch1_accesses


def _lifetime_task(workload: str, controller: str, seed: int,
                   config_overrides: Optional[dict] = None) -> float:
    """Worker entry point: host accesses to total failure for one pair."""
    result = simulate_lifetime(workload, controller, seed=seed,
                               **(config_overrides or {}))
    return result.host_accesses_to_failure


def tasks(
    workloads: Sequence[str] = FIG12_WORKLOADS,
    seed: int = 42,
    **config_overrides,
) -> List[SweepTask]:
    """The Figure 12 grid, one task per (workload, controller) pair."""
    return [
        SweepTask(key=f"fig12:{workload}:{controller}", fn=_lifetime_task,
                  kwargs={"workload": workload, "controller": controller,
                          "seed": seed,
                          "config_overrides": dict(config_overrides)})
        for workload in workloads
        for controller in ("programmable", "bch1")
    ]


def combine(results: Sequence[SweepResult]) -> List[LifetimeRow]:
    """Pair and normalise every workload's two bars (needs the whole
    grid: the y axis is normalised to the largest observed lifetime)."""
    accesses: Dict[Tuple[str, str], float] = {}
    order: List[str] = []
    for result in results:
        _, workload, controller = result.key.split(":")
        accesses[(workload, controller)] = result.unwrap()
        if workload not in order:
            order.append(workload)
    raw = [(workload, accesses[(workload, "programmable")],
            accesses[(workload, "bch1")]) for workload in order]
    scale = max(value for _, value, _ in raw)
    return [
        LifetimeRow(
            workload=workload,
            programmable_accesses=programmable,
            bch1_accesses=fixed,
            normalized_programmable=programmable / scale,
            normalized_bch1=fixed / scale,
        )
        for workload, programmable, fixed in raw
    ]


def average_improvement(rows: Sequence[LifetimeRow]) -> float:
    """The paper's "factor of 20 on average" summary metric."""
    return mean(row.improvement for row in rows)


def main() -> None:
    rows = combine(sweep(tasks()))
    print("Figure 12: normalized lifetime (programmable vs BCH-1)")
    print(f"{'workload':>12} {'programmable':>13} {'BCH-1':>10} {'gain':>7}")
    for row in rows:
        print(f"{row.workload:>12} {row.normalized_programmable:13.4f} "
              f"{row.normalized_bch1:10.5f} {row.improvement:6.1f}x")
    print(f"average improvement: {average_improvement(rows):.1f}x")


if __name__ == "__main__":
    main()

"""Figure 11: breakdown of page reconfiguration events per workload.

For every traced workload (Flash sized at half the working set, measured
near the onset of cell failures), what fraction of the programmable
controller's descriptor updates raised ECC strength vs switched a page
from MLC to SLC?  The paper's headline trend: the longer a workload's
popularity tail, the more the controller prefers ECC (capacity is
precious); short-tailed (exponential) workloads flip almost entirely to
density reduction.

Spawn-safety: one task per workload; the worker builds a fresh
:class:`~repro.sim.lifetime.AgingConfig` (a frozen dataclass) and
simulator from the task's primitives.  Config overrides travel as a
plain dict of primitives, so tasks pickle cleanly under fork or spawn.
Every workload shares the experiment seed, matching the serial loop the
figure always ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..parallel import SweepResult, SweepTask, sweep
from ..sim.lifetime import AgingConfig, LifetimeSimulator

__all__ = ["ReconfigBreakdown", "FIG11_WORKLOADS", "tasks", "combine"]

#: The x axis of Figure 11, in paper order.
FIG11_WORKLOADS = (
    "uniform", "alpha1", "alpha2", "alpha3", "exp1", "exp2",
    "websearch1", "websearch2", "financial1", "financial2",
)


@dataclass(frozen=True)
class ReconfigBreakdown:
    """One bar of Figure 11."""

    workload: str
    code_strength_fraction: float
    density_fraction: float
    total_updates: int


def _breakdown_task(workload: str, seed: int,
                    config_overrides: Optional[dict] = None
                    ) -> ReconfigBreakdown:
    """Worker entry point: one workload's aging run and decision mix."""
    config = AgingConfig(workload=workload, controller="programmable",
                         seed=seed, **(config_overrides or {}))
    outcome = LifetimeSimulator(config).run()
    breakdown = outcome.early_reconfig_breakdown
    return ReconfigBreakdown(
        workload=workload,
        code_strength_fraction=breakdown["code_strength"],
        density_fraction=breakdown["density"],
        total_updates=sum(outcome.first_choices.values()),
    )


def tasks(
    workloads: Sequence[str] = FIG11_WORKLOADS,
    seed: int = 42,
    **config_overrides,
) -> List[SweepTask]:
    """The Figure 11 grid, one task per workload: its aging simulation's
    early (near-first-failure) decision mix, as the paper measures."""
    return [SweepTask(key=f"fig11:{workload}", fn=_breakdown_task,
                      kwargs={"workload": workload, "seed": seed,
                              "config_overrides": dict(config_overrides)})
            for workload in workloads]


def combine(results: Sequence[SweepResult]) -> List[ReconfigBreakdown]:
    return [result.unwrap() for result in results]


def main() -> None:
    print("Figure 11: descriptor update breakdown (near first failures)")
    print(f"{'workload':>12} {'code strength':>14} {'density':>9}")
    for row in combine(sweep(tasks())):
        print(f"{row.workload:>12} {row.code_strength_fraction:14.0%} "
              f"{row.density_fraction:9.0%}")


if __name__ == "__main__":
    main()

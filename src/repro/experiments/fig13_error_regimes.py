"""Figure 13 (extension): controller robustness across error regimes.

The paper's lifetime study (Figure 12) ages cells with *wear* only.
This extension sweeps the full error-process model of
:mod:`repro.reliability` over three operating regimes — archival cold
data (retention-dominated), a write-hot tenant (wear- and
interference-dominated), and an already-aged device (everything
amplified) — and reports, per regime and controller:

* lifetime (host accesses sustained, and whether the device survived
  the full horizon at all),
* the uncorrectable-error rate (UBER over the probe-read bit volume),
* background scrub traffic (reads/rewrites/blocks refreshed), and
* the repair-choice mix (stronger ECC vs density reduction).

Each regime runs with the programmable controller (scrubbed and
unscrubbed) and the fixed BCH-1 baseline, so the output shows both what
the adaptive ladder buys over fixed ECC and what scrubbing buys on top.

Spawn-safety: one task per (regime, controller, scrub) cell; the worker
rebuilds the simulator from primitives and returns a plain dict.  All
cells share the experiment seed by design — the comparison must expose
identical devices to identical physics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..parallel import SweepResult, SweepTask, sweep
from ..reliability import ScrubConfig
from ..sim.lifetime import simulate_regime, standard_regimes

__all__ = ["RegimeRow", "FIG13_REGIMES", "tasks", "combine"]

#: The x axis: the canonical regimes of the fig13 sweep.
FIG13_REGIMES = ("archival_cold", "write_hot", "aged_device")

#: The per-regime variants: (label, controller, scrub on?).
_VARIANTS = (
    ("programmable+scrub", "programmable", True),
    ("programmable", "programmable", False),
    ("bch1", "bch1", False),
)

#: Scrub cadence used by the scrubbed variant (device time).
_SCRUB = {"interval_us": 5e9, "min_age_us": 1e10, "max_pages_per_pass": 256}


@dataclass(frozen=True)
class RegimeRow:
    """One (regime, variant) cell of the comparison table."""

    regime: str
    variant: str
    survived: bool
    steps_run: int
    host_accesses: float
    uncorrectable_reads: int
    uber: float
    scrub_reads: int
    scrub_rewrites: int
    blocks_refreshed: int
    repair_mix: Dict[str, float] = field(default_factory=dict)


def _regime_task(regime: str, controller: str, scrub: bool, seed: int,
                 config_overrides: Optional[dict] = None) -> Dict[str, Any]:
    """Worker entry point: one regime run, reduced to a plain dict."""
    scrub_config = ScrubConfig(**_SCRUB) if scrub else None
    result = simulate_regime(regime, controller, seed=seed,
                             scrub=scrub_config,
                             **(config_overrides or {}))
    scrub_stats = result.scrub
    return {
        "survived": result.survived,
        "steps_run": result.steps_run,
        "host_accesses": result.host_accesses,
        "uncorrectable_reads": result.uncorrectable_reads,
        "uber": result.uber,
        "scrub_reads": scrub_stats.scrub_reads if scrub_stats else 0,
        "scrub_rewrites": scrub_stats.page_rewrites if scrub_stats else 0,
        "blocks_refreshed": (scrub_stats.blocks_refreshed
                             if scrub_stats else 0),
        "repair_mix": result.repair_breakdown,
    }


def tasks(
    regimes: Sequence[str] = FIG13_REGIMES,
    seed: int = 42,
    **config_overrides,
) -> List[SweepTask]:
    """The fig13 grid, one task per (regime, variant) cell."""
    jobs: List[SweepTask] = []
    for regime in regimes:
        if regime not in standard_regimes():
            raise KeyError(f"unknown regime {regime!r}; known: "
                           f"{', '.join(standard_regimes())}")
        for label, controller, scrub in _VARIANTS:
            jobs.append(SweepTask(
                key=f"fig13:{regime}:{label}", fn=_regime_task,
                kwargs={"regime": regime, "controller": controller,
                        "scrub": scrub, "seed": seed,
                        "config_overrides": dict(config_overrides)}))
    return jobs


def combine(results: Sequence[SweepResult]) -> List[RegimeRow]:
    """Flatten the grid into ordered comparison rows."""
    rows: List[RegimeRow] = []
    for result in results:
        _, regime, variant = result.key.split(":")
        data = result.unwrap()
        rows.append(RegimeRow(regime=regime, variant=variant, **data))
    return rows


def main() -> None:
    rows = combine(sweep(tasks()))
    print("Figure 13: controller robustness across error regimes")
    print(f"{'regime':>14} {'variant':>19} {'alive':>6} {'host acc':>10} "
          f"{'uncorr':>7} {'UBER':>9} {'scrubbed':>9}")
    for row in rows:
        print(f"{row.regime:>14} {row.variant:>19} "
              f"{'yes' if row.survived else 'no':>6} "
              f"{row.host_accesses:10.3g} {row.uncorrectable_reads:7d} "
              f"{row.uber:9.2e} {row.scrub_rewrites:9d}")


if __name__ == "__main__":
    main()

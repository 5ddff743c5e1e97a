"""Figure 6: (a) BCH decode latency and (b) tolerable W/E cycles vs ECC.

Both panels are closed-form in this reproduction — 6(a) from the
accelerator latency model (validated against the functional codec in the
test suite) and 6(b) from the lognormal cell-lifetime model — so the
experiment runners simply evaluate and tabulate the series.

Spawn-safety: the sweep task builders below close over picklable
primitives only (``t`` values, stdev fractions); each worker constructs
its own latency/lifetime model, and no module-level mutable state is
touched, so tasks behave identically under fork, spawn, or in-process
serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..ecc.latency import BCHLatencyModel, DecodeLatency
from ..flash.wear import CellLifetimeModel
from ..parallel import SweepResult, SweepTask, sweep

__all__ = ["Fig6aPoint", "decode_latency_tasks", "combine_decode_latency",
           "tolerable_cycles_tasks", "combine_tolerable_cycles",
           "tasks", "combine"]


@dataclass(frozen=True)
class Fig6aPoint:
    t: int
    syndrome_us: float
    chien_us: float
    total_us: float


def _decode_latency_task(t: int) -> Fig6aPoint:
    """One Figure 6(a) grid point (worker entry point)."""
    latency: DecodeLatency = BCHLatencyModel().decode_latency(t)
    return Fig6aPoint(
        t=t,
        syndrome_us=latency.syndrome_us,
        chien_us=latency.chien_us,
        total_us=latency.total_us,
    )


def _tolerable_cycles_task(stdev_frac: float,
                           t_values: Tuple[int, ...]) -> List[tuple]:
    """One Figure 6(b) curve (worker entry point)."""
    series = CellLifetimeModel.figure_6b_series(
        t_values=list(t_values), stdev_fracs=(stdev_frac,))
    return series[stdev_frac]


def decode_latency_tasks(
        t_values: Sequence[int] = tuple(range(2, 12))) -> List[SweepTask]:
    """The Figure 6(a) grid, one task per ECC strength: decode latency
    split into syndrome + Chien components."""
    return [SweepTask(key=f"fig6a:t={t}", fn=_decode_latency_task,
                      kwargs={"t": t})
            for t in t_values]


def combine_decode_latency(
        results: Sequence[SweepResult]) -> List[Fig6aPoint]:
    return [result.unwrap() for result in results]


def tolerable_cycles_tasks(
    t_values: Sequence[int] = tuple(range(0, 11)),
    stdev_fracs: Sequence[float] = (0.0, 0.05, 0.10, 0.20),
) -> List[SweepTask]:
    """The Figure 6(b) grid, one task per oxide-variation curve: max
    tolerable W/E cycles per ECC strength."""
    return [SweepTask(key=f"fig6b:stdev={frac}", fn=_tolerable_cycles_task,
                      kwargs={"stdev_frac": frac,
                              "t_values": tuple(t_values)})
            for frac in stdev_fracs]


def combine_tolerable_cycles(
        results: Sequence[SweepResult]) -> Dict[float, List[tuple]]:
    return {float(result.key.split("=", 1)[1]): result.unwrap()
            for result in results}


def tasks(t_values_a: Sequence[int] = tuple(range(2, 12)),
          t_values_b: Sequence[int] = tuple(range(0, 11)),
          stdev_fracs: Sequence[float] = (0.0, 0.05, 0.10, 0.20),
          ) -> List[SweepTask]:
    """Both Figure 6 panels as one task list (the ``repro sweep`` grid)."""
    return (decode_latency_tasks(t_values_a)
            + tolerable_cycles_tasks(t_values_b, stdev_fracs))


def combine(results: Sequence[SweepResult]) -> Dict[str, object]:
    """Split a mixed task list back into the two panel series."""
    panel_a = [r for r in results if r.key.startswith("fig6a:")]
    panel_b = [r for r in results if r.key.startswith("fig6b:")]
    return {
        "decode_latency": combine_decode_latency(panel_a),
        "tolerable_cycles": combine_tolerable_cycles(panel_b),
    }


def main() -> None:
    combined = combine(sweep(tasks()))
    print("Figure 6(a): BCH decode latency (us)")
    print(f"{'t':>3} {'syndrome':>9} {'chien':>9} {'total':>9}")
    for point in combined["decode_latency"]:
        print(f"{point.t:>3} {point.syndrome_us:9.1f} {point.chien_us:9.1f} "
              f"{point.total_us:9.1f}")
    print()
    print("Figure 6(b): max tolerable W/E cycles")
    series = combined["tolerable_cycles"]
    ts = [t for t, _ in next(iter(series.values()))]
    header = "stdev " + " ".join(f"t={t:<8d}" for t in ts)
    print(header)
    for frac, points in series.items():
        row = f"{frac:5.0%} " + " ".join(f"{c:<10.2e}" for _, c in points)
        print(row)


if __name__ == "__main__":
    main()

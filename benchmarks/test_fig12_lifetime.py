"""Figure 12: Flash lifetime, programmable controller vs fixed BCH-1."""

from __future__ import annotations

from repro.experiments.fig12_lifetime import (
    FIG12_WORKLOADS,
    average_improvement,
    combine,
    tasks,
)
from repro.parallel import sweep


def test_fig12_lifetime(benchmark, bench_scale):
    rows = benchmark.pedantic(
        lambda: combine(sweep(tasks(
            workloads=FIG12_WORKLOADS,
            num_blocks=bench_scale["aging_blocks"],
            frames_per_block=bench_scale["aging_frames"]))),
        rounds=1, iterations=1)

    print("\nFigure 12: normalized lifetime")
    for row in rows:
        print(f"  {row.workload:12s} programmable="
              f"{row.normalized_programmable:8.4f} "
              f"bch1={row.normalized_bch1:9.6f} "
              f"gain={row.improvement:5.1f}x")
    mean_gain = average_improvement(rows)
    print(f"  average improvement: {mean_gain:.1f}x "
          f"(paper: 'a factor of 20 on average')")

    # The programmable controller wins on every workload, by an order of
    # magnitude on average (paper reports ~20x; the shape target here is
    # a consistent >=10x-class gap, not the absolute factor).
    assert all(row.improvement > 3.0 for row in rows)
    assert mean_gain > 8.0
    # Normalisation: the best programmable run defines 1.0, and every
    # BCH-1 bar sits far below its programmable partner.
    assert max(row.normalized_programmable for row in rows) == 1.0
    for row in rows:
        assert row.normalized_bch1 < row.normalized_programmable

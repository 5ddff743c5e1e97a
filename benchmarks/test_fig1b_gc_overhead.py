"""Figure 1(b): garbage-collection overhead vs occupied Flash space."""

from __future__ import annotations

from repro.experiments.fig1b_gc import combine, tasks
from repro.parallel import sweep


def test_fig1b_gc_overhead(benchmark):
    points = benchmark.pedantic(
        lambda: combine(sweep(tasks(
            occupancies=(0.10, 0.30, 0.50, 0.70, 0.80, 0.90, 0.95),
            flash_blocks=32))),
        rounds=1, iterations=1)

    print("\nFigure 1(b): normalized GC overhead vs used Flash space")
    for point in points:
        print(f"  {point.used_fraction:4.0%}: {point.normalized_overhead:8.2f}"
              f"  (gc/fg={point.gc_overhead:.3f}, runs={point.gc_runs})")

    overhead = {p.used_fraction: p.normalized_overhead for p in points}
    # Shape: negligible at low occupancy, hockey-stick past ~80% — the
    # paper's point that "GC becomes overwhelming well before all of the
    # memory is used" (the eNVy study stopped at 80%).
    assert overhead[0.10] < 1.0
    assert overhead[0.50] < overhead[0.80] < overhead[0.95]
    assert overhead[0.95] > 5 * overhead[0.80] / 2
    assert overhead[0.95] > 25.0

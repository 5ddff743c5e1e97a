"""Figure 6(b): maximum tolerable W/E cycles vs ECC code strength."""

from __future__ import annotations

from repro.experiments.fig6_ecc import (
    combine_tolerable_cycles,
    tolerable_cycles_tasks,
)
from repro.parallel import sweep


def test_fig6b_tolerable_cycles(benchmark):
    series = benchmark(
        lambda: combine_tolerable_cycles(sweep(tolerable_cycles_tasks())))

    print("\nFigure 6(b): max tolerable W/E cycles")
    for frac, points in series.items():
        marks = " ".join(f"t{t}={cycles:.2e}" for t, cycles in points
                         if t in (0, 5, 10))
        print(f"  stdev={frac:4.0%}: {marks}")

    # Every curve anchors at the 100k-cycle spec (t=0, paper's "first
    # point of failure").
    for points in series.values():
        assert abs(points[0][1] - 1e5) / 1e5 < 1e-6
    # Each curve is monotone increasing in t.
    for points in series.values():
        cycles = [c for _, c in points]
        assert cycles == sorted(cycles)
    # Zero variation: ECC buys nothing (flat line); more variation means
    # steeper ECC gains; the extreme curve reaches multi-million cycles
    # (the paper's axis tops at 8e6).
    assert series[0.0][-1][1] == series[0.0][0][1]
    gains = {frac: points[-1][1] / points[0][1]
             for frac, points in series.items()}
    assert gains[0.05] < gains[0.10] < gains[0.20]
    assert series[0.20][-1][1] > 1e6

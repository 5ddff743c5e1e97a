"""Figure 11: descriptor-update breakdown across the Table 4 suite."""

from __future__ import annotations

from repro.experiments.fig11_reconfig import (
    FIG11_WORKLOADS,
    combine,
    tasks,
)
from repro.parallel import sweep


def test_fig11_reconfig_breakdown(benchmark, bench_scale):
    rows = benchmark.pedantic(
        lambda: combine(sweep(tasks(
            workloads=FIG11_WORKLOADS,
            num_blocks=bench_scale["aging_blocks"],
            frames_per_block=bench_scale["aging_frames"]))),
        rounds=1, iterations=1)

    print("\nFigure 11: page reconfiguration events")
    for row in rows:
        print(f"  {row.workload:12s} code strength="
              f"{row.code_strength_fraction:4.0%} "
              f"density={row.density_fraction:4.0%}")

    by_name = {row.workload: row for row in rows}
    # Fractions are a partition.
    for row in rows:
        assert abs(row.code_strength_fraction + row.density_fraction - 1.0) \
            < 1e-9 or row.total_updates == 0
    # The paper's tail-length law: uniform (longest tail) -> almost all
    # ECC-strength updates; exponential (shortest tail) -> almost all
    # density switches; Zipf in between, ordered by alpha.
    assert by_name["uniform"].code_strength_fraction > 0.9
    assert by_name["exp1"].density_fraction > 0.8
    assert by_name["exp2"].density_fraction > 0.8
    assert (by_name["alpha1"].density_fraction
            <= by_name["alpha2"].density_fraction
            <= by_name["alpha3"].density_fraction)
    # Macro traces behave like their tail class (websearch ~ zipf).
    assert 0.0 < by_name["websearch1"].density_fraction < 1.0

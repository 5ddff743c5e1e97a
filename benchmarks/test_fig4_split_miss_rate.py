"""Figure 4: dbt2 miss rate, unified vs split read/write disk cache."""

from __future__ import annotations

from repro.experiments.fig4_split import combine, tasks
from repro.parallel import sweep


def test_fig4_split_vs_unified(benchmark, bench_scale):
    points = benchmark.pedantic(
        lambda: combine(sweep(tasks(
            flash_sizes_mb=(128, 384, 640),
            scale_divisor=bench_scale["scale_divisor"],
            num_records=bench_scale["num_records"] * 5))),
        rounds=1, iterations=1)

    print("\nFigure 4: dbt2 Flash miss rate")
    for point in points:
        print(f"  {point.flash_mb_paper_scale:4d}MB: "
              f"unified={point.unified_miss_rate:7.3%} "
              f"split={point.split_miss_rate:7.3%}")

    # Shape: miss rates fall with cache size for both organisations; the
    # split cache wins at the larger sizes and its advantage grows with
    # cache size ("particularly as disk caches get larger").
    assert points[0].unified_miss_rate > points[-1].unified_miss_rate
    assert points[0].split_miss_rate > points[-1].split_miss_rate
    assert points[-1].split_miss_rate < points[-1].unified_miss_rate
    assert points[-1].improvement > points[0].improvement

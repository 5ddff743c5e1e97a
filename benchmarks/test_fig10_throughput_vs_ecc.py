"""Figure 10: server throughput vs BCH code strength."""

from __future__ import annotations

from repro.experiments.fig10_ecc_throughput import combine, tasks
from repro.parallel import sweep

STRENGTHS = (0, 1, 5, 15, 30, 50)


def _run(workload, bench_scale):
    return combine(sweep(tasks(
        workload,
        strengths=STRENGTHS,
        scale_divisor=bench_scale["scale_divisor"],
        num_records=max(bench_scale["num_records"] // 3, 20_000),
    )))


def test_fig10_both_workloads(benchmark, bench_scale):
    def run_both():
        return {name: _run(name, bench_scale)
                for name in ("specweb99", "dbt2")}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    for name, points in results.items():
        print(f"\nFigure 10 ({name}): relative bandwidth vs BCH strength")
        for point in points:
            print(f"  t={point.strength:2d}: {point.relative_bandwidth:.3f}")

    for name, points in results.items():
        bandwidths = [p.relative_bandwidth for p in points]
        # Graceful monotone degradation from the t=0 reference.
        assert bandwidths[0] == 1.0
        assert all(b <= a + 1e-9 for a, b in zip(bandwidths, bandwidths[1:]))
        # "Throughput degrades slowly with ECC strength": modest by t=5.
        assert bandwidths[2] > 0.85
    # "dbt2 suffers a greater performance loss than SPECWeb99 after 15
    # bits per page" — the disk-bound workload is more sensitive.
    dbt2_tail = results["dbt2"][-1].relative_bandwidth
    specweb_tail = results["specweb99"][-1].relative_bandwidth
    assert dbt2_tail < specweb_tail

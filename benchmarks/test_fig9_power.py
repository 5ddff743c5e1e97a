"""Figure 9: memory + disk power breakdown and network bandwidth."""

from __future__ import annotations

from repro.experiments.fig9_power import combine, tasks
from repro.parallel import sweep


def _print_panel(result):
    print(f"\nFigure 9 ({result.workload}):")
    for label, power in (("DRAM-only ", result.baseline),
                         ("DRAM+Flash", result.flash)):
        print(f"  {label}: rd={power.mem_read_w:6.3f} "
              f"wr={power.mem_write_w:6.3f} idle={power.mem_idle_w:6.3f} "
              f"disk={power.disk_w:6.3f} total={power.total_w:6.3f}W")
    print(f"  power ratio={result.power_ratio:.2f}x "
          f"relative bandwidth={result.relative_bandwidth:.2f}")


def test_fig9_dbt2(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: combine(sweep(tasks(
            "dbt2", scale_divisor=bench_scale["scale_divisor"],
            num_records=bench_scale["num_records"]))),
        rounds=1, iterations=1)
    _print_panel(result)
    # Shape: the Flash configuration saves memory+disk power while
    # maintaining bandwidth (paper: savings "up to 3 times").
    assert result.power_ratio > 1.0
    assert result.relative_bandwidth > 0.9
    # Memory idle power halves with the smaller DRAM (512MB -> 256MB).
    assert result.flash.mem_idle_w < result.baseline.mem_idle_w


def test_fig9_specweb99(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: combine(sweep(tasks(
            "specweb99", scale_divisor=bench_scale["scale_divisor"],
            num_records=bench_scale["num_records"]))),
        rounds=1, iterations=1)
    _print_panel(result)
    assert result.power_ratio > 1.2
    assert result.relative_bandwidth > 1.0   # flash config serves faster
    assert result.flash.disk_w < result.baseline.disk_w

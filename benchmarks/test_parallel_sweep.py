"""Parallel sweep runner: parallel==serial equivalence and speedup.

Regenerates a real figure grid through :func:`repro.parallel.sweep` at
several worker counts, asserts the combined series are bit-identical to
the serial run, and — on machines with enough cores — that the
process-pool fan-out actually buys wall-clock time.  The full-scale
Figure 10 grid rides behind REPRO_BENCH_FULL=1 like the other heavy
benchmarks.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments import fig6_ecc, fig10_ecc_throughput
from repro.experiments.report import ReportScale
from repro.experiments.sweeps import run_sweep
from repro.parallel import sweep


def full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def test_fig6_grid_parallel_matches_serial(benchmark):
    tasks = fig6_ecc.tasks()
    serial = fig6_ecc.combine(sweep(tasks, workers=1))
    parallel = fig6_ecc.combine(benchmark(sweep, tasks, workers=4))

    print(f"\nparallel sweep: {len(tasks)} fig6 tasks at 4 workers")
    assert parallel == serial
    assert [p.t for p in parallel["decode_latency"]] == list(range(2, 12))


def test_quick_sweep_document_identical_across_workers():
    scale = ReportScale.quick()
    figures = ["fig6", "fig1b", "fig11"]
    serial = run_sweep(figures=figures, scale=scale, workers=1)
    parallel = run_sweep(figures=figures, scale=scale, workers=4)

    print(f"\nquick sweep: {serial['meta']['tasks']} tasks "
          f"(serial {serial['meta']['elapsed_s']}s, "
          f"4 workers {parallel['meta']['elapsed_s']}s)")
    assert serial["meta"]["errors"] == {}
    assert parallel["meta"]["errors"] == {}
    assert serial["figures"] == parallel["figures"]


def test_resume_replay_is_near_free(tmp_path):
    """Resuming a fully journaled sweep replays instead of recomputing:
    the figures are identical and the replay costs a small fraction of
    the original run."""
    scale = ReportScale.quick()
    figures = ["fig6", "fig1b"]
    journal = str(tmp_path / "sweep.jsonl")

    started = time.perf_counter()
    fresh = run_sweep(figures=figures, scale=scale, workers=2,
                      journal_path=journal)
    fresh_s = time.perf_counter() - started

    started = time.perf_counter()
    resumed = run_sweep(figures=figures, scale=scale, workers=2,
                        journal_path=journal, resume=True)
    resumed_s = time.perf_counter() - started

    print(f"\nresume replay: fresh {fresh_s:.2f}s, "
          f"resumed {resumed_s:.2f}s "
          f"({resumed['meta']['resumed_tasks']} tasks replayed)")
    assert resumed["figures"] == fresh["figures"]
    assert resumed["meta"]["resumed_tasks"] == fresh["meta"]["tasks"]
    assert resumed_s < max(fresh_s * 0.5, 1.0)


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 physical cores; "
                           f"this machine has {os.cpu_count()}")
def test_sweep_speedup_at_four_workers():
    """>= 1.5x wall-clock speedup on a CPU-bound grid at 4 workers."""
    workload = "specweb99"
    strengths = (0, 5, 15, 50)
    num_records = 60_000 if full_scale() else 20_000
    tasks = fig10_ecc_throughput.tasks(
        workload, strengths=strengths, num_records=num_records)

    started = time.perf_counter()
    serial = sweep(tasks, workers=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = sweep(tasks, workers=4)
    parallel_s = time.perf_counter() - started

    speedup = serial_s / parallel_s
    print(f"\nfig10 grid ({len(tasks)} tasks): serial {serial_s:.1f}s, "
          f"4 workers {parallel_s:.1f}s -> {speedup:.2f}x")
    assert [r.unwrap() for r in parallel] == [r.unwrap() for r in serial]
    assert speedup >= 1.5


def test_full_fig10_grid_parallel(bench_scale):
    """The heavier trace-driven grid, parallel vs serial (full scale
    behind REPRO_BENCH_FULL=1)."""
    if not full_scale():
        pytest.skip("heavy grid: set REPRO_BENCH_FULL=1")
    grid = fig10_ecc_throughput.tasks(
        "dbt2", scale_divisor=bench_scale["scale_divisor"],
        num_records=bench_scale["num_records"])
    points = fig10_ecc_throughput.combine(sweep(grid, workers=4))
    serial = fig10_ecc_throughput.combine(sweep(grid, workers=1))
    assert points == serial

"""Parallel sweep runner: seeding, isolation, merging, determinism.

Covers the determinism contract of :mod:`repro.parallel` end to end:
stable seed derivation, failure isolation, ordered aggregation, telemetry
merge semantics, worker-count invariance for real figure grids, the
Figure 9 shared-seed discipline, and the engine's request-counter
reconciliation.
"""

import os
import subprocess
import sys

import pytest

from repro.core.hierarchy import build_flash_system
from repro.experiments import fig6_ecc, fig9_power
from repro.experiments.sweeps import run_sweep
from repro.parallel import (
    SweepError,
    SweepResult,
    SweepTask,
    derive_seed,
    merge_telemetry,
    sweep,
)
from repro.sim.engine import run_trace
from repro.telemetry import LatencyHistogram, MetricsRegistry, Telemetry
from repro.telemetry.timeseries import TimeSeries
from repro.workloads.macro import build_workload


# ---------------------------------------------------------------------------
# module-level task functions (picklable for the process-pool tests)

def _double(value):
    return value * 2


def _boom(value):
    raise ValueError(f"boom {value}")


def _seed_echo(seed):
    return seed


# ---------------------------------------------------------------------------
# derive_seed

class TestDeriveSeed:
    def test_known_value_is_stable_across_releases(self):
        # Pinned: changing the derivation silently changes every derived
        # stream in every experiment.
        assert derive_seed(13, "fig6:t=4") == 1081298997794347082

    def test_range_and_determinism(self):
        seen = set()
        for key in ("a", "b", "fig9:warmup", "fig6:t=4"):
            for base in (0, 1, 13, 2**31):
                value = derive_seed(base, key)
                assert 0 <= value < 2**63
                assert value == derive_seed(base, key)
                seen.add(value)
        assert len(seen) == 16  # no collisions in this tiny sample

    def test_distinct_inputs_distinct_seeds(self):
        assert derive_seed(13, "a") != derive_seed(13, "b")
        assert derive_seed(13, "a") != derive_seed(14, "a")

    def test_independent_of_pythonhashseed(self):
        # hash() would differ between these two children; SHA-256 must not.
        code = "from repro.parallel import derive_seed; " \
               "print(derive_seed(13, 'fig6:t=4'))"
        outputs = set()
        for hashseed in ("0", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in sys.path if p) + os.pathsep + \
                env.get("PYTHONPATH", "")
            outputs.add(subprocess.run(
                [sys.executable, "-c", code], env=env, timeout=60,
                capture_output=True, text=True,
                check=True).stdout.strip())
        assert outputs == {"1081298997794347082"}


# ---------------------------------------------------------------------------
# sweep() mechanics

class TestSweepMechanics:
    def test_results_in_task_order(self):
        tasks = [SweepTask(key=f"t{i}", fn=_double, kwargs={"value": i})
                 for i in range(5)]
        results = sweep(tasks, workers=1)
        assert [r.key for r in results] == [t.key for t in tasks]
        assert [r.value for r in results] == [0, 2, 4, 6, 8]
        assert all(r.ok for r in results)

    def test_seed_injected_into_kwargs(self):
        task = SweepTask(key="seeded", fn=_seed_echo, seed=1234)
        (result,) = sweep([task])
        assert result.value == 1234

    def test_duplicate_keys_rejected(self):
        tasks = [SweepTask(key="same", fn=_double, kwargs={"value": 1}),
                 SweepTask(key="same", fn=_double, kwargs={"value": 2})]
        with pytest.raises(ValueError, match="duplicate sweep task keys"):
            sweep(tasks)

    def test_failure_isolated_to_its_task(self):
        tasks = [SweepTask(key="good", fn=_double, kwargs={"value": 3}),
                 SweepTask(key="bad", fn=_boom, kwargs={"value": 9}),
                 SweepTask(key="also-good", fn=_double,
                           kwargs={"value": 4})]
        results = sweep(tasks, workers=1)
        good, bad, also_good = results
        assert good.ok and good.value == 6
        assert also_good.ok and also_good.value == 8
        assert not bad.ok
        assert "ValueError" in bad.error and "boom 9" in bad.error
        with pytest.raises(SweepError, match="sweep task 'bad' failed"):
            bad.unwrap()

    def test_failure_isolated_across_processes(self):
        tasks = [SweepTask(key="good", fn=_double, kwargs={"value": 3}),
                 SweepTask(key="bad", fn=_boom, kwargs={"value": 9})]
        results = sweep(tasks, workers=2)
        assert results[0].ok and results[0].value == 6
        assert not results[1].ok and "boom 9" in results[1].error

    def test_progress_callback_sees_every_task(self):
        calls = []
        tasks = [SweepTask(key=f"t{i}", fn=_double, kwargs={"value": i})
                 for i in range(4)]
        sweep(tasks, workers=1,
              progress=lambda r, done, total: calls.append(
                  (r.key, done, total)))
        assert [c[1] for c in calls] == [1, 2, 3, 4]
        assert all(c[2] == 4 for c in calls)
        assert {c[0] for c in calls} == {t.key for t in tasks}

    def test_unwrap_returns_value_when_ok(self):
        assert SweepResult(key="k", value=7).unwrap() == 7


# ---------------------------------------------------------------------------
# telemetry merge semantics

class TestTelemetryMerge:
    def test_histogram_merge_is_exact(self):
        a = LatencyHistogram("lat")
        b = LatencyHistogram("lat")
        both = LatencyHistogram("lat")
        for value in (5.0, 80.0, 1500.0):
            a.observe(value)
            both.observe(value)
        for value in (2.0, 80.0, 10**9):
            b.observe(value)
            both.observe(value)
        # Past 2**54 floats are 4 apart, so each side's subtotal rounds
        # differently from one running total over every sample.
        a.observe(1.0)
        both.observe(1.0)
        b.observe(2.0**54)
        both.observe(2.0**54)
        a_total, b_total = a.total, b.total
        a.merge(b)
        assert a.counts == both.counts
        assert a.overflow == both.overflow
        assert a.count == both.count
        assert a.min == both.min and a.max == both.max
        assert a.total == a_total + b_total
        assert a.total != both.total

    def test_histogram_merge_rejects_different_edges(self):
        a = LatencyHistogram("lat", edges=(1.0, 2.0))
        b = LatencyHistogram("lat", edges=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket edges"):
            a.merge(b)

    def test_histogram_survives_pickling(self):
        import pickle

        hist = LatencyHistogram("lat")
        for value in (3.0, 50.0, 900.0):
            hist.observe(value)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        clone.observe(4.0)  # _pending/_push restored and functional
        assert clone.count == hist.count + 1

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        b.counter("only_b").inc(1)
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        a.histogram("h").observe(10.0)
        b.histogram("h").observe(20.0)
        a.merge(b)
        assert a.counters["c"].value == 7
        assert a.counters["only_b"].value == 1
        assert a.gauges["g"].value == 2.0  # last write wins
        assert a.histograms["h"].count == 2

    def test_timeseries_extend_concatenates(self):
        a, b = TimeSeries("s"), TimeSeries("s")
        a.append(1, 10.0)
        b.append(2, 20.0)
        a.extend(b)
        assert a.as_dict() == {"x": [1, 2], "y": [10.0, 20.0]}

    def test_merge_telemetry_skips_none_and_handles_empty(self):
        assert merge_telemetry([]) is None
        assert merge_telemetry([None, None]) is None
        handle = Telemetry(sample_interval=7)
        handle.metrics.counter("c").inc(2)
        merged = merge_telemetry([None, handle])
        assert merged is not None
        assert merged.sample_interval == 7
        assert merged.metrics.counters["c"].value == 2

    def test_per_task_handles_equal_shared_handle(self):
        # The contract merge_telemetry() exists for: N per-task handles
        # folded together must equal one handle shared across the tasks.
        def observe(handle, offset):
            handle.read_latency.observe(10.0 + offset)
            handle.metrics.counter("request.reads").inc(1 + offset)
            handle.series("miss_rate").append(offset, offset / 10.0)

        shared = Telemetry()
        per_task = []
        for offset in range(3):
            observe(shared, offset)
            own = Telemetry()
            observe(own, offset)
            per_task.append(own)
        merged = merge_telemetry(per_task)
        assert merged.metrics.as_dict() == shared.metrics.as_dict()
        assert {name: series.as_dict()
                for name, series in merged.timeseries.items()} == \
               {name: series.as_dict()
                for name, series in shared.timeseries.items()}


# ---------------------------------------------------------------------------
# determinism of the simulation itself

def _small_run(seed, telemetry=None):
    records = build_workload("dbt2", num_records=1500, seed=seed,
                             footprint_pages=512)
    system = build_flash_system(dram_bytes=1 << 20, flash_bytes=4 << 20)
    return run_trace(system, records, telemetry=telemetry)


class TestDeterminism:
    def test_same_seed_identical_report(self):
        first = _small_run(99, telemetry=Telemetry(sample_interval=200))
        second = _small_run(99, telemetry=Telemetry(sample_interval=200))
        for field in ("requests", "reads", "writes", "average_latency_us",
                      "wall_clock_us", "throughput_rps", "disk_reads",
                      "disk_writes", "flash_miss_rate",
                      "flash_live_capacity"):
            assert getattr(first, field) == getattr(second, field), field
        assert first.read_latency.counts == second.read_latency.counts
        assert first.write_latency.counts == second.write_latency.counts
        assert first.read_latency.total == second.read_latency.total
        assert {k: s.as_dict() for k, s in first.timeseries.items()} == \
               {k: s.as_dict() for k, s in second.timeseries.items()}

    def test_different_seed_different_trace(self):
        assert build_workload("dbt2", num_records=100, seed=1,
                              footprint_pages=512) != \
               build_workload("dbt2", num_records=100, seed=2,
                              footprint_pages=512)


# ---------------------------------------------------------------------------
# worker-count invariance on real figure grids

class TestWorkerCountInvariance:
    def test_fig6_grid_serial_equals_parallel(self):
        tasks = fig6_ecc.tasks(t_values_a=(2, 5, 8),
                               t_values_b=(0, 5, 10),
                               stdev_fracs=(0.0, 0.10))
        serial = fig6_ecc.combine(sweep(tasks, workers=1))
        two = fig6_ecc.combine(sweep(tasks, workers=2))
        four = fig6_ecc.combine(sweep(tasks, workers=4))
        assert serial == two == four

    def test_run_sweep_figures_identical_across_workers(self):
        from repro.experiments.report import ReportScale

        scale = ReportScale.quick()
        serial = run_sweep(figures=["fig6"], scale=scale, workers=1)
        parallel = run_sweep(figures=["fig6"], scale=scale, workers=4)
        assert serial["figures"] == parallel["figures"]
        assert serial["meta"]["errors"] == {}
        assert parallel["meta"]["errors"] == {}

    def test_fig13_error_regimes_identical_across_workers(self):
        """The error-process model's per-frame RNG streams and the
        RNG-free scrub schedule must make regime results — error counts,
        scrub decisions, UBER — identical at any worker count."""
        from repro.experiments.report import ReportScale

        scale = ReportScale.quick()
        serial = run_sweep(figures=["fig13"], scale=scale, workers=1)
        parallel = run_sweep(figures=["fig13"], scale=scale, workers=4)
        assert serial["figures"] == parallel["figures"]
        assert serial["meta"]["errors"] == {}
        assert parallel["meta"]["errors"] == {}

    def test_run_sweep_rejects_unknown_figure(self):
        with pytest.raises(KeyError, match="unknown sweep figures"):
            run_sweep(figures=["fig99"])


# ---------------------------------------------------------------------------
# Figure 9 seed discipline (the comparison-arm bug this PR fixes)

class TestFig9SeedDiscipline:
    def test_arm_tasks_carry_equal_seeds(self):
        tasks = fig9_power.tasks("dbt2", seed=21)
        seeds = {task.kwargs["seed"] for task in tasks}
        assert seeds == {21}, \
            "both Figure 9 arms must replay the identical trace"

    def test_warmup_stream_shared_and_derived(self):
        assert fig9_power.warmup_seed(13) == derive_seed(13, "fig9:warmup")
        # Distinct from the measurement stream and from seed+1 (the old
        # ad-hoc scheme another experiment's seed could collide with).
        assert fig9_power.warmup_seed(13) not in (13, 14)

    def test_both_arms_build_identical_streams(self):
        tasks = fig9_power.tasks("dbt2", seed=21, num_records=500,
                                 warmup_records=300)
        streams = []
        for task in tasks:
            k = task.kwargs
            footprint = fig9_power.FIG9_CONFIGS["dbt2"].footprint_bytes \
                // k["scale_divisor"] // 4096
            streams.append((
                build_workload("dbt2", num_records=k["warmup_records"],
                               seed=fig9_power.warmup_seed(k["seed"]),
                               footprint_pages=footprint),
                build_workload("dbt2", num_records=k["num_records"],
                               seed=k["seed"],
                               footprint_pages=footprint),
            ))
        assert streams[0] == streams[1]


# ---------------------------------------------------------------------------
# engine request-counter reconciliation

class TestEngineCounters:
    def test_timeseries_x_axis_matches_request_count(self):
        telemetry = Telemetry(sample_interval=100)
        report = _small_run(7, telemetry=telemetry)
        for name, series in report.timeseries.items():
            assert series.as_dict()["x"][-1] == report.requests, name

    def test_second_run_continues_the_x_axis(self):
        records = build_workload("dbt2", num_records=400, seed=7,
                                 footprint_pages=512)
        system = build_flash_system(dram_bytes=1 << 20,
                                    flash_bytes=4 << 20)
        telemetry = Telemetry(sample_interval=100)
        run_trace(system, records, telemetry=telemetry)
        report = run_trace(system, records, telemetry=telemetry)
        # x axis is cumulative across both calls, not restarted at zero.
        assert report.requests == system.stats.requests
        xs = report.timeseries["flash_miss_rate"].as_dict()["x"]
        assert xs == sorted(xs)
        assert xs[-1] == report.requests


# ---------------------------------------------------------------------------
# CLI

class TestSweepCli:
    def test_sweep_writes_json_document(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--figures", "fig6", "--workers", "1",
                   "--scale", "quick", "--quiet", "--out", str(out)])
        assert rc == 0
        import json

        document = json.loads(out.read_text())
        assert document["meta"]["errors"] == {}
        assert document["meta"]["figures"] == ["fig6"]
        assert "decode_latency" in document["figures"]["fig6"]

    def test_sweep_stdout_and_progress(self, capsys):
        from repro.__main__ import main

        rc = main(["sweep", "--figures", "fig6", "--workers", "1",
                   "--scale", "quick"])
        assert rc == 0
        captured = capsys.readouterr()
        assert '"fig6"' in captured.out
        assert "[1/" in captured.err  # progress lines on stderr

    def test_sweep_unknown_figure_fails_cleanly(self, capsys):
        from repro.__main__ import main

        rc = main(["sweep", "--figures", "nope", "--quiet"])
        assert rc == 2
        assert "unknown sweep figures" in capsys.readouterr().err

    def test_report_accepts_workers_flag(self, capsys):
        from repro.__main__ import main

        rc = main(["report", "--scale", "quick", "--sections", "fig6",
                   "--workers", "2"])
        assert rc == 0
        assert "Decode latency" in capsys.readouterr().out

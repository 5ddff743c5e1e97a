"""Telemetry subsystem: metrics math, sampling, exporters, and
the zero-perturbation contract (instrumented runs report the exact same
simulation results as un-instrumented ones)."""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import textwrap
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.controller import ControllerConfig
from repro.core.hierarchy import build_flash_system
from repro.faults.injector import FaultConfig
from repro.sim.concurrent import run_trace_concurrent
from repro.sim.engine import run_trace
from repro.sim.server import ServerModel
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS_US,
    LatencyHistogram,
    MetricsRegistry,
    Telemetry,
    TimeSeries,
    TraceSampler,
)
from repro.telemetry.export import (
    histograms_to_csv,
    series_to_csv,
    telemetry_to_dict,
    to_json,
    write_csv,
    write_json,
)
from repro.workloads.macro import build_workload


def _build_system(fault_rate: float = 0.0, seed: int = 3):
    fault_config = (FaultConfig.uniform(fault_rate, seed=seed)
                    if fault_rate > 0.0 else None)
    return build_flash_system(
        dram_bytes=2 << 20, flash_bytes=8 << 20,
        controller_config=ControllerConfig(read_retry_max=2),
        fault_config=fault_config, seed=seed)


def _trace(num_records: int = 3000, seed: int = 3):
    return build_workload("dbt2", num_records=num_records,
                          footprint_pages=8192, seed=seed)


class TestLatencyHistogram:
    def test_empty_histogram(self):
        hist = LatencyHistogram("h")
        assert hist.count == 0
        assert hist.percentile(50.0) == 0.0
        assert hist.p99 == 0.0
        assert hist.mean == 0.0
        assert hist.summary()["min"] == 0.0

    def test_single_sample_percentiles_exact(self):
        hist = LatencyHistogram("h")
        hist.observe(3.7)
        # Clamping to [min, max] makes every percentile the sample itself.
        for p in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert hist.percentile(p) == pytest.approx(3.7)

    def test_bucket_boundary_sample_lands_in_owning_bucket(self):
        # Edges are upper-inclusive: a sample exactly on an edge belongs
        # to that edge's bucket (bisect_left semantics).
        hist = LatencyHistogram("h", edges=(10.0, 20.0, 50.0))
        hist.observe(10.0)
        hist.observe(20.0)
        assert hist.counts == [1, 1, 0]
        assert hist.overflow == 0

    def test_overflow_and_max(self):
        hist = LatencyHistogram("h", edges=(10.0, 20.0))
        for v in (5.0, 15.0, 1000.0):
            hist.observe(v)
        assert hist.overflow == 1
        assert hist.max == 1000.0
        # The p99 rank lands in the unbounded overflow bucket; the
        # observed max is the reported bound.
        assert hist.percentile(99.0) == 1000.0

    def test_interpolation_inside_bucket(self):
        hist = LatencyHistogram("h", edges=(10.0, 20.0))
        # 10 samples spread through (10, 20]: median interpolates inside.
        for v in range(11, 21):
            hist.observe(float(v))
        p50 = hist.percentile(50.0)
        assert 10.0 < p50 < 20.0
        assert hist.min == 11.0 and hist.max == 20.0

    def test_percentile_monotone(self):
        hist = LatencyHistogram("h")
        for v in (0.5, 3.0, 40.0, 90.0, 800.0, 4000.0, 70_000.0, 250_000.0):
            hist.observe(v)
        values = [hist.percentile(p) for p in (10, 25, 50, 75, 90, 99)]
        assert values == sorted(values)

    def test_rejects_bad_edges_and_percentiles(self):
        with pytest.raises(ValueError):
            LatencyHistogram("h", edges=(5.0, 5.0))
        with pytest.raises(ValueError):
            LatencyHistogram("h", edges=())
        hist = LatencyHistogram("h")
        with pytest.raises(ValueError):
            hist.percentile(101.0)


#: Batch sizes around every branch of the fold: the plain loop below 32,
#: numpy's sequential (< 8), eight-accumulator (<= 128) and split
#: (> 128) blocks, and a whole drain.
FOLD_SIZES = (0, 1, 7, 8, 31, 32, 127, 128, 129, 8192, 65536)

_fold_values = st.one_of(
    st.sampled_from(DEFAULT_LATENCY_BUCKETS_US),       # exact edges
    st.sampled_from((0.0, -0.0)),
    st.floats(100_000.0, 1e9, exclude_min=True),       # overflow
    st.floats(-1e-6, 0.0, exclude_max=True),           # tiny negatives
    st.floats(0.0, 100_000.0))


@pytest.fixture(scope="module")
def numpy():
    return pytest.importorskip("numpy")


def _numpy_fold_state(np, name, batch):
    """The state one fold of ``batch`` leaves, computed as histograms
    did while numpy summed them: numpy from 32 samples up, a plain loop
    below."""
    edges = list(DEFAULT_LATENCY_BUCKETS_US)
    counts = [0] * len(edges)
    overflow, total, low, high = 0, 0.0, float("inf"), 0.0
    if len(batch) >= 32:
        samples = np.asarray(batch)
        total += float(samples.sum())
        low = min(low, float(samples.min()))
        high = max(high, float(samples.max()))
        per_bucket = np.bincount(
            np.searchsorted(edges, samples, side="left"),
            minlength=len(edges) + 1)
        counts = [int(bucket) for bucket in per_bucket[:-1]]
        overflow = int(per_bucket[-1])
    elif batch:
        for value in batch:
            total += value
            index = bisect_left(edges, value)
            if index < len(edges):
                counts[index] += 1
            else:
                overflow += 1
        low = min(low, min(batch))
        high = max(high, max(batch))
    return {"name": name, "edges": edges, "counts": counts,
            "overflow": overflow, "count": len(batch), "total": total,
            "min": low, "max": high}


def _with_fold_sizes(test):
    for size in FOLD_SIZES:
        test = example(size=size, pool=[0.0, 1.0, 123.456, 2e5, -1e-9],
                       seed=size)(test)
    return test


class TestHistogramFold:
    """The pure-Python fold reproduces numpy's summation order exactly:
    the same batch leaves the same state, down to the total's last
    bit."""

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(size=st.one_of(st.sampled_from(FOLD_SIZES),
                          st.integers(0, 20_000)),
           pool=st.lists(_fold_values, min_size=1, max_size=24),
           seed=st.integers(0, 2**32 - 1))
    @_with_fold_sizes
    def test_bit_identical_to_numpy_sum(self, numpy, size, pool, seed):
        rng = random.Random(seed)
        # Half the samples repeat the drawn pool, half are spread over
        # six decades, so sums are order-sensitive.
        batch = [rng.choice(pool) if rng.random() < 0.5
                 else rng.lognormvariate(3.0, 3.0) for _ in range(size)]
        hist = LatencyHistogram("h")
        for value in batch:
            hist.observe(value)
        state = hist.__getstate__()
        expected = _numpy_fold_state(numpy, "h", batch)
        assert state == expected
        assert float.hex(state["total"]) == float.hex(expected["total"])


def test_simulation_never_imports_numpy(tmp_path):
    """The simulator is pure standard library: importing it, running a
    qd16 engine run and a cluster, and summarising leave numpy
    unloaded."""
    code = textwrap.dedent("""
        import sys
        import repro
        from repro.cluster.cluster import ClusterScenario, run_cluster
        from repro.core.hierarchy import build_flash_system
        from repro.sim.concurrent import run_trace_concurrent
        from repro.sim.engine import summarise_system
        from repro.workloads.macro import build_workload

        records = build_workload("websearch1", num_records=2000, seed=3,
                                 footprint_pages=1024)
        system = build_flash_system(dram_bytes=256 << 10,
                                    flash_bytes=2 << 20)
        report = run_trace_concurrent(system, records, queue_depth=16,
                                      channels=4, planes=2)
        assert report.queueing.queue_delay.count > 0
        summarise_system(system)
        result = run_cluster(ClusterScenario(
            shards=3, replicas=2, rate_rps=4000.0, duration_s=0.1,
            footprint_pages=1024, seed=3))
        assert result.completed > 0
        assert "numpy" not in sys.modules, "numpy was imported"
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in sys.path if p) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=tmp_path, timeout=120, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_as_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(7.0)
        snapshot = registry.as_dict()
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["gauges"] == {"g": 2.5}
        assert snapshot["histograms"]["h"]["count"] == 1


class TestTraceSampler:
    def test_multi_window_jump_samples_once(self):
        telemetry = Telemetry(sample_interval=10)
        system = _build_system()
        sampler = TraceSampler(telemetry, system, interval=10)
        sampler.maybe_sample(35)  # jumped three windows at once
        series = telemetry.timeseries["flash_miss_rate"]
        assert series.xs == [35]
        sampler.maybe_sample(39)  # still inside the landed window
        assert series.xs == [35]
        sampler.maybe_sample(40)
        assert series.xs == [35, 40]

    def test_finalize_skips_duplicate_position(self):
        telemetry = Telemetry(sample_interval=10)
        system = _build_system()
        sampler = TraceSampler(telemetry, system, interval=10)
        sampler.maybe_sample(10)
        sampler.finalize(10)
        assert telemetry.timeseries["flash_miss_rate"].xs == [10]
        sampler.finalize(13)
        assert telemetry.timeseries["flash_miss_rate"].xs == [10, 13]

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TraceSampler(Telemetry(), _build_system(), interval=0)
        with pytest.raises(ValueError):
            Telemetry(sample_interval=0)


class TestRunTraceTelemetry:
    def test_disabled_run_has_no_telemetry_fields(self):
        report = run_trace(_build_system(), _trace(800))
        assert report.read_latency is None
        assert report.timeseries is None
        assert report.read_latency_p50 is None
        assert report.write_latency_p99 is None

    def test_instrumented_run_matches_plain_run_exactly(self):
        """The zero-perturbation contract: attaching telemetry must not
        change a single simulated number."""
        plain = run_trace(_build_system(fault_rate=0.05), _trace())
        instrumented = run_trace(_build_system(fault_rate=0.05), _trace(),
                                 telemetry=Telemetry(sample_interval=500))
        assert instrumented.requests == plain.requests
        assert instrumented.average_latency_us == plain.average_latency_us
        assert instrumented.wall_clock_us == plain.wall_clock_us
        assert instrumented.flash_miss_rate == plain.flash_miss_rate
        assert instrumented.flash_live_capacity == plain.flash_live_capacity
        assert instrumented.pdc == plain.pdc
        assert instrumented.flash == plain.flash
        assert instrumented.controller == plain.controller
        assert instrumented.faults == plain.faults
        assert instrumented.disk_reads == plain.disk_reads
        assert instrumented.disk_writes == plain.disk_writes
        assert instrumented.power == plain.power

    def test_report_percentiles_and_series_populated(self):
        telemetry = Telemetry(sample_interval=500)
        report = run_trace(_build_system(), _trace(), telemetry=telemetry)
        assert report.read_latency is not None
        assert report.read_latency.count == report.reads
        assert report.write_latency.count == report.writes
        assert report.read_latency_p50 <= report.read_latency_p95 \
            <= report.read_latency_p99
        assert report.timeseries is telemetry.timeseries
        series = report.timeseries["flash_miss_rate"]
        assert len(series) >= 2
        # End-of-trace finalize: the last x is the full request count.
        assert series.xs[-1] == report.requests

    def test_counters_agree_with_simulation_stats(self):
        telemetry = Telemetry(sample_interval=500)
        report = run_trace(_build_system(), _trace(), drain=False,
                           telemetry=telemetry)
        counters = telemetry.metrics.counters
        assert counters["request.reads"].value == report.reads
        assert counters["request.writes"].value == report.writes
        assert counters["disk.reads"].value == report.disk_reads
        pdc = report.pdc
        assert counters["pdc.hits"].value == pdc.read_hits + pdc.write_hits
        assert counters["pdc.misses"].value \
            == pdc.read_misses + pdc.write_misses

    @pytest.mark.parametrize("queue_depth,channels,planes",
                             [(1, 1, 1), (16, 4, 2)])
    def test_harvested_cache_counters_match_stats(self, queue_depth,
                                                  channels, planes):
        """flash.* and nand.* counters are harvested from CacheStats and
        DeviceStats after the run, serially and through the event
        engine alike, on a write-heavy trace that forces GC erases."""
        system = _build_system()
        telemetry = Telemetry(sample_interval=500)
        records = build_workload("financial1", num_records=6000,
                                 footprint_pages=8192, seed=3)
        report = run_trace_concurrent(
            system, records, queue_depth=queue_depth, channels=channels,
            planes=planes, telemetry=telemetry)
        cache = system.flash.stats
        device = system.flash.controller.device.stats
        assert cache.gc_runs > 0 and device.erases > 0
        assert cache.read_hits > 0 and cache.read_misses > 0
        counters = {name: counter.value for name, counter
                    in telemetry.metrics.counters.items()}
        assert counters["flash.hits"] == cache.read_hits
        assert counters["flash.misses"] == cache.read_misses
        assert counters["flash.writes"] == cache.writes
        assert counters["nand.erases"] == device.erases
        assert counters["nand.reads"] == device.reads
        assert counters["nand.programs"] == device.programs
        assert report.flash == cache

    def test_server_response_bytes_threads_into_bandwidth(self):
        default = run_trace(_build_system(), _trace(600))
        assert default.response_bytes == ServerModel.response_bytes
        assert default.network_bandwidth_bytes_per_s == pytest.approx(
            default.throughput_rps * ServerModel.response_bytes)


class TestExporters:
    def _run(self):
        telemetry = Telemetry(sample_interval=500)
        run_trace(_build_system(fault_rate=0.05), _trace(),
                  telemetry=telemetry)
        return telemetry

    def test_json_document_shape(self):
        telemetry = self._run()
        doc = json.loads(to_json(telemetry))
        assert doc["version"] == 1
        assert doc["counters"]["request.reads"] > 0
        digest = doc["histograms"]["request.read_latency_us"]
        assert set(digest) == {"count", "mean", "min", "max",
                               "p50", "p95", "p99"}
        series = doc["series"]["flash_miss_rate"]
        assert len(series["x"]) == len(series["y"]) >= 1
        buckets = doc["histogram_buckets"]["request.read_latency_us"]
        assert buckets[-1][0] == "+inf"
        assert sum(count for _, count in buckets) == digest["count"]

    def test_write_json_path_and_stream(self, tmp_path):
        telemetry = self._run()
        path = tmp_path / "telemetry.json"
        write_json(telemetry, str(path))
        assert json.loads(path.read_text())["version"] == 1
        stream = io.StringIO()
        write_json(telemetry, stream)
        assert json.loads(stream.getvalue()) == telemetry_to_dict(telemetry)

    def test_csv_sections(self, tmp_path):
        telemetry = self._run()
        series_rows = series_to_csv(telemetry).splitlines()
        assert series_rows[0] == "series,x,y"
        assert any(row.startswith("flash_miss_rate,")
                   for row in series_rows[1:])
        hist_rows = histograms_to_csv(telemetry).splitlines()
        assert hist_rows[0] == "histogram,upper_edge_us,count"
        assert any(",+inf," in row for row in hist_rows[1:])
        path = tmp_path / "telemetry.csv"
        write_csv(telemetry, str(path))
        content = path.read_text()
        assert "series,x,y" in content
        assert "histogram,upper_edge_us,count" in content

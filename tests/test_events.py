"""Event-loop subsystem tests: determinism, NAND scheduling, op
capture, compat-mode byte-identity, and fig14 invariances."""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.shard import _ShardEngine
from repro.core.hierarchy import build_flash_system
from repro.experiments import fig14_concurrency
from repro.flash.channels import ChannelConfig, NandScheduler
from repro.flash.timing import CellMode
from repro.parallel import sweep
from repro.reliability import ReliabilityConfig, ScrubConfig
from repro.sim.concurrent import _ConcurrentEngine, run_trace_concurrent
from repro.sim.engine import QueueingStats, run_trace
from repro.sim.events import EventLoop, EventType
from repro.telemetry import LatencyHistogram, metrics
from repro.workloads.macro import build_workload
from repro.workloads.postpdc import derive_disk_trace
from repro.workloads.trace import TraceRecord


class TestEventLoop:
    def test_orders_by_time(self):
        loop = EventLoop()
        seen = []
        loop.register(EventType.ARRIVE,
                      lambda now_us, payload: seen.append(payload))
        loop.post(5.0, EventType.ARRIVE, "late")
        loop.post(1.0, EventType.ARRIVE, "early")
        loop.run()
        assert seen == ["early", "late"]

    def test_ties_break_in_post_order(self):
        loop = EventLoop()
        seen = []
        loop.register(EventType.ARRIVE,
                      lambda now_us, payload: seen.append(payload))
        for i in range(20):
            loop.post(3.0, EventType.ARRIVE, i)
        loop.run()
        assert seen == list(range(20))

    def test_now_advances_only_on_pop(self):
        loop = EventLoop()
        times = []
        handed = []

        def handler(now_us, payload):
            times.append(loop.now_us)
            handed.append(now_us)

        loop.register(EventType.ARRIVE, handler)
        loop.post(2.0, EventType.ARRIVE)
        loop.post(7.0, EventType.ARRIVE)
        assert loop.now_us == 0.0
        end = loop.run()
        assert times == [2.0, 7.0]
        assert handed == times
        assert end == 7.0

    def test_posting_into_the_past_raises(self):
        loop = EventLoop()
        loop.register(EventType.ARRIVE, lambda now_us, payload: None)
        loop.post(5.0, EventType.ARRIVE)
        while loop.step():
            pass
        with pytest.raises(ValueError):
            loop.post_at(1.0, EventType.ARRIVE)
        with pytest.raises(ValueError):
            loop.post(-1.0, EventType.ARRIVE)

    def test_duplicate_registration_rejected(self):
        loop = EventLoop()
        loop.register(EventType.SYNC, lambda now_us, payload: None)
        with pytest.raises(ValueError):
            loop.register(EventType.SYNC, lambda now_us, payload: None)

    def test_unhandled_event_type_raises(self):
        loop = EventLoop()
        loop.post(0.0, EventType.SYNC)
        with pytest.raises(KeyError):
            loop.run()

    def test_dispatch_counts(self):
        loop = EventLoop()
        loop.register(EventType.ARRIVE, lambda now_us, payload: None)
        loop.register(EventType.COMPLETE, lambda now_us, payload: None)
        loop.post(0.0, EventType.ARRIVE)
        loop.post(1.0, EventType.ARRIVE)
        loop.post(2.0, int(EventType.COMPLETE))
        loop.run()
        assert loop.dispatched[EventType.ARRIVE] == 2
        assert loop.dispatched[EventType.COMPLETE] == 1

    def test_run_dispatches_through_step(self, monkeypatch):
        # The per-layer benchmark spans count events by wrapping step:
        # run must call it once per event, plus once to see the drain.
        calls = []
        step = EventLoop.step

        def counted(loop):
            calls.append(loop.now_us)
            return step(loop)

        monkeypatch.setattr(EventLoop, "step", counted)
        loop = EventLoop()

        def count_down(now_us, left):
            if left:
                loop.post(1.0, EventType.ARRIVE, left - 1)

        loop.register(EventType.ARRIVE, count_down)
        loop.post(0.0, EventType.ARRIVE, 4)
        loop.post(0.5, EventType.ARRIVE, 0)
        assert loop.run() == 4.0
        assert len(calls) == sum(loop.dispatched.values()) + 1 == 7

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(roots=st.lists(st.tuples(st.integers(0, 6).map(float),
                                    st.sampled_from(list(EventType))),
                          min_size=1, max_size=12),
           children=st.lists(st.lists(st.tuples(
               st.integers(0, 3).map(float),
               st.sampled_from(list(EventType))), max_size=3),
               max_size=25))
    def test_dispatch_order_is_time_then_post_order(self, roots, children):
        """Random posts — ties, and posts made from inside handlers —
        dispatch in ``(time, post order)``, matching a linear-scan
        reference; time never goes back and a past post raises."""
        def spec(ident):
            return children[ident] if ident < len(children) else []

        # Reference: a list scanned for its minimum (time, post order).
        queue = [(time_us, ident, kind)
                 for ident, (time_us, kind) in enumerate(roots)]
        posted = len(queue)
        expected = []
        while queue:
            entry = min(queue)
            queue.remove(entry)
            expected.append(entry)
            for delay_us, kind in spec(entry[1]):
                queue.append((entry[0] + delay_us, posted, kind))
                posted += 1

        loop = EventLoop()
        seen = []
        next_ident = [len(roots)]

        def handler(now_us, payload):
            kind, ident = payload
            assert now_us == loop.now_us
            if seen:
                assert now_us >= seen[-1][0]
            seen.append((now_us, ident, kind))
            if now_us > 0:
                pending = loop.pending
                with pytest.raises(ValueError):
                    loop.post_at(now_us - 0.5, kind, None)
                with pytest.raises(ValueError):
                    loop.post(-0.5, kind, None)
                assert loop.pending == pending
            for delay_us, child_kind in spec(ident):
                loop.post(delay_us, child_kind,
                          (child_kind, next_ident[0]))
                next_ident[0] += 1

        for kind in EventType:
            loop.register(kind, handler)
        for ident, (time_us, kind) in enumerate(roots):
            loop.post_at(time_us, kind, (kind, ident))
        end_us = loop.run()

        assert seen == expected
        assert end_us == expected[-1][0]
        counts = {}
        for _, _, kind in expected:
            counts[kind] = counts.get(kind, 0) + 1
        assert loop.dispatched == counts
        assert loop.pending == 0


class TestNandScheduler:
    def test_serial_fabric_is_a_single_queue(self):
        sched = NandScheduler(ChannelConfig(channels=1, planes=1))
        first = sched.schedule(0.0, 100.0)
        second = sched.schedule(0.0, 50.0)
        assert first.wait_us == 0.0
        assert second.start_us == 100.0 and second.wait_us == 100.0

    def test_least_loaded_lowest_index(self):
        sched = NandScheduler(ChannelConfig(channels=2, planes=1))
        a = sched.schedule(0.0, 100.0)
        b = sched.schedule(0.0, 100.0)
        assert (a.channel, b.channel) == (0, 1)
        assert b.wait_us == 0.0
        c = sched.schedule(10.0, 10.0)  # both busy until 100
        assert c.channel == 0 and c.start_us == 100.0

    def test_pick_stops_at_first_free_prefix(self):
        # The rule is not least-loaded: the scan stops at the first
        # index >= 1 where the earliest-free plane so far is free by the
        # ready time.  free_at = [5, 3, 1], ready 10 -> plane 1, neither
        # the least-loaded plane (2) nor the lowest free index (0).
        sched = NandScheduler(ChannelConfig(channels=1, planes=3))
        for latency_us in (5.0, 3.0, 1.0):
            sched.schedule(0.0, latency_us)
        assert sched._free_at_us == [5.0, 3.0, 1.0]
        placed = sched.schedule(10.0, 2.0)
        assert (placed.channel, placed.plane) == (0, 1)
        assert placed.wait_us == 0.0
        assert sched._free_at_us == [5.0, 12.0, 1.0]
        # place_chain runs the same scan inline.
        chained = NandScheduler(ChannelConfig(channels=1, planes=3))
        for latency_us in (5.0, 3.0, 1.0):
            chained.place_chain(0.0, [latency_us])
        assert chained.place_chain(10.0, [2.0]) == (
            12.0, 0.0, 0)
        assert chained._free_at_us == [5.0, 12.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(channels=st.integers(1, 8), planes=st.integers(1, 4),
           chains=st.lists(st.tuples(
               st.integers(0, 400).map(float),
               st.lists(st.one_of(
                   st.integers(0, 60).map(float),
                   st.floats(0.0, 60.0, allow_nan=False)), max_size=6)),
               max_size=40))
    def test_place_chain_matches_per_op_schedule(self, channels, planes,
                                                 chains):
        config = ChannelConfig(channels=channels, planes=planes)
        chained, per_op = NandScheduler(config), NandScheduler(config)
        for ready_us, latencies in chains:
            end_us, wait_us, stalls = chained.place_chain(ready_us,
                                                          latencies)
            expected_end_us, expected_wait_us, expected_stalls = (
                ready_us, 0.0, 0)
            for latency_us in latencies:
                placed = per_op.schedule(expected_end_us, latency_us)
                if placed.wait_us > 0:
                    expected_stalls += 1
                    expected_wait_us += placed.wait_us
                expected_end_us = placed.end_us
            assert (end_us, wait_us, stalls) == (
                expected_end_us, expected_wait_us, expected_stalls)
        assert chained._free_at_us == per_op._free_at_us
        assert chained.channel_busy_us == per_op.channel_busy_us
        assert chained.ops_scheduled == per_op.ops_scheduled

    def test_plane_indexing(self):
        sched = NandScheduler(ChannelConfig(channels=2, planes=2))
        placements = [sched.schedule(0.0, 10.0) for _ in range(4)]
        assert [(p.channel, p.plane) for p in placements] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_utilization_bounded_by_one(self):
        sched = NandScheduler(ChannelConfig(channels=1, planes=2))
        for _ in range(10):
            sched.schedule(0.0, 100.0)
        span = sched.horizon_us()
        assert span == 500.0
        (util,) = sched.utilization(span)
        assert util == pytest.approx(1.0)

    def test_rejects_negative_latency(self):
        sched = NandScheduler(ChannelConfig())
        with pytest.raises(ValueError):
            sched.schedule(0.0, -1.0)
        with pytest.raises(ValueError):
            sched.place_chain(0.0, [-1.0])

    def test_utilization_at_zero_span_is_all_zeros(self):
        # Degenerate window (no simulated time elapsed): the fraction
        # must not divide by zero, and one row per channel survives.
        sched = NandScheduler(ChannelConfig(channels=3, planes=2))
        assert sched.utilization(0.0) == [0.0, 0.0, 0.0]
        assert sched.utilization(-1.0) == [0.0, 0.0, 0.0]
        sched.schedule(0.0, 25.0)
        assert sched.utilization(0.0) == [0.0, 0.0, 0.0]

    def test_multi_plane_saturation(self):
        # 40 ops of 25us on a 2x2 fabric: 10 per plane, every plane
        # busy end to end -> span 250us and both channels pegged at 1.0.
        sched = NandScheduler(ChannelConfig(channels=2, planes=2))
        for _ in range(40):
            sched.schedule(0.0, 25.0)
        span = sched.horizon_us()
        assert span == 250.0
        assert sched.utilization(span) == pytest.approx([1.0, 1.0])
        # Doubling the window halves the busy fraction, per channel.
        assert sched.utilization(2 * span) == pytest.approx([0.5, 0.5])


class TestQueueingStatsSerialization:
    def _empty_stats(self):
        return QueueingStats(
            queue_depth=4, channels=2, planes=2, span_us=0.0,
            queue_delay=LatencyHistogram("queue_delay_us"),
            service_latency=LatencyHistogram("service_latency_us"),
            channel_busy_us=[0.0, 0.0])

    def test_pickle_round_trip_with_empty_histograms(self):
        # A worker that admitted zero requests still pickles its stats
        # back to the parent; empty histograms must survive the trip.
        stats = self._empty_stats()
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.queue_depth == 4
        assert clone.span_us == 0.0
        assert clone.queue_delay.count == 0
        assert clone.queue_delay.percentile(99.0) == 0.0
        assert clone.mean_queue_delay_us == 0.0
        assert clone.channel_utilization() == [0.0, 0.0]

    def test_merge_empty_into_populated_is_identity(self):
        populated = LatencyHistogram("queue_delay_us")
        for value in (10.0, 200.0, 3000.0):
            populated.observe(value)
        before = populated.__getstate__()
        populated.merge(LatencyHistogram("queue_delay_us"))
        assert populated.__getstate__() == before

    def test_merge_populated_into_empty_adopts_everything(self):
        populated = LatencyHistogram("queue_delay_us")
        for value in (10.0, 200.0, 3000.0):
            populated.observe(value)
        empty = LatencyHistogram("queue_delay_us")
        empty.merge(populated)
        assert empty.count == populated.count
        assert empty.mean == populated.mean
        assert empty.percentile(99.0) == populated.percentile(99.0)

    def test_merge_rejects_mismatched_edges(self):
        ours = LatencyHistogram("a", edges=(1.0, 2.0))
        theirs = LatencyHistogram("a", edges=(1.0, 4.0))
        with pytest.raises(ValueError):
            ours.merge(theirs)


class TestOpCapture:
    """Op capture through the hierarchy's ``submit_*`` entry points: the
    device appends each NAND op's latency to its ``op_log``."""

    def test_capture_reads_programs_erases(self):
        system = build_flash_system(dram_bytes=1 << 20,
                                    flash_bytes=4 << 20)
        device = system.flash.controller.device
        timing = device.timing
        # A cold read misses to disk and fills the Flash read cache.
        device.op_log = fill = []
        system.submit_read(1234)
        assert timing.write_us(CellMode.MLC) in fill
        # Push the page out of the DRAM page cache (nothing is logged
        # while the log is unset); reading it again then hits in Flash.
        device.op_log = None
        for page in range(2000, 3000):
            system.read(page)
        device.op_log = hit = []
        system.submit_read(1234)
        assert hit == [timing.read_us(CellMode.MLC)]


class TestEngineHistogramDrain:
    """The engine's latency histograms must fold their samples at the
    sample counts plain ``observe`` folds at (every
    ``metrics._DRAIN_THRESHOLD`` samples, then on read): the histogram totals
    are summed per fold, so a moved fold point changes the reported
    totals on any run past the threshold."""

    @pytest.mark.parametrize("reference", ["numpy", "pure-python"])
    def test_matches_one_observe_at_a_time(self, monkeypatch, reference):
        # ``pure-python`` replays the samples through a fresh histogram;
        # ``numpy`` folds each drained chunk with numpy, as histograms
        # did while numpy summed them, so the pure-Python fold is also
        # checked against an independent sum.
        np = pytest.importorskip("numpy") if reference == "numpy" else None
        system = build_flash_system(dram_bytes=1 << 20,
                                    flash_bytes=4 << 20)
        observe = LatencyHistogram.observe
        samples = {"queue_delay_us": [], "service_latency_us": []}

        def recording_observe(histogram, value):
            samples[histogram.name].append(value)
            observe(histogram, value)

        # Installed before the engine binds its histograms' observe.
        monkeypatch.setattr(LatencyHistogram, "observe", recording_observe)
        # A long cheap trace: mostly PDC hits over a small page set,
        # with enough misses and writes to vary both latencies.
        records = (TraceRecord(page=(index * 7) % 600,
                               op="w" if index % 5 == 0 else "r")
                   for index in range(70_000))
        engine = _ConcurrentEngine(system, records, queue_depth=8,
                                   config=ChannelConfig(channels=1,
                                                        planes=2))
        engine.run()
        monkeypatch.setattr(LatencyHistogram, "observe", observe)
        delays = samples["queue_delay_us"]
        assert len(delays) > metrics._DRAIN_THRESHOLD
        assert len(samples["service_latency_us"]) == len(delays)
        assert engine.channel_stalls > 0 and max(delays) > 0.0
        for histogram in (engine.queue_delay, engine.service_latency):
            values = samples[histogram.name]
            if np is None:
                replay = LatencyHistogram(histogram.name)
                for value in values:
                    replay.observe(value)
                expected = replay.__getstate__()
            else:
                expected = _numpy_drained_state(np, histogram.name, values)
            state = histogram.__getstate__()
            assert state == expected
            assert float.hex(state["total"]) == float.hex(expected["total"])


def _numpy_drained_state(np, name, values):
    """The state ``values`` leave when drained every
    ``metrics._DRAIN_THRESHOLD`` samples and once more on read, each
    chunk summed by numpy (32 samples and up) or a running total."""
    edges = list(LatencyHistogram(name).edges)
    counts = [0] * len(edges)
    overflow, total, low, high = 0, 0.0, float("inf"), 0.0
    step = metrics._DRAIN_THRESHOLD
    for start in range(0, len(values), step):
        chunk = values[start:start + step]
        samples = np.asarray(chunk, dtype=float)
        if len(chunk) >= 32:
            total += float(samples.sum())
        else:
            part = 0.0
            for value in chunk:
                part += value
            total += part
        low = min(low, float(samples.min()))
        high = max(high, float(samples.max()))
        per_bucket = np.bincount(
            np.searchsorted(edges, samples, side="left"),
            minlength=len(edges) + 1)
        counts = [have + int(add) for have, add in zip(counts, per_bucket)]
        overflow += int(per_bucket[-1])
    return {"name": name, "edges": edges, "counts": counts,
            "overflow": overflow, "count": len(values), "total": total,
            "min": low, "max": high}


class TestHierarchySubmit:
    def test_submit_matches_serial_latency(self):
        submitted = build_flash_system(dram_bytes=1 << 20,
                                       flash_bytes=4 << 20)
        serial = build_flash_system(dram_bytes=1 << 20,
                                    flash_bytes=4 << 20)
        service_us = submitted.submit_read(1234)
        assert service_us > 0
        assert service_us == serial.read(1234)
        assert submitted.submit_write(1) == serial.write(1)
        assert submitted.stats == serial.stats


class _CountingDeque(deque):
    """A host queue that counts the requests that waited in it."""

    appended = 0

    def append(self, item):
        self.appended += 1
        super().append(item)


class TestOpLogConservation:
    """Every NAND op the device runs during an engine run is placed on
    the fabric exactly once: the channels' summed busy time equals the
    device busy time the run added."""

    @staticmethod
    def _records():
        # Write-heavy, footprint twice the flash: GC and erases run.
        return build_workload("financial1", num_records=4000, seed=5,
                              footprint_pages=4096)

    def test_closed_loop_with_gc_and_scrub(self):
        system = build_flash_system(
            dram_bytes=1 << 20, flash_bytes=4 << 20, seed=3,
            reliability_config=ReliabilityConfig.uniform(1e-5, seed=9),
            scrub_config=ScrubConfig(interval_us=2e5, min_age_us=4e5))
        device = system.flash.controller.device
        busy_before_us = device.stats.busy_us
        engine = _ConcurrentEngine(system, self._records(), queue_depth=16,
                                   config=ChannelConfig(channels=4,
                                                        planes=2))
        engine.run()
        assert engine.gc_events > 0 and engine.scrub_events > 0
        added_us = device.stats.busy_us - busy_before_us
        assert added_us > 0
        assert sum(engine.scheduler.channel_busy_us) == added_us
        assert device.op_log is None

    def test_shard_with_host_queue_waits(self):
        system = build_flash_system(dram_bytes=1 << 20,
                                    flash_bytes=4 << 20)
        device = system.flash.controller.device
        # Arrivals 2 us apart overrun a 4-slot window at once.
        arrivals = [(2.0 * index, index, page, is_read)
                    for index, (page, is_read) in enumerate(
                        (page, record.is_read)
                        for record in self._records()
                        for page in record.expand())]
        engine = _ShardEngine(system, arrivals, queue_depth=4,
                              config=ChannelConfig(channels=4, planes=2),
                              shed_queue=1 << 20, fail_at_us=None,
                              retire_on_degraded=False, bucket_us=1e5)
        engine.wait = _CountingDeque()
        busy_before_us = device.stats.busy_us
        engine.run()
        assert engine.wait.appended > 0
        assert engine.completed == len(arrivals)
        added_us = device.stats.busy_us - busy_before_us
        assert added_us > 0
        assert sum(engine.scheduler.channel_busy_us) == added_us
        assert device.op_log is None

    def test_op_log_restored_when_a_request_raises(self, monkeypatch):
        system = build_flash_system(dram_bytes=1 << 20,
                                    flash_bytes=4 << 20)
        device = system.flash.controller.device
        read = system.read
        calls = []

        def failing_read(page):
            calls.append(page)
            if len(calls) == 500:
                raise RuntimeError("injected request failure")
            return read(page)

        monkeypatch.setattr(system, "read", failing_read)
        with pytest.raises(RuntimeError, match="injected"):
            run_trace_concurrent(system, self._records(), queue_depth=16,
                                 channels=4, planes=2)
        assert len(calls) == 500
        assert device.op_log is None


def _system():
    return build_flash_system(dram_bytes=2 << 20, flash_bytes=8 << 20)


def _trace(workload="specweb99", n=3000, seed=21):
    return build_workload(workload, num_records=n, footprint_pages=8192,
                          seed=seed)


class TestCompatMode:
    """queue_depth=1, channels=1, planes=1 is byte-identical to the
    legacy serial engine (the fig1b..fig13 guarantee)."""

    @pytest.mark.parametrize("workload", ["specweb99", "dbt2"])
    def test_byte_identical_report(self, workload):
        serial = run_trace(_system(), _trace(workload))
        compat = run_trace_concurrent(_system(), _trace(workload),
                                      queue_depth=1, channels=1, planes=1)
        assert asdict(serial) == asdict(compat)
        assert compat.queueing is None

    def test_byte_identical_on_post_pdc_disk_trace(self):
        # Third workload shape: the post-PDC disk-level stream (reads
        # that missed the page cache plus dirty write-backs) has a very
        # different read/write mix than the application traces, and is
        # exactly what the Flash tier sees in the paper's hierarchy.
        disk_trace = derive_disk_trace(_trace("dbt2"), pdc_pages=512)
        assert disk_trace  # the filter must leave a real stream behind
        serial = run_trace(_system(), disk_trace)
        compat = run_trace_concurrent(_system(), disk_trace,
                                      queue_depth=1, channels=1, planes=1)
        assert asdict(serial) == asdict(compat)
        assert compat.queueing is None

    def test_functional_metrics_invariant_under_concurrency(self):
        serial = run_trace(_system(), _trace())
        concurrent = run_trace_concurrent(_system(), _trace(),
                                          queue_depth=8, channels=2,
                                          planes=2)
        assert concurrent.queueing is not None
        for field in ("requests", "reads", "writes",
                      "average_latency_us", "disk_reads", "disk_writes",
                      "flash_miss_rate", "flash_live_capacity"):
            assert getattr(concurrent, field) == getattr(serial, field)
        assert asdict(serial.pdc) == asdict(concurrent.pdc)
        assert asdict(serial.flash) == asdict(concurrent.flash)
        # concurrency compresses the makespan
        assert concurrent.wall_clock_us < serial.wall_clock_us
        assert concurrent.throughput_rps > serial.throughput_rps

    def test_bad_queue_depth_rejected(self):
        with pytest.raises(ValueError):
            run_trace_concurrent(_system(), _trace(n=10), queue_depth=0)


def _fig14_grid():
    return fig14_concurrency.tasks(queue_depths=(1, 4, 8),
                                   channel_counts=(1, 2),
                                   scale_divisor=256, num_records=4000)


class TestFig14:
    def test_worker_count_invariance(self):
        rows_one = fig14_concurrency.combine(sweep(_fig14_grid(),
                                                   workers=1))
        rows_two = fig14_concurrency.combine(sweep(_fig14_grid(),
                                                   workers=2))
        assert ([asdict(row) for row in rows_one]
                == [asdict(row) for row in rows_two])

    def test_throughput_monotone_on_both_axes(self):
        rows = fig14_concurrency.combine(sweep(_fig14_grid(), workers=2))
        cells = {(r.queue_depth, r.channels): r.throughput_rps
                 for r in rows}
        for depths, channels in (((1, 4, 8), (1, 2)),):
            for ch in channels:
                series = [cells[(qd, ch)] for qd in depths]
                assert series == sorted(series)
            for qd in depths:
                series = [cells[(qd, ch)] for ch in channels]
                assert series == sorted(series)

    def test_latency_split_reported(self):
        rows = fig14_concurrency.combine(sweep(_fig14_grid(), workers=1))
        deep = next(r for r in rows
                    if r.queue_depth == 8 and r.channels == 1)
        assert deep.service_p99_us > 0
        assert deep.queue_delay_p99_us >= deep.queue_delay_p50_us
        assert all(0.0 <= u <= 1.0 + 1e-9
                   for u in deep.channel_utilization)
        assert deep.speedup > 1.0

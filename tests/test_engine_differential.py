"""Engine differential test: the serial and concurrent engines do the
same functional work.

The concurrent engine executes every request at admission, in trace
order, and only replays timing on the event loop (DESIGN.md section 14).
So one ``build_workload`` stream run through ``run_trace`` and through
``run_trace_concurrent`` at any (queue depth, channels, planes) must
leave the hierarchy in the same functional state: PDC, flash cache,
controller, device and reliability counters, the cached LBA set, and
the telemetry sampler's time series.  This is the net under the
concurrent engine's admission path, including the fabric skip for
requests that issue no NAND ops.

The cluster side runs one shard with R=1, no chaos and a host queue
that never sheds, and replays the routed request sequence through the
serial engine: the open-loop shard engine must do the same work too.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro import build_flash_system, build_workload
from repro.cluster import cluster as cluster_module
from repro.cluster import shard as cluster_shard
from repro.cluster.cluster import ClusterScenario, run_cluster
from repro.cluster.shard import run_shard
from repro.core.hierarchy import DramOnlySystem, SystemConfig
from repro.reliability import ReliabilityConfig, ScrubConfig
from repro.sim.concurrent import run_trace_concurrent
from repro.sim.engine import SimulationReport, run_trace
from repro.telemetry import LatencyHistogram, Telemetry
from repro.workloads.trace import OP_READ, OP_WRITE, TraceRecord

#: (queue_depth, channels, planes) settings the concurrent side runs at.
SETTINGS = [(2, 1, 2), (16, 4, 2), (64, 8, 4)]


def _records():
    # Write-heavy with a footprint twice the flash: GC runs on both
    # the plain and the aged system.
    return build_workload("financial1", num_records=4000, seed=5,
                          footprint_pages=4096)


def _system(aged: bool):
    if not aged:
        return build_flash_system(dram_bytes=1 << 20, flash_bytes=4 << 20)
    return build_flash_system(
        dram_bytes=1 << 20, flash_bytes=4 << 20, seed=3,
        reliability_config=ReliabilityConfig.uniform(1e-5, seed=9),
        scrub_config=ScrubConfig(interval_us=2e5, min_age_us=4e5))


def _functional_state(system):
    flash = system.flash
    return {
        "requests": asdict(system.stats),
        "pdc": asdict(system.pdc.stats),
        "flash": asdict(flash.stats),
        "controller": asdict(flash.controller.stats),
        "device": asdict(flash.controller.device.stats),
        "disk": (system.disk.reads, system.disk.writes,
                 system.disk.busy_us),
        "cached_lbas": flash.cached_lbas(),
    }


def _run(aged: bool, setting=None):
    """Run the stream on a fresh system; returns its functional state."""
    system = _system(aged)
    telemetry = Telemetry(sample_interval=500) if aged else None
    if setting is None:
        run_trace(system, _records(), telemetry=telemetry)
    else:
        queue_depth, channels, planes = setting
        report = run_trace_concurrent(
            system, _records(), queue_depth=queue_depth,
            channels=channels, planes=planes, telemetry=telemetry)
        assert report.queueing is not None
    state = _functional_state(system)
    if aged:
        device = system.flash.controller.device
        state["reliability"] = asdict(device.reliability.stats)
        state["scrub"] = asdict(system.scrubber.stats)
        state["series"] = {name: series.as_dict() for name, series
                           in sorted(telemetry.timeseries.items())}
    return state


@pytest.fixture(scope="module")
def serial_states():
    return {aged: _run(aged) for aged in (False, True)}


@pytest.mark.parametrize("aged", [False, True], ids=["plain", "aged"])
@pytest.mark.parametrize("setting", SETTINGS,
                         ids=["qd{}-ch{}-pl{}".format(*s) for s in SETTINGS])
def test_concurrent_engine_matches_serial(serial_states, aged, setting):
    expected = serial_states[aged]
    if aged:
        # The aged run must exercise what it claims to: errors, scrub
        # passes and a sampled series, not a quiet device.
        assert expected["reliability"]["error_bits"] > 0
        assert expected["scrub"]["passes"] > 0
        assert len(expected["series"]["pdc_miss_rate"]["x"]) > 2
    assert expected["flash"]["gc_time_us"] > 0
    # PDC hits issue no NAND ops, so they take the fabric skip.
    assert expected["pdc"]["read_hits"] > 0
    assert _run(aged, setting) == expected


#: Report fields that hold timing (the event loop's makespan and what is
#: derived from it) rather than functional work.
_TIMING_FIELDS = ("wall_clock_us", "throughput_rps", "power", "queueing")


def test_dram_only_system_matches_serial():
    """A system with no Flash issues no NAND ops: the engine skips the
    fabric and the op log for every request, and still does the serial
    engine's functional work."""

    def run(concurrent: bool) -> SimulationReport:
        system = DramOnlySystem(SystemConfig(dram_bytes=1 << 20))
        telemetry = Telemetry(sample_interval=500)
        if concurrent:
            return run_trace_concurrent(
                system, _records(), queue_depth=16, channels=4, planes=2,
                telemetry=telemetry)
        return run_trace(system, _records(), telemetry=telemetry)

    serial, concurrent = run(False), run(True)
    assert concurrent.queueing is not None
    assert concurrent.queueing.channel_busy_us == [0.0] * 4
    assert concurrent.queueing.queue_delay.count == serial.requests
    assert serial.flash is None and serial.disk_reads > 0
    assert serial.pdc.read_hits > 0
    assert serial.read_latency is not None
    assert serial.timeseries is not None

    def plain(value):
        if isinstance(value, LatencyHistogram):
            return value.__getstate__()
        if isinstance(value, dict):
            return {name: series.as_dict()
                    for name, series in sorted(value.items())}
        return value

    for name in SimulationReport.__dataclass_fields__:
        if name not in _TIMING_FIELDS:
            assert (plain(getattr(concurrent, name))
                    == plain(getattr(serial, name))), name


def test_cluster_shard_matches_serial(monkeypatch):
    """A one-shard, R=1, no-chaos cluster run whose host queue never
    sheds does the serial engine's functional work: replaying the
    routed ``(page, is_read)`` sequence through ``run_trace`` on a
    system built the same way leaves identical counters."""
    built = []
    routed = []

    def keep_system(*args, **kwargs):
        system = build_flash_system(*args, **kwargs)
        built.append((args, kwargs, system))
        return system

    def keep_arrivals(**kwargs):
        routed.append(kwargs["arrivals"])
        return run_shard(**kwargs)

    monkeypatch.setattr(cluster_shard, "build_flash_system", keep_system)
    monkeypatch.setattr(cluster_module, "run_shard", keep_arrivals)
    shed_queue = 1 << 20
    scenario = ClusterScenario(
        shards=1, replicas=1, pattern="steady", rate_rps=8000.0,
        duration_s=0.5, workload="financial1", footprint_pages=4096,
        dram_bytes=1 << 20, flash_bytes=2 << 20, queue_depth=16,
        channels=4, planes=2, shed_queue=shed_queue, seed=7)
    result = run_cluster(scenario)
    assert len(built) == 1 and len(routed) == 1
    (arrivals,) = routed
    assert 0 < len(arrivals) < shed_queue
    assert result.completed == len(arrivals)
    assert (result.shed, result.lost, result.redirected) == (0, 0, 0)
    args, kwargs, shard_system = built[0]
    expected = _functional_state(shard_system)
    # The run must exercise GC and the PDC-hit fabric skip.
    assert expected["flash"]["gc_time_us"] > 0
    assert expected["pdc"]["read_hits"] > 0

    replay_system = build_flash_system(*args, **kwargs)
    records = [TraceRecord(page, OP_READ if is_read else OP_WRITE)
               for _, _, page, is_read in arrivals]
    run_trace(replay_system, records, drain=False)
    assert _functional_state(replay_system) == expected

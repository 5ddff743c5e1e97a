"""Golden output digests for the event-driven engines.

Each test runs one small, fully seeded scenario and pins the SHA-256 of
its whole output document, so any change to event ordering, op
placement, or accounting shows here as a digest mismatch:

* the closed-loop concurrent engine (``run_trace_concurrent`` at qd16
  on a 4x2 fabric) on a GC-heavy, aged, scrubbed cache — the path where
  background GC/scrub work and channel stalls all occur;
* the open-loop shard engine through ``run_cluster`` at R=2 with a
  kill, a survivor cascade and a rejoin with catch-up sync;
* the serial path under injected program/erase faults and read disturb,
  where frames go bad, blocks retire and an erase fails mid-run — the
  paths that reshape a block's page layout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any

from repro.cluster.cluster import ClusterScenario, run_cluster
from repro.core.hierarchy import build_flash_system
from repro.faults import FaultConfig
from repro.reliability import ReliabilityConfig, ScrubConfig
from repro.sim.concurrent import run_trace_concurrent
from repro.telemetry import LatencyHistogram
from repro.workloads.macro import build_workload

CONCURRENT_DIGEST = (
    "7935088783366d8918e183cbc9752afde82f5cd9a9873d76271d18b764f840af")
CLUSTER_DIGEST = (
    "23af3d59ebf7dc9285b1d1640abdddace58256d35f29cee5884201bf16e128c6")
FAULT_DIGEST = (
    "221d6654bee9a44b3280c884d3aa0214d3657a54d3cff380f99a39d75dcdf585")

def _plain(value: Any) -> Any:
    if isinstance(value, LatencyHistogram):
        return value.__getstate__()
    raise TypeError(f"cannot digest {type(value).__name__}")


def _digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_concurrent_engine_gc_scrub_golden():
    # financial1 over a footprint of twice the flash: GC on most writes;
    # a short scrub interval gives a pass at every write-back flush.
    records = build_workload("financial1", num_records=6000, seed=7,
                             footprint_pages=2048)
    system = build_flash_system(
        dram_bytes=256 << 10, flash_bytes=2 << 20,
        reliability_config=ReliabilityConfig.uniform(1e-5, seed=7),
        scrub_config=ScrubConfig(interval_us=1e4, min_age_us=2e4))
    report = run_trace_concurrent(system, records, queue_depth=16,
                                  channels=4, planes=2)
    queueing = report.queueing
    assert queueing is not None
    assert queueing.gc_events > 0
    assert queueing.scrub_events > 0
    assert queueing.channel_stalls > 0
    assert _digest(asdict(report)) == CONCURRENT_DIGEST


def test_cluster_kill_cascade_rejoin_golden():
    scenario = ClusterScenario(
        shards=4, replicas=2, pattern="diurnal", rate_rps=6000.0,
        duration_s=0.4, queue_depth=4, shed_queue=8, footprint_pages=4096,
        kill_shard=1, kill_at_us=0.12e6, cascade=((2, 0.24e6),),
        rejoin_at_us=0.32e6, seed=5)
    result = run_cluster(scenario, workers=1)
    assert result.shed > 0
    assert result.redirected > 0
    assert result.sync_completed > 0
    assert _digest(result.as_dict()) == CLUSTER_DIGEST


def test_serial_fault_injection_golden():
    # The same GC-heavy financial1 run with program, erase and
    # read-disturb faults: bad frames, retirements and a failed erase
    # all land while GC keeps erasing victims.
    records = build_workload("financial1", num_records=6000, seed=7,
                             footprint_pages=2048)
    system = build_flash_system(
        dram_bytes=256 << 10, flash_bytes=2 << 20,
        fault_config=FaultConfig(program_fail_rate=2e-3,
                                 erase_fail_rate=2e-3,
                                 read_disturb_rate=1e-3, seed=7),
        reliability_config=ReliabilityConfig.uniform(1e-5, seed=7))
    report = run_trace_concurrent(system, records)
    controller = report.controller
    assert controller is not None
    assert controller.frames_marked_bad > 0
    assert controller.blocks_retired > 0
    assert controller.erase_faults > 0
    assert controller.erases > 0
    assert report.flash is not None and report.flash.gc_runs > 0
    assert controller.descriptor_updates > 0
    assert _digest(asdict(report)) == FAULT_DIGEST

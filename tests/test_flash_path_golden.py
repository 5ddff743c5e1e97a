"""Golden digests of the Flash cache's read and fill paths.

The benchmark digests run the read path on a split, fault-free cache
whose pages never get hot enough to promote.  These three runs pin the
branches they leave out:

* a split cache whose reads saturate FPST access counters, so hot pages
  migrate into SLC-formatted blocks;
* a cache with a fault injector, where program failures remap inside
  ``_program_with_remap`` and uncorrectable reads drop pages;
* a unified (``split=False``) cache, where fills and writes share one
  region and its GC.

Each digest covers the :func:`run_trace` report, the final FCHT mapping
and the FGST averages (the reconfiguration cost model's inputs).  Every
run ends with :meth:`FlashDiskCache.check_invariants`; the fault-injected
run also checks it after every request.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from random import Random

from repro.core.cache import FlashCacheConfig
from repro.core.controller import ControllerConfig
from repro.core.hierarchy import build_flash_system
from repro.faults import FaultConfig
from repro.sim.engine import run_trace
from repro.workloads.trace import Trace, TraceRecord

HOT_PROMOTION_DIGEST = (
    "bb7b4698fbd19b3e53b82840f31c8b25a2f04dee9ff398adeb65ac82ce6414ef")
FAULT_REMAP_DIGEST = (
    "beec37ffe5dcf31c0c167272e2d6b10b4e778f3cddfed00874e8002cb7f3c7c3")
UNIFIED_DIGEST = (
    "58b01e95757677bd537cc4835fbf98aa2f4670fe0120e9e1752d3a5c4574ecce")


def _trace(seed: int, records: int, hot: int, footprint: int,
           read_fraction: float) -> Trace:
    """Single-page requests, three quarters of them in ``hot`` pages."""
    rng = Random(seed)
    rows = []
    for _ in range(records):
        if rng.random() < 0.75:
            page = rng.randrange(hot)
        else:
            page = rng.randrange(footprint)
        op = "r" if rng.random() < read_fraction else "w"
        rows.append(TraceRecord(page, op))
    return Trace.from_records(rows)


def _run(system, trace: Trace) -> str:
    report = run_trace(system, trace)
    cache = system.flash
    cache.check_invariants()
    fgst = cache.controller.fgst
    # Pages as (block, frame, subpage) triples, the form the digests pin.
    address = cache.controller.device.geometry.page_address
    document = {
        "report": asdict(report),
        "fcht": [(lba, address(page))
                 for lba, page in sorted(cache.fcht.items())],
        "fgst": [fgst.hits, fgst.misses, fgst.avg_hit_latency_us,
                 fgst.avg_miss_penalty_us],
    }
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_every_request(system) -> None:
    """Run :meth:`FlashDiskCache.check_invariants` after every request:
    the serial loop calls the system's ``read``/``write`` attributes."""
    def checked(access):
        def request(page):
            latency = access(page)
            system.flash.check_invariants()
            return latency
        return request
    system.read = checked(system.read)
    system.write = checked(system.write)


def test_hot_promotion_golden():
    system = build_flash_system(
        dram_bytes=64 << 10, flash_bytes=4 << 20, seed=2,
        controller_config=ControllerConfig(counter_max=12))
    trace = _trace(seed=4, records=12000, hot=300, footprint=3000,
                   read_fraction=0.9)
    digest = _run(system, trace)
    stats = system.flash.stats
    assert stats.slc_promotions > 0 and stats.read_hits > 0
    assert stats.fills > 0
    assert digest == HOT_PROMOTION_DIGEST


def test_fault_remap_golden():
    faults = FaultConfig(read_disturb_rate=0.01, program_fail_rate=0.003,
                         seed=6)
    system = build_flash_system(
        dram_bytes=64 << 10, flash_bytes=8 << 20, seed=3,
        fault_config=faults)
    _check_every_request(system)
    trace = _trace(seed=8, records=12000, hot=400, footprint=4000,
                   read_fraction=0.8)
    digest = _run(system, trace)
    stats = system.flash.stats
    assert not system.flash.degraded
    assert stats.remapped_programs > 0 and stats.uncorrectable > 0
    assert stats.fills > 0
    assert digest == FAULT_REMAP_DIGEST


def test_unified_cache_golden():
    system = build_flash_system(
        dram_bytes=64 << 10, flash_bytes=2 << 20, seed=7,
        cache_config=FlashCacheConfig(split=False, gc_move_budget=1.0))
    trace = _trace(seed=12, records=12000, hot=300, footprint=3000,
                   read_fraction=0.7)
    digest = _run(system, trace)
    stats = system.flash.stats
    assert stats.read_hits > 0 and stats.fills > 0
    assert stats.gc_runs > 0 and stats.read_evictions > 0
    assert digest == UNIFIED_DIGEST

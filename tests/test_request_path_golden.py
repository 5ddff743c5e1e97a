"""Golden digests of the shared request path (DRAM PDC -> Flash -> disk).

``_SystemBase.read``/``write`` carry every request of every engine, but
the benchmark digests cover only Flash-backed systems on generated
single-page traces.  These two runs pin what they leave out:

* a :class:`DramOnlySystem`, whose misses go straight to disk and whose
  dirty evictions ride the periodic write-back flush;
* a small :class:`FlashBackedSystem` on multi-page runs, with GC,
  crossing several ``flush_interval_requests`` boundaries, and with
  ``reset_measurement()`` called mid-trace so the measured half starts
  from fresh stats.

Each test stores the SHA-256 of ``dataclasses.asdict`` of the
:func:`run_trace` report, so a flush tick moved by one request or a DRAM
latency charged twice changes the digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from random import Random

from repro.core.hierarchy import (
    DramOnlySystem,
    SystemConfig,
    build_flash_system,
)
from repro.sim.engine import run_trace
from repro.workloads.trace import Trace, TraceRecord

DRAM_ONLY_DIGEST = (
    "ed01ace0acf0ef21c5c4e174a262373b2cdf1aa273c4e5e41a42999c290a74af")
FLASH_BACKED_DIGEST = (
    "02b1a5ddfe46ccabbde4b68e18cd9cf539ce6893ccda01831543389d451f811b")


def _trace(seed: int, records: int, footprint: int,
           read_fraction: float) -> Trace:
    """A skewed mixed trace of 1-4 page runs."""
    rng = Random(seed)
    rows = []
    for _ in range(records):
        # Most accesses fall in a hot fortieth of the footprint, so the
        # PDC both hits and evicts.
        if rng.random() < 0.7:
            page = rng.randrange(footprint // 40)
        else:
            page = rng.randrange(footprint)
        op = "r" if rng.random() < read_fraction else "w"
        rows.append(TraceRecord(page, op, pages=rng.randint(1, 4)))
    return Trace.from_records(rows)


def _digest(report) -> str:
    text = json.dumps(asdict(report), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_dram_only_request_path_golden():
    config = SystemConfig(dram_bytes=256 << 10, flush_interval_requests=500)
    system = DramOnlySystem(config)
    trace = _trace(seed=3, records=2500, footprint=4096, read_fraction=0.7)
    report = run_trace(system, trace)
    assert report.requests > 5 * config.flush_interval_requests
    assert report.pdc.read_hits > 0 and report.pdc.dirty_evictions > 0
    assert _digest(report) == DRAM_ONLY_DIGEST


def test_flash_backed_request_path_golden():
    system = build_flash_system(dram_bytes=128 << 10, flash_bytes=2 << 20,
                                seed=5)
    trace = _trace(seed=9, records=4000, footprint=2048, read_fraction=0.5)
    half = len(trace) // 2
    system.run(trace[:half])
    system.reset_measurement()
    report = run_trace(system, trace[half:])
    interval = system.config.flush_interval_requests
    assert report.requests >= 2 * interval
    flash = report.flash
    assert flash is not None and flash.read_hits > 0 and flash.gc_runs > 0
    assert report.pdc.dirty_evictions > 0
    assert _digest(report) == FLASH_BACKED_DIGEST

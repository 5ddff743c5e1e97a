"""The benchmark's workloads: inputs, the timed call, and output checks.

Each workload puts most of its host time in a different layer of the
simulator, so a change to one layer has a workload that shows it and
another that should not move (README.md has the layer table).  Inputs
are made from the benchmark's ``--seed``; the program only ever sees the
generated records or cluster scenario, through its public entry points
``build_workload``, ``build_flash_system``, ``run_trace_concurrent`` and
``run_cluster``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster import cluster as cluster_module
from repro.core import hierarchy
from repro.reliability import ReliabilityConfig, ScrubConfig
from repro.sim.concurrent import run_trace_concurrent
from repro.telemetry import LatencyHistogram
from repro.workloads import macro

__all__ = ["Outcome", "WORKLOADS", "SCALES"]

#: Input-size multipliers: ``smoke`` runs every workload at 1/50 size.
SCALES = {"full": 1.0, "smoke": 0.02}

#: Report fields that depend on how requests overlap in simulated time;
#: everything else must match between the serial and concurrent engines.
_TIMING_FIELDS = ("wall_clock_us", "throughput_rps", "queueing")


def _plain(value: Any) -> Any:
    if isinstance(value, LatencyHistogram):
        return value.__getstate__()
    raise TypeError(f"cannot digest {type(value).__name__}")


def _digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one timed call produced, and whether it is correct."""

    #: Simulated requests the timed call completed (the req/s numerator).
    requests: int
    #: SHA-256 of the whole simulated output.
    digest: str
    #: SHA-256 of the output minus its simulated-timing fields.
    functional_digest: str
    #: Failed correctness checks, by name.
    problems: List[str] = field(default_factory=list)


def _add(totals: Dict[str, float], stats: Any, fields: Sequence[str],
         prefix: str) -> None:
    for name in fields:
        totals[prefix + name] = (totals.get(prefix + name, 0)
                                 + getattr(stats, name))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(systems: Sequence[Any]) -> Dict[str, float]:
    """Simulated per-layer counts summed over every hierarchy built
    (one for a single node, one per shard incarnation for a cluster)."""
    raw: Dict[str, float] = {}
    for system in systems:
        _add(raw, system.pdc.stats,
             ("read_hits", "read_misses", "evictions"), "pdc.")
        cache = system.flash
        _add(raw, cache.stats, ("read_hits", "read_misses", "writes",
                                "fills", "gc_time_us", "gc_page_moves"),
             "cache.")
        _add(raw, cache.controller.stats,
             ("read_retries", "retry_recovered_reads", "uncorrectable_reads",
              "descriptor_updates"), "controller.")
        device = cache.controller.device
        _add(raw, device.stats, ("reads", "programs", "erases"), "device.")
        _add(raw, system.disk, ("reads", "writes"), "disk.")
        if device.reliability is not None:
            _add(raw, device.reliability.stats, ("error_bits",),
                 "reliability.")
        if system.scrubber is not None:
            _add(raw, system.scrubber.stats, ("passes", "page_rewrites"),
                 "scrub.")
    get = raw.get
    return {
        "dram.pdc.read_miss_rate": _ratio(
            get("pdc.read_misses", 0),
            get("pdc.read_hits", 0) + get("pdc.read_misses", 0)),
        "dram.pdc.evictions": get("pdc.evictions", 0),
        "core.cache.read_hit_ratio": _ratio(
            get("cache.read_hits", 0),
            get("cache.read_hits", 0) + get("cache.read_misses", 0)),
        "core.cache.gc_time_us": get("cache.gc_time_us", 0),
        "core.cache.gc_page_moves": get("cache.gc_page_moves", 0),
        "core.cache.gc_moves_per_erase": _ratio(
            get("cache.gc_page_moves", 0), get("device.erases", 0)),
        "core.controller.read_retries": get("controller.read_retries", 0),
        "core.controller.retry_recovered_reads":
            get("controller.retry_recovered_reads", 0),
        "core.controller.uncorrectable_reads":
            get("controller.uncorrectable_reads", 0),
        "core.controller.descriptor_updates":
            get("controller.descriptor_updates", 0),
        "flash.device.reads": get("device.reads", 0),
        "flash.device.programs": get("device.programs", 0),
        "flash.device.erases": get("device.erases", 0),
        "flash.device.write_amplification": _ratio(
            get("device.programs", 0),
            get("cache.writes", 0) + get("cache.fills", 0)),
        "disk.reads": get("disk.reads", 0),
        "disk.writes": get("disk.writes", 0),
        "reliability.error_bits": get("reliability.error_bits", 0),
        "reliability.scrub_passes": get("scrub.passes", 0),
        "reliability.scrub_rewrites": get("scrub.page_rewrites", 0),
    }


@dataclass(frozen=True)
class NodeWorkload:
    """One trace through one DRAM -> flash -> disk hierarchy."""

    name: str
    trace: str
    records: int
    dram_mb: int
    flash_mb: int
    footprint_pages: Optional[int] = None
    queue_depth: int = 1
    channels: int = 1
    planes: int = 1
    #: Attach the error-process model and background scrub.
    aged: bool = False

    @property
    def concurrent(self) -> bool:
        return self.queue_depth * self.channels * self.planes > 1

    def setup(self, seed: int, scale: float) -> Any:
        records = macro.build_workload(
            self.trace, num_records=max(1, round(self.records * scale)),
            seed=seed, footprint_pages=self.footprint_pages)
        reliability = scrub = None
        if self.aged:
            reliability = ReliabilityConfig.uniform(1e-5, seed=seed)
            scrub = ScrubConfig(interval_us=1e6, min_age_us=2e6)
        system = hierarchy.build_flash_system(
            dram_bytes=self.dram_mb << 20, flash_bytes=self.flash_mb << 20,
            reliability_config=reliability, scrub_config=scrub)
        return records, system

    def run(self, prepared: Any) -> Any:
        records, system = prepared
        return run_trace_concurrent(
            system, records, queue_depth=self.queue_depth,
            channels=self.channels, planes=self.planes)

    def serial_run(self, prepared: Any) -> Any:
        """The same inputs through the serial engine (functional check)."""
        records, system = prepared
        return run_trace_concurrent(system, records)

    def outcome(self, prepared: Any, report: Any) -> Outcome:
        records, _ = prepared
        document = asdict(report)
        functional = {key: value for key, value in document.items()
                      if key not in _TIMING_FIELDS}
        outcome = Outcome(requests=report.requests,
                          digest=_digest(document),
                          functional_digest=_digest(functional))
        expected = sum(record.pages for record in records)
        if report.requests != expected:
            outcome.problems.append(
                f"report.requests {report.requests} != {expected} "
                "expanded records")
        return outcome

    def counts(self, report: Any, systems: Sequence[Any]
               ) -> Dict[str, float]:
        queueing = report.queueing
        utilization = queueing.channel_utilization() if queueing else [0.0]
        return {
            **layer_counts(systems),
            "sim.queue_delay_p99_us": report.queue_delay_p99 or 0.0,
            "flash.channels.stalls":
                queueing.channel_stalls if queueing else 0,
            "flash.channels.utilization_mean": statistics.fmean(utilization),
            "cluster.shed": 0, "cluster.lost": 0, "cluster.redirected": 0,
            "cluster.sync_completed": 0, "cluster.response_p99_us": 0.0,
        }


@dataclass(frozen=True)
class ClusterWorkload:
    """An open-loop sharded cluster with a kill, a cascade and a repair."""

    name: str
    shards: int
    replicas: int
    rate_rps: float
    duration_s: float
    queue_depth: int
    shed_queue: int
    footprint_pages: int

    def setup(self, seed: int, scale: float) -> Any:
        # Only the scenario: run_cluster samples the open-loop arrival
        # plan itself, and that shows as the cluster.build_arrivals span.
        duration_us = self.duration_s * scale * 1e6
        return cluster_module.ClusterScenario(
            shards=self.shards, replicas=self.replicas, pattern="diurnal",
            rate_rps=self.rate_rps, duration_s=self.duration_s * scale,
            queue_depth=self.queue_depth, shed_queue=self.shed_queue,
            footprint_pages=self.footprint_pages,
            kill_shard=1, kill_at_us=0.3 * duration_us,
            cascade=((2, 0.6 * duration_us),),
            rejoin_at_us=0.8 * duration_us, seed=seed)

    def run(self, prepared: Any) -> Any:
        return cluster_module.run_cluster(prepared, workers=1)

    def outcome(self, prepared: Any, result: Any) -> Outcome:
        digest = _digest(result.as_dict())
        outcome = Outcome(requests=result.arrivals, digest=digest,
                          functional_digest=digest)
        if result.arrivals != result.completed + result.shed + result.lost:
            outcome.problems.append(
                f"cluster identity: arrivals {result.arrivals} != completed "
                f"{result.completed} + shed {result.shed} + lost "
                f"{result.lost}")
        return outcome

    def counts(self, result: Any, systems: Sequence[Any]
               ) -> Dict[str, float]:
        planes = result.scenario["planes"]
        utilization = [busy_us / (shard["span_us"] * planes)
                       for shard in result.shards if shard["span_us"] > 0
                       for busy_us in shard["channel_busy_us"]]
        latency = result.as_dict()["latency"]
        return {
            **layer_counts(systems),
            "sim.queue_delay_p99_us": latency["queue_delay_p99_us"],
            "flash.channels.stalls": sum(shard["channel_stalls"]
                                         for shard in result.shards),
            "flash.channels.utilization_mean":
                statistics.fmean(utilization) if utilization else 0.0,
            "cluster.shed": result.shed,
            "cluster.lost": result.lost,
            "cluster.redirected": result.redirected,
            "cluster.sync_completed": result.sync_completed,
            "cluster.response_p99_us": latency["response_p99_us"],
        }


#: Workload sizes; BENCHMARK.json says why each workload exists.  Each
#: repetition takes about a second of host time or less, so a run of
#: ``run_seconds`` has several to take a quartile of.
_SEARCH = dict(trace="websearch1", records=40_000, footprint_pages=32_768,
               dram_mb=4, flash_mb=128)

WORKLOADS = {workload.name: workload for workload in (
    NodeWorkload(name="web_pdc", trace="specweb99", records=200_000,
                 footprint_pages=131_072, dram_mb=16, flash_mb=64),
    NodeWorkload(name="search_flash", **_SEARCH),
    NodeWorkload(name="search_flash_qd16", queue_depth=16, channels=4,
                 planes=2, **_SEARCH),
    NodeWorkload(name="oltp_gc", trace="financial1", records=16_000,
                 footprint_pages=8_192, dram_mb=1, flash_mb=8),
    NodeWorkload(name="aged_flash", aged=True, **_SEARCH),
    ClusterWorkload(name="cluster_r2", shards=5, replicas=2,
                    rate_rps=9000.0, duration_s=6.0, queue_depth=4,
                    shed_queue=16, footprint_pages=16_384),
)}

"""Named sweep grids behind ``repro sweep --workers N``.

Each figure's ``tasks()``/``combine()`` pair (see the ``fig*`` modules)
is registered here with a builder that sizes its grid from a
:class:`ReportScale` and a combiner that reduces the ordered
:class:`~repro.parallel.SweepResult` list to plain JSON-ready data.
This registry is the only place a scale becomes a grid: ``repro sweep``
flattens the selected grids into one task list, fans it out through
:func:`repro.parallel.sweep`, and writes the aggregated document — so a
4-worker run of the full selection produces byte-identical JSON to
``--workers 1`` — and ``repro report`` renders the same grids as
markdown (:mod:`repro.experiments.report`).

Resilience (DESIGN.md section 12): the flattened task list and the
scale/figure selection define a stable ``sweep_id``; with
``journal_path`` set, every finished task is recorded in a
:class:`~repro.parallel.SweepJournal` under that id, and
``resume=True`` replays the journal's completed tasks so an interrupted
sweep continues where it died — with ``document["figures"]``
byte-identical to an uninterrupted run's.  ``timeout_s`` and ``retries``
configure the runner's :class:`~repro.parallel.RetryPolicy`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..parallel import (
    RetryPolicy,
    SweepJournal,
    SweepResult,
    SweepTask,
    compute_sweep_id,
    sweep,
)
from . import (
    fig1b_gc,
    fig4_split,
    fig6_ecc,
    fig7_density,
    fig9_power,
    fig10_ecc_throughput,
    fig11_reconfig,
    fig12_lifetime,
    fig13_error_regimes,
    fig14_concurrency,
    fig15_cluster,
    fig16_availability,
)

__all__ = ["ReportScale", "SweepSpec", "SWEEPS", "run_sweep"]


@dataclass(frozen=True)
class ReportScale:
    """Knobs trading report fidelity for runtime."""

    scale_divisor: int = 64
    trace_records: int = 120_000
    aging_blocks: int = 8
    aging_frames: int = 4

    @classmethod
    def quick(cls) -> "ReportScale":
        return cls(scale_divisor=128, trace_records=40_000,
                   aging_blocks=8, aging_frames=4)

    @classmethod
    def full(cls) -> "ReportScale":
        return cls(scale_divisor=32, trace_records=600_000,
                   aging_blocks=16, aging_frames=8)

    def fingerprint(self) -> str:
        """Stable text identity, folded into sweep journal ids so a
        journal written at one scale cannot resume another."""
        return (f"scale={self.scale_divisor}:{self.trace_records}:"
                f"{self.aging_blocks}:{self.aging_frames}")


@dataclass(frozen=True)
class SweepSpec:
    """One registered grid: scale-aware builder plus JSON combiner."""

    name: str
    description: str
    build: Callable[[ReportScale], List[SweepTask]]
    combine: Callable[[Sequence[SweepResult]], Any]


def _fig1b_build(scale: ReportScale) -> List[SweepTask]:
    return fig1b_gc.tasks(
        occupancies=(0.1, 0.3, 0.5, 0.7, 0.8, 0.9),
        flash_blocks=16 if scale.scale_divisor > 64 else 32)


def _fig1b_combine(results: Sequence[SweepResult]) -> Any:
    return [asdict(point) for point in fig1b_gc.combine(results)]


def _fig4_build(scale: ReportScale) -> List[SweepTask]:
    return fig4_split.tasks(flash_sizes_mb=(128, 384, 640),
                            scale_divisor=scale.scale_divisor,
                            num_records=scale.trace_records * 5)


def _fig4_combine(results: Sequence[SweepResult]) -> Any:
    return [asdict(point) for point in fig4_split.combine(results)]


def _fig6_build(scale: ReportScale) -> List[SweepTask]:
    return fig6_ecc.tasks()


def _fig6_combine(results: Sequence[SweepResult]) -> Any:
    combined = fig6_ecc.combine(results)
    return {
        "decode_latency": [asdict(p) for p in combined["decode_latency"]],
        "tolerable_cycles": {
            str(stdev): [[t, cycles] for t, cycles in points]
            for stdev, points in combined["tolerable_cycles"].items()},
    }


def _fig7_build(scale: ReportScale) -> List[SweepTask]:
    return fig7_density.tasks(area_fractions=(0.25, 0.5, 1.0, 2.0),
                              grid_points=41)


def _fig7_combine(results: Sequence[SweepResult]) -> Any:
    return [asdict(series) for series in fig7_density.combine(results)]


def _fig9_build(scale: ReportScale) -> List[SweepTask]:
    tasks: List[SweepTask] = []
    for workload in ("dbt2", "specweb99"):
        tasks.extend(fig9_power.tasks(
            workload, scale_divisor=scale.scale_divisor,
            num_records=scale.trace_records,
            warmup_records=max(scale.trace_records * 2 // 3, 10_000)))
    return tasks


def _group(results: Sequence[SweepResult]) -> Dict[str, List[SweepResult]]:
    """Partition a flattened grid back into per-workload panels (the
    key's second field, ``figN:<workload>:...``), preserving task order
    within each panel."""
    panels: Dict[str, List[SweepResult]] = {}
    for result in results:
        panels.setdefault(result.key.split(":")[1], []).append(result)
    return panels


def _fig9_combine(results: Sequence[SweepResult]) -> Any:
    panels = _group(results)
    out = {}
    for workload, panel_results in panels.items():
        combined = fig9_power.combine(panel_results)
        out[workload] = {
            "baseline": combined.baseline.as_dict(),
            "flash": combined.flash.as_dict(),
            "power_ratio": combined.power_ratio,
            "relative_bandwidth": combined.relative_bandwidth,
        }
    return out


def _fig10_build(scale: ReportScale) -> List[SweepTask]:
    tasks: List[SweepTask] = []
    for workload in ("specweb99", "dbt2"):
        tasks.extend(fig10_ecc_throughput.tasks(
            workload, strengths=(0, 5, 15, 50),
            scale_divisor=scale.scale_divisor,
            num_records=max(scale.trace_records // 3, 20_000)))
    return tasks


def _fig10_combine(results: Sequence[SweepResult]) -> Any:
    panels = _group(results)
    return {workload: [asdict(p)
                       for p in fig10_ecc_throughput.combine(panel_results)]
            for workload, panel_results in panels.items()}


def _fig11_build(scale: ReportScale) -> List[SweepTask]:
    return fig11_reconfig.tasks(num_blocks=scale.aging_blocks,
                                frames_per_block=scale.aging_frames)


def _fig11_combine(results: Sequence[SweepResult]) -> Any:
    return [asdict(row) for row in fig11_reconfig.combine(results)]


def _fig12_build(scale: ReportScale) -> List[SweepTask]:
    return fig12_lifetime.tasks(num_blocks=scale.aging_blocks,
                                frames_per_block=scale.aging_frames)


def _fig12_combine(results: Sequence[SweepResult]) -> Any:
    rows = fig12_lifetime.combine(results)
    return {
        "rows": [asdict(row) for row in rows],
        "average_improvement": fig12_lifetime.average_improvement(rows),
    }


def _fig13_build(scale: ReportScale) -> List[SweepTask]:
    return fig13_error_regimes.tasks(num_blocks=scale.aging_blocks,
                                     frames_per_block=scale.aging_frames)


def _fig13_combine(results: Sequence[SweepResult]) -> Any:
    return [asdict(row) for row in fig13_error_regimes.combine(results)]


def _fig14_build(scale: ReportScale) -> List[SweepTask]:
    return fig14_concurrency.tasks(
        scale_divisor=scale.scale_divisor,
        num_records=max(scale.trace_records // 3, 20_000))


def _fig14_combine(results: Sequence[SweepResult]) -> Any:
    return [asdict(row) for row in fig14_concurrency.combine(results)]


def _fig15_build(scale: ReportScale) -> List[SweepTask]:
    return fig15_cluster.tasks(
        duration_s=0.25 if scale.scale_divisor > 64 else 0.5)


def _fig15_combine(results: Sequence[SweepResult]) -> Any:
    return fig15_cluster.as_rows(fig15_cluster.combine(results))


def _fig16_build(scale: ReportScale) -> List[SweepTask]:
    return fig16_availability.tasks(
        duration_s=0.25 if scale.scale_divisor > 64 else 0.4)


def _fig16_combine(results: Sequence[SweepResult]) -> Any:
    return fig16_availability.as_rows(fig16_availability.combine(results))


SWEEPS: Dict[str, SweepSpec] = {
    "fig1b": SweepSpec("fig1b", "GC overhead vs occupancy",
                       _fig1b_build, _fig1b_combine),
    "fig4": SweepSpec("fig4", "split vs unified miss rate (dbt2)",
                      _fig4_build, _fig4_combine),
    "fig6": SweepSpec("fig6", "BCH latency and tolerable W/E cycles",
                      _fig6_build, _fig6_combine),
    "fig7": SweepSpec("fig7", "optimal SLC/MLC partition",
                      _fig7_build, _fig7_combine),
    "fig9": SweepSpec("fig9", "power breakdown and bandwidth",
                      _fig9_build, _fig9_combine),
    "fig10": SweepSpec("fig10", "throughput vs BCH strength",
                       _fig10_build, _fig10_combine),
    "fig11": SweepSpec("fig11", "reconfiguration breakdown",
                       _fig11_build, _fig11_combine),
    "fig12": SweepSpec("fig12", "lifetime extension",
                       _fig12_build, _fig12_combine),
    "fig13": SweepSpec("fig13", "error-regime robustness (lifetime, "
                       "UBER, scrub traffic)",
                       _fig13_build, _fig13_combine),
    "fig14": SweepSpec("fig14", "throughput and latency split vs "
                       "queue depth x channels",
                       _fig14_build, _fig14_combine),
    "fig15": SweepSpec("fig15", "cluster capacity and tail latency vs "
                       "shards x arrival rate",
                       _fig15_build, _fig15_combine),
    "fig16": SweepSpec("fig16", "cluster availability vs replication "
                       "under kill/cascade/repair chaos",
                       _fig16_build, _fig16_combine),
}


def sweep_id_for(selected: Sequence[str], scale: ReportScale,
                 tasks: Sequence[SweepTask]) -> str:
    """Identity of one configured sweep, for journal ownership checks.

    Folds the figure selection and the scale fingerprint into the label
    and every task's key/kwargs/seed into the digest, so a journal can
    only resume a sweep that would recompute the very same grid.

    The selection is canonicalised (sorted, deduplicated) before it is
    folded in: ``--figures fig9,fig4`` names the same sweep as
    ``--figures fig4,fig9``, so a resume with the figures spelled in a
    different order still owns its journal.  (``run_sweep`` applies the
    same canonicalisation to the task order, so the digest over the
    flattened grid agrees too.)
    """
    label = (f"figures={','.join(sorted(set(selected)))}"
             f"|{scale.fingerprint()}")
    return compute_sweep_id(tasks, label=label)


def run_sweep(figures: Optional[Sequence[str]] = None,
              scale: Optional[ReportScale] = None,
              workers: int = 1,
              progress: Optional[Callable[[SweepResult, int, int], None]]
              = None,
              journal_path: Optional[str] = None,
              resume: bool = False,
              timeout_s: Optional[float] = None,
              retries: int = 0) -> Dict[str, Any]:
    """Run the selected figure grids as one flattened parallel sweep.

    Returns a JSON-ready document: per-figure combined series plus a
    ``meta`` block (worker count, sweep id, per-figure task counts and
    timings, resume statistics, and any failed task keys with their
    tracebacks).  A figure whose tasks failed reports its error instead
    of aborting the others.

    ``journal_path`` makes the sweep durable; ``resume=True`` requires
    the journal to exist and to belong to this exact sweep (same
    figures, scale, and grids), replays its completed tasks, and re-runs
    only the rest.  The determinism contract extends to resumption:
    ``document["figures"]`` is byte-identical between an uninterrupted
    run and any interrupt/resume sequence.  ``meta`` carries volatile
    orchestration facts (elapsed time, resumed-task count) and is
    excluded from that contract.
    """
    scale = scale or ReportScale()
    # Canonical figure order: the selection is a *set* of grids, so
    # ``fig9,fig4`` must build the same flattened task list (and hence
    # the same sweep_id and journal identity) as ``fig4,fig9``.
    # ``document["figures"]`` is a dict keyed by figure name, so the
    # per-figure payloads are unaffected by this ordering.
    selected = sorted(set(figures or SWEEPS))
    unknown = set(selected) - set(SWEEPS)
    if unknown:
        raise KeyError(f"unknown sweep figures: {sorted(unknown)}; "
                       f"known: {', '.join(SWEEPS)}")
    grids = {name: SWEEPS[name].build(scale) for name in selected}
    flat: List[SweepTask] = [task for name in selected
                             for task in grids[name]]
    sweep_id = sweep_id_for(selected, scale, flat)

    journal: Optional[SweepJournal] = None
    replayed = 0
    if resume and journal_path is None:
        raise ValueError("resume=True requires a journal path")
    if journal_path is not None:
        if resume:
            journal = SweepJournal.resume(journal_path, sweep_id)
            replayed = sum(1 for e in journal.entries
                           if e["status"] == "ok")
        else:
            journal = SweepJournal.create(journal_path, sweep_id)

    policy = RetryPolicy(retries=retries, timeout_s=timeout_s)
    started = time.perf_counter()  # simlint: ignore[SIM001] -- sweep elapsed metadata
    results = sweep(flat, workers=workers, progress=progress,
                    policy=policy, journal=journal)
    elapsed = time.perf_counter() - started  # simlint: ignore[SIM001] -- sweep elapsed metadata

    document: Dict[str, Any] = {
        "meta": {
            "workers": workers,
            "sweep_id": sweep_id,
            "scale_divisor": scale.scale_divisor,
            "trace_records": scale.trace_records,
            "figures": selected,
            "tasks": len(flat),
            "resumed_tasks": replayed,
            "retries": retries,
            "timeout_s": timeout_s,
            "elapsed_s": round(elapsed, 3),
            "errors": {r.key: r.error for r in results if not r.ok},
            "attempts": {r.key: r.attempts for r in results
                         if r.attempts > 1},
        },
        "figures": {},
    }
    cursor = 0
    for name in selected:
        grid = grids[name]
        slice_results = results[cursor:cursor + len(grid)]
        cursor += len(grid)
        try:
            combined = SWEEPS[name].combine(slice_results)
        except Exception as exc:  # a failed task surfaced via unwrap()
            combined = {"error": str(exc)}
        document["figures"][name] = combined
    return document

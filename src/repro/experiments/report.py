"""Run the full evaluation and emit a consolidated markdown report.

``python -m repro report`` (or :func:`generate_report`) regenerates every
figure at a chosen scale and renders one document with all the series —
the data behind EXPERIMENTS.md, reproducible in a single command.

Each section runs its figure's registered grid
(:data:`~repro.experiments.sweeps.SWEEPS`) and renders that figure's own
``combine()`` output, so the report and ``repro sweep`` compute the very
same tasks at any scale; this module only formats them.
"""

from __future__ import annotations

import io
import time
from typing import Callable, Dict, List, Sequence

from ..parallel import SweepResult, sweep
from . import (
    fig1b_gc,
    fig4_split,
    fig6_ecc,
    fig7_density,
    fig9_power,
    fig10_ecc_throughput,
    fig11_reconfig,
    fig12_lifetime,
)
from .sweeps import SWEEPS, ReportScale, _group

__all__ = ["ReportScale", "generate_report", "SECTIONS"]


def _section_fig1b(out: io.StringIO, results: Sequence[SweepResult]) -> None:
    out.write("| used | normalized GC overhead |\n|---|---|\n")
    for point in fig1b_gc.combine(results):
        out.write(f"| {point.used_fraction:.0%} "
                  f"| {point.normalized_overhead:.2f} |\n")


def _section_fig4(out: io.StringIO, results: Sequence[SweepResult]) -> None:
    out.write("| flash | unified miss | split miss |\n|---|---|---|\n")
    for point in fig4_split.combine(results):
        out.write(f"| {point.flash_mb_paper_scale}MB "
                  f"| {point.unified_miss_rate:.3%} "
                  f"| {point.split_miss_rate:.3%} |\n")


def _section_fig6(out: io.StringIO, results: Sequence[SweepResult]) -> None:
    combined = fig6_ecc.combine(results)
    out.write("Decode latency (us): ")
    out.write(", ".join(f"t={p.t}:{p.total_us:.0f}"
                        for p in combined["decode_latency"]
                        if p.t in (2, 5, 8, 11)))
    out.write("\n\nTolerable W/E cycles at t=10: ")
    out.write(", ".join(f"stdev {frac:.0%}: {dict(points)[10]:.2e}"
                        for frac, points
                        in combined["tolerable_cycles"].items()))
    out.write("\n")


def _section_fig7(out: io.StringIO, results: Sequence[SweepResult]) -> None:
    for series in fig7_density.combine(results):
        out.write(f"\n**{series.workload}** "
                  f"(WSS {series.working_set_mb:.0f}MB): ")
        out.write(", ".join(
            f"{p.die_area_mm2:.0f}mm2->{p.optimal_slc_fraction:.0%} SLC "
            f"@{p.average_latency_us:.0f}us" for p in series.points))
        out.write("\n")


def _section_fig9(out: io.StringIO, results: Sequence[SweepResult]) -> None:
    out.write("| workload | baseline W | flash W | ratio | rel. bw |\n"
              "|---|---|---|---|---|\n")
    for panel in _group(results).values():
        result = fig9_power.combine(panel)
        out.write(f"| {result.workload} | {result.baseline.total_w:.2f} "
                  f"| {result.flash.total_w:.2f} "
                  f"| {result.power_ratio:.2f}x "
                  f"| {result.relative_bandwidth:.2f} |\n")


def _section_fig10(out: io.StringIO, results: Sequence[SweepResult]) -> None:
    panels = {workload: fig10_ecc_throughput.combine(panel)
              for workload, panel in _group(results).items()}
    out.write(f"| t | {' | '.join(panels)} |\n"
              f"|---|{'---|' * len(panels)}\n")
    for row in zip(*panels.values()):
        out.write(f"| {row[0].strength} | "
                  + " | ".join(f"{p.relative_bandwidth:.3f}" for p in row)
                  + " |\n")


def _section_fig11(out: io.StringIO, results: Sequence[SweepResult]) -> None:
    out.write("| workload | code strength | density |\n|---|---|---|\n")
    for row in fig11_reconfig.combine(results):
        out.write(f"| {row.workload} | {row.code_strength_fraction:.0%} "
                  f"| {row.density_fraction:.0%} |\n")


def _section_fig12(out: io.StringIO, results: Sequence[SweepResult]) -> None:
    rows = fig12_lifetime.combine(results)
    out.write("| workload | gain |\n|---|---|\n")
    for row in rows:
        out.write(f"| {row.workload} | {row.improvement:.1f}x |\n")
    out.write("\naverage improvement: "
              f"**{fig12_lifetime.average_improvement(rows):.1f}x** "
              "(paper: ~20x)\n")


SECTIONS: Dict[str, Callable[[io.StringIO, Sequence[SweepResult]], None]] = {
    "fig1b": _section_fig1b,
    "fig4": _section_fig4,
    "fig6": _section_fig6,
    "fig7": _section_fig7,
    "fig9": _section_fig9,
    "fig10": _section_fig10,
    "fig11": _section_fig11,
    "fig12": _section_fig12,
}


def generate_report(scale: ReportScale | None = None,
                    sections: List[str] | None = None,
                    workers: int = 1) -> str:
    """Render the evaluation report as markdown.

    ``workers > 1`` fans each section's grid out across processes via
    :func:`repro.parallel.sweep`; the rendered report is byte-identical
    to a serial run (modulo the wall-clock footnotes).
    """
    scale = scale or ReportScale()
    selected = sections or list(SECTIONS)
    unknown = set(selected) - set(SECTIONS)
    if unknown:
        raise KeyError(f"unknown sections: {sorted(unknown)}")
    out = io.StringIO()
    out.write("# repro evaluation report\n")
    out.write(f"\nscale: 1/{scale.scale_divisor} capacities, "
              f"{scale.trace_records} trace records per run\n")
    for name in selected:
        # Orchestration interval timing for the report footnote — this is
        # wall-clock *about* the run, never simulated time, so SIM001 is
        # waived here explicitly (and perf_counter is immune to NTP steps).
        started = time.perf_counter()  # simlint: ignore[SIM001] -- report footnote timing
        number = "1(b)" if name == "fig1b" else name.removeprefix("fig")
        out.write(f"\n## Figure {number} — {SWEEPS[name].description}\n\n")
        SECTIONS[name](out, sweep(SWEEPS[name].build(scale),
                                  workers=workers))
        elapsed = time.perf_counter() - started  # simlint: ignore[SIM001] -- report footnote timing
        out.write(f"\n_({elapsed:.1f}s)_\n")
    return out.getvalue()

"""Experiment runners: one module per paper table/figure.

Each ``fig*`` module exposes ``tasks()``, which builds the figure's grid
as :class:`~repro.parallel.SweepTask`\\ s, and ``combine()``, which turns
the ordered results into the figure's rows; ``combine(sweep(tasks()))``
regenerates the figure at any worker count, and each module's ``main()``
prints those rows the way the paper's figure plots them.
:data:`~repro.experiments.sweeps.SWEEPS` sizes every grid from a
:class:`~repro.experiments.sweeps.ReportScale` for ``repro sweep`` and
``repro report``.  The benchmark suite under ``benchmarks/`` runs the
same grids with pytest-benchmark and asserts the paper's qualitative
shapes.
"""

from .fig1b_gc import GcPoint
from .fig4_split import (
    SplitMissPoint,
    replay_disk_trace,
    PAPER_FLASH_SIZES_MB,
)
from .fig6_ecc import Fig6aPoint
from .fig7_density import Fig7Series, run_density_partition, FIG7_WORKLOADS
from .fig9_power import Fig9Config, Fig9Result, FIG9_CONFIGS
from .fig10_ecc_throughput import ThroughputPoint, PAPER_STRENGTHS
from .fig11_reconfig import ReconfigBreakdown, FIG11_WORKLOADS
from .fig12_lifetime import LifetimeRow, average_improvement, FIG12_WORKLOADS

__all__ = [
    "GcPoint",
    "SplitMissPoint",
    "replay_disk_trace",
    "PAPER_FLASH_SIZES_MB",
    "Fig6aPoint",
    "Fig7Series",
    "run_density_partition",
    "FIG7_WORKLOADS",
    "Fig9Config",
    "Fig9Result",
    "FIG9_CONFIGS",
    "ThroughputPoint",
    "PAPER_STRENGTHS",
    "ReconfigBreakdown",
    "FIG11_WORKLOADS",
    "LifetimeRow",
    "average_improvement",
    "FIG12_WORKLOADS",
]

"""Macro-benchmark trace generators (Table 4, bottom half).

The paper's macro workloads are dbt2 (OLTP over a 2GB database),
SPECWeb99 (a 1.8GB web-server image), and the four UMass Trace Repository
traces (WebSearch1/2, Financial1/2).  We do not ship the UMass traces
(they are a separate download; `repro.workloads.trace.read_spc` ingests
them directly when available), so each macro workload here is a synthetic
generator *statistically matched* to the published characteristics that
drive the paper's results:

* **footprint / working-set size** — the paper states them where they
  matter (Figure 7 titles: Financial2 = 443.8MB, WebSearch1 = 5116.7MB);
* **read/write mix** — web search is ~99% reads, Financial1 is
  write-dominated, dbt2 is a ~2:1 OLTP mix;
* **popularity tail** — web workloads are classic Zipf ("many accesses to
  files in a server platform are spatially and temporally a tailed
  distribution (Zipf)", section 5.2.2); the Financial OLTP traces
  concentrate on a small hot set (short tail), which is why Figure 7(a)
  finds a 70%-SLC optimum for Financial2 while WebSearch1 wants capacity.

Every generator is deterministic given a seed.  ``build_workload(name)``
resolves both macro and micro names, giving experiments one registry for
the full Table 4 suite.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from random import Random
from typing import Dict

from .synthetic import (
    ExponentialPopularity,
    PopularityDistribution,
    SyntheticConfig,
    UniformPopularity,
    ZipfPopularity,
    _SCATTER_OFFSET,
    _generated,
    _scatter_multiplier,
)
from .trace import PAGE_BYTES, Trace

__all__ = [
    "MacroWorkloadSpec",
    "MACRO_WORKLOADS",
    "ALL_WORKLOAD_NAMES",
    "generate_macro_trace",
    "build_workload",
    "workload_footprint_pages",
]


@dataclass(frozen=True)
class MacroWorkloadSpec:
    """Statistical profile of one macro benchmark.

    ``tail`` selects the popularity family: ``("zipf", alpha)``,
    ``("exp", lam)`` or ``("uniform",)``.  ``sequential_write_fraction``
    models OLTP log appends: that share of writes walks a dedicated
    sequential region instead of sampling the popularity distribution.
    """

    name: str
    description: str
    footprint_bytes: int
    read_fraction: float
    tail: tuple
    sequential_write_fraction: float = 0.0

    @property
    def footprint_pages(self) -> int:
        return max(1, self.footprint_bytes // PAGE_BYTES)

    def make_distribution(self, n: int) -> PopularityDistribution:
        family = self.tail[0]
        if family == "zipf":
            return ZipfPopularity(n, self.tail[1])
        if family == "exp":
            return ExponentialPopularity(n, self.tail[1])
        if family == "uniform":
            return UniformPopularity(n)
        raise ValueError(f"unknown tail family {family!r}")


#: Table 4 macro rows.  Footprints the paper states are used verbatim;
#: the rest follow the public characterisations of the original traces.
MACRO_WORKLOADS: Dict[str, MacroWorkloadSpec] = {
    "dbt2": MacroWorkloadSpec(
        name="dbt2",
        description="OLTP (TPC-C-like) over a 2GB database",
        footprint_bytes=2 << 30,
        read_fraction=0.65,
        tail=("zipf", 1.0),
        sequential_write_fraction=0.30,
    ),
    "specweb99": MacroWorkloadSpec(
        name="specweb99",
        description="SPECWeb99 1.8GB web-server disk image",
        footprint_bytes=int(1.8 * (1 << 30)),
        read_fraction=0.99,
        tail=("zipf", 1.2),
    ),
    "websearch1": MacroWorkloadSpec(
        name="websearch1",
        description="Search-engine access pattern 1 (UMass WebSearch1)",
        footprint_bytes=int(5116.7 * (1 << 20)),  # Figure 7(b) title
        read_fraction=0.99,
        tail=("zipf", 0.85),
    ),
    "websearch2": MacroWorkloadSpec(
        name="websearch2",
        description="Search-engine access pattern 2 (UMass WebSearch2)",
        footprint_bytes=int(4300 * (1 << 20)),
        read_fraction=0.99,
        tail=("zipf", 0.9),
    ),
    "financial1": MacroWorkloadSpec(
        name="financial1",
        description="OLTP financial application 1 (UMass Financial1, write-heavy)",
        footprint_bytes=int(800 * (1 << 20)),
        read_fraction=0.23,
        tail=("exp", 0.00015),
        sequential_write_fraction=0.10,
    ),
    "financial2": MacroWorkloadSpec(
        name="financial2",
        description="OLTP financial application 2 (UMass Financial2, read-mostly)",
        footprint_bytes=int(443.8 * (1 << 20)),  # Figure 7(a) title
        read_fraction=0.82,
        tail=("exp", 0.00020),
    ),
}

#: The full Table 4 suite in paper order (micro then macro); resolvable
#: through :func:`build_workload`.
ALL_WORKLOAD_NAMES = (
    "uniform", "alpha1", "alpha2", "alpha3", "exp1", "exp2",
    "dbt2", "specweb99", "websearch1", "websearch2",
    "financial1", "financial2",
)

_MICRO_SPECS: Dict[str, tuple] = {
    "uniform": ("uniform",),
    "alpha1": ("zipf", 0.8),
    "alpha2": ("zipf", 1.2),
    "alpha3": ("zipf", 1.6),
    "exp1": ("exp", 0.01),
    "exp2": ("exp", 0.1),
}


def generate_macro_trace(spec: MacroWorkloadSpec, num_records: int,
                         seed: int = 1234,
                         footprint_pages: int | None = None) -> Trace:
    """Generate ``num_records`` accesses following ``spec``.

    ``footprint_pages`` overrides the spec's natural footprint — used by
    experiments that scale working sets down to simulation-friendly sizes
    the way the paper scaled its benchmarks (section 6.1).
    """
    if num_records < 0:
        raise ValueError("num_records must be non-negative")
    if footprint_pages is None:
        n = spec.footprint_pages
    elif footprint_pages < 1:
        raise ValueError(
            f"footprint_pages must be at least 1, got {footprint_pages}")
    else:
        n = footprint_pages
    random = Random(seed).random
    sample_rank = spec.make_distribution(n).sample_rank
    multiplier = _scatter_multiplier(n)
    read_fraction = spec.read_fraction
    sequential_write_fraction = spec.sequential_write_fraction
    log_cursor = 0
    # Reserve the top 5% of the footprint as the sequential log region.
    log_region_start = n - max(n // 20, 1)
    log_region_pages = n - log_region_start
    pages = array("q")
    reads = bytearray()
    add_page = pages.append
    add_read = reads.append
    for _ in range(num_records):
        if random() < read_fraction:
            add_read(1)
        else:
            add_read(0)
            if random() < sequential_write_fraction:
                add_page(log_region_start + log_cursor % log_region_pages)
                log_cursor += 1
                continue
        add_page((sample_rank(random()) * multiplier + _SCATTER_OFFSET) % n)
    return _generated(pages, reads)


def workload_footprint_pages(name: str) -> int:
    """Footprint of a Table 4 workload in 2KB pages."""
    if name in MACRO_WORKLOADS:
        return MACRO_WORKLOADS[name].footprint_pages
    if name in _MICRO_SPECS:
        return SyntheticConfig().footprint_pages
    raise KeyError(f"unknown workload {name!r}")


def build_workload(name: str, num_records: int, seed: int = 1234,
                   footprint_pages: int | None = None,
                   read_fraction: float | None = None) -> Trace:
    """Materialise any Table 4 workload by name.

    Micro names (``uniform``, ``alpha1..3``, ``exp1..2``) use the 512MB
    micro footprint; macro names use their published footprints.  Both can
    be overridden for scaled-down experiments; an override below one page
    raises ``ValueError``.
    """
    if name in MACRO_WORKLOADS:
        spec = MACRO_WORKLOADS[name]
        if read_fraction is not None:
            spec = MacroWorkloadSpec(
                name=spec.name, description=spec.description,
                footprint_bytes=spec.footprint_bytes,
                read_fraction=read_fraction, tail=spec.tail,
                sequential_write_fraction=spec.sequential_write_fraction,
            )
        return generate_macro_trace(
            spec, num_records, seed=seed, footprint_pages=footprint_pages)
    if name in _MICRO_SPECS:
        config = SyntheticConfig(
            footprint_pages=(SyntheticConfig().footprint_pages
                             if footprint_pages is None else footprint_pages),
            num_records=num_records,
            read_fraction=0.9 if read_fraction is None else read_fraction,
            seed=seed,
        )
        tail = _MICRO_SPECS[name]
        spec = MacroWorkloadSpec(
            name=name, description=f"micro benchmark {name}",
            footprint_bytes=config.footprint_pages * PAGE_BYTES,
            read_fraction=config.read_fraction, tail=tail,
        )
        return generate_macro_trace(
            spec, num_records, seed=seed,
            footprint_pages=config.footprint_pages)
    raise KeyError(
        f"unknown workload {name!r}; known: {', '.join(ALL_WORKLOAD_NAMES)}"
    )

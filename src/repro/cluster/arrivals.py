"""Open-loop arrival processes for the cluster front-end.

The paper's server experiments drive the platform with SURGE/TPC-style
client populations — traffic that arrives whether or not the storage
stack is keeping up.  This module generates that kind of load as a
non-homogeneous Poisson process (thinning against a peak rate) shaped by
one of four canonical patterns:

* ``steady``      — constant intensity at the peak rate;
* ``diurnal``     — one full day-curve cycle (raised cosine between a
  15% overnight floor and the midday peak);
* ``flash_crowd`` — a quiet 25% baseline with a sharp spike to the peak
  over the middle 15% of the run;
* ``drain``       — linear ramp from the peak down to zero (the tail of
  an incident, or a shard being drained for maintenance).

Every arrival is paired with a key drawn from the macro workload
generators (:func:`repro.workloads.macro.build_workload`), so the
cluster serves the same reference streams as the single-shard figures.
Arrivals carry a global sequence number: routing and redirect merges
order on ``(time_us, seq)``, never on anything process-dependent.
"""

from __future__ import annotations

import math
from random import Random
from typing import Callable, Dict, List, Tuple

from ..parallel import derive_seed
from ..workloads.macro import build_workload

__all__ = ["ARRIVAL_PATTERNS", "Arrival", "intensity",
           "sample_arrival_times", "build_arrivals"]

#: One open-loop request: ``(time_us, seq, page, is_read)``.  A plain
#: tuple so substreams pickle cheaply into shard worker processes.
Arrival = Tuple[float, int, int, bool]


def _steady(x: float) -> float:
    return 1.0


def _diurnal(x: float) -> float:
    return 0.15 + 0.85 * 0.5 * (1.0 - math.cos(2.0 * math.pi * x))


def _flash_crowd(x: float) -> float:
    return 1.0 if 0.45 <= x < 0.6 else 0.25


def _drain(x: float) -> float:
    return max(0.0, 1.0 - x)


#: Each pattern's intensity shape over normalised time ``x``.  The one
#: table both :func:`intensity` and :func:`sample_arrival_times` read.
_SHAPES: Dict[str, Callable[[float], float]] = {
    "steady": _steady,
    "diurnal": _diurnal,
    "flash_crowd": _flash_crowd,
    "drain": _drain,
}

#: The supported open-loop traffic shapes.
ARRIVAL_PATTERNS = tuple(_SHAPES)


def _shape(pattern: str) -> Callable[[float], float]:
    try:
        return _SHAPES[pattern]
    except KeyError:
        raise ValueError(f"unknown arrival pattern {pattern!r}; "
                         f"known: {', '.join(ARRIVAL_PATTERNS)}") from None


def intensity(pattern: str, x: float) -> float:
    """Relative arrival intensity in [0, 1] at normalised time ``x``.

    ``x`` is the fraction of the run elapsed; the peak rate multiplies
    this shape to give the instantaneous rate.
    """
    return _shape(pattern)(x)


def sample_arrival_times(pattern: str, peak_rps: float, duration_s: float,
                         seed: int) -> List[float]:
    """Arrival instants (us) of a non-homogeneous Poisson process.

    Thinning construction: candidates arrive as a homogeneous Poisson
    process at ``peak_rps`` and survive with probability
    ``intensity(pattern, t/duration)``.  One seeded RNG drives both the
    exponential gaps and the thinning draws, so the stream is a pure
    function of ``(pattern, peak_rps, duration_s, seed)``.  An unknown
    ``pattern`` raises :class:`ValueError` before any draw.
    """
    # NaN and infinity pass a ``<= 0`` test, and the loop below would
    # then never end (NaN) or never advance (an infinite rate).
    if not (math.isfinite(peak_rps) and peak_rps > 0):
        raise ValueError(f"peak_rps must be finite and positive, "
                         f"got {peak_rps!r}")
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and positive, "
                         f"got {duration_s!r}")
    shape = _shape(pattern)
    rng = Random(derive_seed(seed, f"cluster:arrivals:{pattern}"))
    expovariate = rng.expovariate
    random = rng.random
    duration_us = duration_s * 1e6
    peak_per_us = peak_rps / 1e6
    times: List[float] = []
    t_us = 0.0
    while True:
        t_us += expovariate(peak_per_us)
        if t_us >= duration_us:
            return times
        if random() < shape(t_us / duration_us):
            times.append(t_us)


def build_arrivals(pattern: str, peak_rps: float, duration_s: float,
                   workload: str, footprint_pages: int,
                   seed: int) -> List[Arrival]:
    """The full open-loop request stream: times zipped with keys.

    Keys come from the named macro workload (its generators emit one
    page per record, so times and requests pair 1:1); the key stream's
    seed is derived independently of the timing stream's.
    """
    times = sample_arrival_times(pattern, peak_rps, duration_s, seed)
    keys = build_workload(workload, num_records=len(times),
                          seed=derive_seed(seed, "cluster:keys"),
                          footprint_pages=footprint_pages)
    return [(time_us, seq, page, is_read)
            for seq, (time_us, (page, is_read))
            in enumerate(zip(times, keys.requests()))]

"""Micro-benchmark trace generators (Table 4, top half).

The paper generates synthetic disk traces to span the space of access
skew, because "disk access behavior is often found to follow a power law":

* ``uniform`` — uniform page popularity over a 512MB footprint (the
  longest-tail extreme, alpha = 0);
* ``alpha1/alpha2/alpha3`` — Zipf-distributed popularity ``x^-alpha`` with
  alpha = 0.8, 1.2, 1.6;
* ``exp1/exp2`` — exponential popularity ``e^-lambda*x`` with lambda =
  0.01, 0.1 (the shortest-tail extreme).

All generators are deterministic given a seed, page-granular, and scatter
popularity ranks across the address space with a bijective affine map so
"hot" pages are not physically adjacent (as in real filesystems).  The
read/write mix defaults to the 90%-read server mix the paper's split-cache
sizing assumes ("Based on the observed write behavior, 90% of Flash is
dedicated to the read cache").
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from random import Random
from typing import List

from .trace import PAGE_BYTES, Trace

__all__ = [
    "SyntheticConfig",
    "PopularityDistribution",
    "UniformPopularity",
    "ZipfPopularity",
    "ExponentialPopularity",
    "generate_trace",
    "uniform_trace",
    "zipf_trace",
    "exponential_trace",
    "MICRO_FOOTPRINT_BYTES",
]

#: All micro-benchmarks use a 512MB footprint (Table 4).
MICRO_FOOTPRINT_BYTES = 512 << 20


@dataclass(frozen=True)
class SyntheticConfig:
    """Shared knobs for the synthetic generators."""

    footprint_pages: int = MICRO_FOOTPRINT_BYTES // PAGE_BYTES
    num_records: int = 100_000
    read_fraction: float = 0.9
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.footprint_pages < 1:
            raise ValueError("footprint must be at least one page")
        if self.num_records < 0:
            raise ValueError("num_records must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")


class PopularityDistribution:
    """Maps a uniform random draw to a popularity *rank* in [0, n)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("distribution needs at least one item")
        self.n = n

    def sample_rank(self, u: float) -> int:
        raise NotImplementedError

    def rank_probability(self, rank: int) -> float:
        raise NotImplementedError


class UniformPopularity(PopularityDistribution):
    """Every page equally likely — the alpha = 0 extreme."""

    def sample_rank(self, u: float) -> int:
        return min(int(u * self.n), self.n - 1)

    def rank_probability(self, rank: int) -> float:
        return 1.0 / self.n


class ZipfPopularity(PopularityDistribution):
    """Bounded Zipf: P(rank k) proportional to (k+1)^-alpha.

    Sampling uses binary search on the precomputed CDF; for the 256K-page
    micro footprint this costs ~18 comparisons per draw.
    """

    def __init__(self, n: int, alpha: float):
        super().__init__(n)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        weights = [(k + 1) ** -alpha for k in range(n)]
        total = math.fsum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0
        self._total = total

    def sample_rank(self, u: float) -> int:
        # hi = n-1: the last rank is the fallback and is never probed,
        # exactly as in a hand-rolled lo < hi search, so ranks hold even
        # where rounding puts cdf[-2] above the pinned cdf[-1] = 1.0.
        return bisect_left(self._cdf, u, 0, self.n - 1)

    def rank_probability(self, rank: int) -> float:
        return (rank + 1) ** -self.alpha / self._total


class ExponentialPopularity(PopularityDistribution):
    """P(rank k) proportional to exp(-lambda * k): the short-tail extreme.

    Closed-form inverse CDF (truncated geometric), no tables needed.
    """

    def __init__(self, n: int, lam: float):
        super().__init__(n)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        self.lam = lam
        self._tail = math.exp(-lam * n)  # probability mass beyond n, removed

    def sample_rank(self, u: float) -> int:
        # Inverse CDF of the truncated exponential.
        scaled = u * (1.0 - self._tail)
        rank = int(-math.log(1.0 - scaled) / self.lam)
        return min(rank, self.n - 1)

    def rank_probability(self, rank: int) -> float:
        lam = self.lam
        mass = math.exp(-lam * rank) - math.exp(-lam * (rank + 1))
        return mass / (1.0 - self._tail)


#: Additive term of the scatter map ``rank -> (rank * a + b) % n``.
_SCATTER_OFFSET = 12_345


def _scatter_multiplier(n: int) -> int:
    """Multiplier ``a`` of the bijective affine map that spreads
    popularity ranks across an ``n``-page space.

    Multiplication by an odd constant modulo n is a bijection when
    gcd(a, n) = 1; we nudge the multiplier until that holds.  Computed
    once per footprint, then applied as
    ``(rank * a + _SCATTER_OFFSET) % n`` per sample.
    """
    multiplier = 2_654_435_761  # Knuth's golden-ratio constant (odd)
    while math.gcd(multiplier, n) != 1:
        multiplier += 2
    return multiplier


def _generated(pages: array, reads: bytearray) -> Trace:
    """A generated trace: one page per record, stamped every 0.1 ms."""
    rows = len(pages)
    # Row i's timestamp is exactly i * 1e-4 (float.__rmul__ computes it).
    return Trace(pages, array("I", [1]) * rows, reads,
                 array("d", map((1e-4).__rmul__, range(rows))))


def generate_trace(distribution: PopularityDistribution,
                   config: SyntheticConfig) -> Trace:
    """Sample ``config.num_records`` pages from ``distribution``.

    Reads and writes share the popularity distribution (the paper's
    micro-benchmarks stress the cache's skew response, not read/write
    locality differences).
    """
    random = Random(config.seed).random
    sample_rank = distribution.sample_rank
    n = config.footprint_pages
    multiplier = _scatter_multiplier(n)
    read_fraction = config.read_fraction
    pages = array("q")
    reads = bytearray()
    add_page = pages.append
    add_read = reads.append
    for _ in range(config.num_records):
        add_page((sample_rank(random()) * multiplier + _SCATTER_OFFSET) % n)
        add_read(random() < read_fraction)
    return _generated(pages, reads)


def uniform_trace(config: SyntheticConfig | None = None) -> Trace:
    """Table 4 ``uniform``: uniform popularity over 512MB."""
    config = config or SyntheticConfig()
    return generate_trace(UniformPopularity(config.footprint_pages), config)


def zipf_trace(alpha: float, config: SyntheticConfig | None = None) -> Trace:
    """Table 4 ``alpha1/2/3``: Zipf popularity (alpha = 0.8, 1.2, 1.6)."""
    config = config or SyntheticConfig()
    return generate_trace(ZipfPopularity(config.footprint_pages, alpha), config)


def exponential_trace(lam: float,
                      config: SyntheticConfig | None = None) -> Trace:
    """Table 4 ``exp1/2``: exponential popularity (lambda = 0.01, 0.1)."""
    config = config or SyntheticConfig()
    return generate_trace(
        ExponentialPopularity(config.footprint_pages, lam), config)

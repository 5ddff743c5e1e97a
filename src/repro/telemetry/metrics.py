"""Metric primitives: counters, gauges, and fixed-bucket latency histograms.

The histogram is the workhorse: the paper's throughput story (Figure 10)
is set by *tail* storage latency, which an average cannot show.  A
:class:`LatencyHistogram` keeps a fixed geometric bucket ladder spanning
sub-microsecond DRAM hits to multi-millisecond disk seeks.  Observing a
sample only appends to a pending buffer — cheap enough for every request
of a multi-million-access trace — and the buffer is folded into the
buckets in bulk, in pure Python, the moment any statistic is read, so
callers never see a stale value.  A fold of 32 or more samples sums them
in numpy's pairwise order (:func:`_pairwise_sum`): totals are
bit-identical to ``numpy.sum`` of each batch, without numpy.  Percentiles
come out at report time by interpolating within the owning bucket.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
]

#: Default bucket upper edges (microseconds): geometric 1-2-5 ladder from
#: 1us (DRAM) through 100ms (degenerate multi-retry disk paths).  Samples
#: above the last edge land in an unbounded overflow bucket.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0,
)

#: A histogram folds its pending buffer into the buckets whenever it
#: reaches this many samples, bounding memory on unbounded traces.  The
#: fold points are part of the output: totals are summed per fold.  A
#: module constant, so :meth:`LatencyHistogram.observe` reads it
#: without a class-attribute lookup per sample.
_DRAIN_THRESHOLD = 65536


def _pairwise_sum(values: List[float], start: int, stop: int) -> float:
    """Sum ``values[start:stop]`` in numpy's ``pairwise_sum`` order.

    Under 8 items a plain loop from 0.0; up to 128, eight strided
    accumulators (``r[j]`` sums items ``j, j+8, ...``) combined as a
    balanced tree, then the remainder; above that, two halves split at
    a multiple of 8.  Totals come out bit-identical to ``numpy.sum`` of
    the same batch.  Plain ``+=``, never ``sum()``: ``sum`` of floats is
    compensated from Python 3.12 on.
    """
    size = stop - start
    if size > 128:
        half = size // 2
        half -= half % 8
        return (_pairwise_sum(values, start, start + half)
                + _pairwise_sum(values, start + half, stop))
    total = 0.0
    whole = start
    if size >= 8:
        whole = stop - size % 8
        it = iter(values[start:whole])
        rows = zip(it, it, it, it, it, it, it, it)
        r0, r1, r2, r3, r4, r5, r6, r7 = next(rows)
        for x0, x1, x2, x3, x4, x5, x6, x7 in rows:
            r0 += x0; r1 += x1; r2 += x2; r3 += x3  # noqa: E702
            r4 += x4; r5 += x5; r6 += x6; r7 += x7  # noqa: E702
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for value in values[whole:stop]:
        total += value
    return total


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class LatencyHistogram:
    """Fixed-bucket histogram with interpolated percentiles.

    Bucket ``i`` counts samples in ``(edges[i-1], edges[i]]`` (the first
    bucket starts at 0); samples above the last edge go to the overflow
    bucket.  Percentiles interpolate linearly inside the owning bucket and
    are clamped to the observed ``[min, max]``, which makes the
    single-sample and narrow-distribution cases exact instead of
    bucket-quantised.

    Internally :meth:`observe` buffers the raw value and every reader
    drains the buffer first (see the module docstring), so ``count``,
    ``counts`` and friends are plain properties rather than attributes.
    """

    __slots__ = ("name", "edges", "_counts", "_overflow", "_count",
                 "_total", "_min", "_max", "_pending", "_push")

    def __init__(self, name: str,
                 edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US):
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.edges: List[float] = list(edges)
        self._counts: List[int] = [0] * len(self.edges)
        self._overflow = 0
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = 0.0
        self._pending: List[float] = []
        # Pre-bound append: observe() is the hottest method in the
        # telemetry layer, one bound-method call is all it can afford.
        self._push = self._pending.append

    def observe(self, value: float) -> None:
        self._push(value)
        if len(self._pending) >= _DRAIN_THRESHOLD:
            self._drain()

    def _drain(self) -> None:
        """Fold buffered samples into the bucket counts."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self._push = self._pending.append
        self._count += len(pending)
        ordered = sorted(pending)
        low, high = ordered[0], ordered[-1]
        if len(pending) < 32:
            # One running total: the order pinned outputs hold below 32.
            total = 0.0
            for value in pending:
                total += value
        else:
            total = _pairwise_sum(pending, 0, len(pending))
            low, high = float(low), float(high)
        self._total += total
        counts = self._counts
        below = 0
        for index, edge in enumerate(self.edges):
            upto = bisect_right(ordered, edge, below)
            counts[index] += upto - below
            below = upto
        self._overflow += len(ordered) - below
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high

    # -- pickling (parallel sweep workers return histograms) ---------------------
    # The pending buffer holds a pre-bound ``list.append``; drain it and
    # drop both from the pickled state so the wire format is the folded
    # bucket counts only.

    def __getstate__(self) -> dict:
        self._drain()
        return {"name": self.name, "edges": self.edges,
                "counts": self._counts, "overflow": self._overflow,
                "count": self._count, "total": self._total,
                "min": self._min, "max": self._max}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.edges = state["edges"]
        self._counts = state["counts"]
        self._overflow = state["overflow"]
        self._count = state["count"]
        self._total = state["total"]
        self._min = state["min"]
        self._max = state["max"]
        self._pending = []
        self._push = self._pending.append

    # -- merging (parallel sweep aggregation) ------------------------------------

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram, bucket-wise.

        Bucket counts, overflow, count, min and max merge exactly, so
        percentiles of the merged histogram equal those of a single
        histogram that observed every sample — provided both sides
        share one bucket ladder.  The merged total is ``self.total +
        other.total``: float addition depends on grouping, so it can
        differ in the last bits from one histogram's total.
        """
        if other.edges != self.edges:
            raise ValueError(
                f"cannot merge histograms with different bucket edges "
                f"({self.name!r} vs {other.name!r})")
        self._drain()
        other._drain()
        for index, bucket in enumerate(other._counts):
            self._counts[index] += bucket
        self._overflow += other._overflow
        self._count += other._count
        self._total += other._total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max

    # -- read side: every accessor drains first ---------------------------------

    @property
    def counts(self) -> List[int]:
        self._drain()
        return self._counts

    @property
    def overflow(self) -> int:
        self._drain()
        return self._overflow

    @property
    def count(self) -> int:
        self._drain()
        return self._count

    @property
    def total(self) -> float:
        self._drain()
        return self._total

    @property
    def min(self) -> float:
        self._drain()
        return self._min

    @property
    def max(self) -> float:
        self._drain()
        return self._max

    @property
    def mean(self) -> float:
        self._drain()
        return self._total / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]; 0.0 on an empty histogram."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        self._drain()
        if self._count == 0:
            return 0.0
        rank = p / 100.0 * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            lower = self.edges[index - 1] if index else 0.0
            upper = self.edges[index]
            if cumulative + bucket_count >= rank:
                fraction = (rank - cumulative) / bucket_count
                value = lower + fraction * (upper - lower)
                return min(max(value, self._min), self._max)
            cumulative += bucket_count
        # Rank falls in the overflow bucket, which has no upper edge; the
        # observed max is the tightest honest answer.
        return self._max

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> Dict[str, float]:
        """Scalar digest used by reports and the JSON exporter."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def bucket_rows(self) -> List[Tuple[float, int]]:
        """(upper edge, count) per bucket, overflow last with +inf edge."""
        rows = list(zip(self.edges, self.counts))
        rows.append((float("inf"), self.overflow))
        return rows

    def __repr__(self) -> str:
        return (f"LatencyHistogram({self.name}, n={self.count}, "
                f"p50={self.p50:.1f}, p99={self.p99:.1f})")


class MetricsRegistry:
    """Get-or-create home for every named instrument."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  edges: Optional[Sequence[float]] = None
                  ) -> LatencyHistogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = LatencyHistogram(
                name, edges or DEFAULT_LATENCY_BUCKETS_US)
        return instrument

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (parallel sweep merge).

        Counters add; histograms merge bucket-wise (see
        :meth:`LatencyHistogram.merge`); gauges are last-write
        instantaneous values, so the incoming reading wins — callers
        merging in task order get the final task's gauge, matching what
        a serial run sharing one registry would have left behind.
        """
        for name, counter in other.counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other.gauges.items():
            self.gauge(name).value = gauge.value
        for name, histogram in other.histograms.items():
            self.histogram(name, histogram.edges).merge(histogram)

    def as_dict(self) -> Dict[str, Dict]:
        """Plain-data snapshot (the JSON exporter's payload)."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
        }

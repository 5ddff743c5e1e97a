"""Per-channel / per-plane NAND scheduling for the concurrent engine.

Real Flash throughput comes from interleaving operations across
independent channels and, within a channel, across planes (Chung et
al.'s DDR-NAND SSD, PAPERS.md).  The functional device model
(:class:`repro.flash.device.FlashDevice`) executes operations serially
— it is the *state* substrate — so concurrency lives here, in the
timing domain: the event engine places each request's NAND ops, given
as the latencies the device appended to its ``op_log``, on a bank of
channel/plane resources and charges any resource wait as queue delay.

Determinism: assignment is an in-order scan over plane indices that
stops early (:meth:`NandScheduler._pick` — *not* a plain least-loaded
pick) — no hashes, no randomness — so a given op sequence always lands
on the same resources in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

__all__ = ["ChannelConfig", "ScheduledOp", "NandScheduler"]


@dataclass(frozen=True)
class ChannelConfig:
    """Shape of the device's parallel fabric.

    ``channels * planes`` is the number of NAND operations that can be
    in flight at once; ``channels=1, planes=1`` reproduces the fully
    serial device of the compatibility path.
    """

    channels: int = 1
    planes: int = 1

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.planes < 1:
            raise ValueError("planes must be >= 1")

    @property
    def resources(self) -> int:
        return self.channels * self.planes


class ScheduledOp(NamedTuple):
    """Placement of one NAND op on the fabric."""

    channel: int
    plane: int
    start_us: float
    end_us: float
    #: Time the op sat waiting for its plane to free (0 when it started
    #: immediately); the engine charges this to the request's queue delay.
    wait_us: float


class NandScheduler:
    """Greedy early-stopping scheduler over ``channels x planes`` planes.

    Each plane is a single server: it executes one NAND operation at a
    time and frees at the op's end.  :meth:`schedule` places an op that
    becomes *ready* at ``ready_us`` on the plane :meth:`_pick` chooses,
    returning the placement and the wait it incurred;
    :meth:`place_chain` places a whole dependent op chain by the same
    rule in one call.  Busy time is accumulated per channel for the
    utilization figures.
    """

    def __init__(self, config: ChannelConfig) -> None:
        self.config = config
        # free_at[channel * planes + plane]
        self._free_at_us: List[float] = [0.0] * config.resources
        self.channel_busy_us: List[float] = [0.0] * config.channels
        self.ops_scheduled = 0

    def _pick(self, ready_us: float) -> Tuple[int, float]:
        """The plane an op ready at ``ready_us`` runs on, and when it frees.

        Scans in index order keeping the earliest-free plane so far (ties
        keep the lower index) and stops at the first index >= 1 where
        that plane is free by ``ready_us``.  With ``free_at = [5, 3, 1]``
        and ``ready_us = 10`` that is plane 1: neither the least-loaded
        plane (2) nor the lowest free index (0).  The pinned
        concurrent-engine digests depend on this exact rule.
        """
        best_index = 0
        best_free_us = self._free_at_us[0]
        for index in range(1, len(self._free_at_us)):
            free_us = self._free_at_us[index]
            if free_us < best_free_us:
                best_free_us = free_us
                best_index = index
            if best_free_us <= ready_us:
                break
        return best_index, best_free_us

    def schedule(self, ready_us: float, latency_us: float) -> ScheduledOp:
        """Place one op; returns where it ran and how long it waited."""
        if latency_us < 0:
            raise ValueError("latency_us must be non-negative")
        index, free_us = self._pick(ready_us)
        start_us = ready_us if free_us <= ready_us else free_us
        end_us = start_us + latency_us
        self._free_at_us[index] = end_us
        channel = index // self.config.planes
        plane = index % self.config.planes
        self.channel_busy_us[channel] += latency_us
        self.ops_scheduled += 1
        return ScheduledOp(channel=channel, plane=plane,
                           start_us=start_us, end_us=end_us,
                           wait_us=start_us - ready_us)

    def place_chain(self, ready_us: float,
                    ops: Sequence[float]) -> Tuple[float, float, int]:
        """Place a dependent op chain, given as the ops' latencies (us):
        each op is ready when the one before it ends, the first at
        ``ready_us``.

        Equivalent to one :meth:`schedule` call per op, without building
        a :class:`ScheduledOp` for each; :meth:`_pick`'s scan runs
        inline.  Returns ``(end_us, wait_us, stalls)``: when the last
        op ends, the total time the chain waited for planes, and how
        many of its ops waited at all.
        """
        free_at = self._free_at_us
        busy_us = self.channel_busy_us
        planes = self.config.planes
        later_planes = range(1, len(free_at))
        wait_us = 0.0
        stalls = 0
        for latency_us in ops:
            if latency_us < 0:
                raise ValueError("latency_us must be non-negative")
            # _pick, inline: the same early-stopping scan and tie rule.
            index = 0
            free_us = free_at[0]
            for candidate in later_planes:
                candidate_free_us = free_at[candidate]
                if candidate_free_us < free_us:
                    free_us = candidate_free_us
                    index = candidate
                if free_us <= ready_us:
                    break
            if free_us > ready_us:
                wait_us += free_us - ready_us
                stalls += 1
                ready_us = free_us
            ready_us += latency_us
            free_at[index] = ready_us
            busy_us[index // planes] += latency_us
        self.ops_scheduled += len(ops)
        return ready_us, wait_us, stalls

    def horizon_us(self) -> float:
        """Time at which the whole fabric falls idle."""
        return max(self._free_at_us)

    def utilization(self, span_us: float) -> List[float]:
        """Per-channel busy fraction over a ``span_us`` window.

        A channel with ``planes`` planes offers ``planes * span_us`` of
        service time, so the fraction is normalised by both.
        """
        if span_us <= 0:
            return [0.0] * self.config.channels
        capacity_us = span_us * self.config.planes
        return [busy_us / capacity_us for busy_us in self.channel_busy_us]

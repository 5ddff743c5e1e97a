"""Deterministic discrete-event core for the concurrent simulator.

The paper's Flash disk cache fronts a server with many requests in
flight; modelling that requires an event-driven clock rather than the
serial request loop of :mod:`repro.sim.engine`.  This module provides
the primitive: a :class:`EventLoop` whose priority queue is ordered by
``(time_us, seq)`` — the sequence number is assigned at post time, so
two events scheduled for the same instant always fire in posting order.
Nothing here reads the wall clock (simlint SIM001) and nothing here may
advance device clocks behind the loop's back (simlint SIM010): a heap
entry is the plain tuple ``(time_us, seq, kind, payload)`` — no object
per event — and handlers are called as ``handler(now_us, payload)``,
taking the current time from the loop that popped the entry.

Events exist only for things that happen at a simulated instant the
handler needs (DESIGN.md section 14); everything else — NAND op
placement, channel stalls, GC and scrub accounting — is done inline by
the engine when the request is admitted.  The vocabulary:

* ``ARRIVE``   — an open-loop request reaches a cluster shard at its
  planned instant (:mod:`repro.cluster.shard`);
* ``COMPLETE`` — a request finished; its window slot frees;
* ``SYNC``     — one anti-entropy catch-up op (a sync write on the
  rejoining shard, or the paired source read on a neighbour).

A repaired shard's rejoin is not an event: its incarnation's arrivals
and catch-up ops start at the rejoin instant, and the shard's reported
span is clamped to reach it.
"""

from __future__ import annotations

from enum import IntEnum
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EventType", "EventLoop"]


class EventType(IntEnum):
    """The event vocabulary; the int value indexes the loop's tables."""

    ARRIVE = 0
    COMPLETE = 1
    SYNC = 2


#: Called as ``handler(now_us, payload)``.
Handler = Callable[[float, Any], None]


class EventLoop:
    """Stable-ordered discrete-event loop.

    Determinism contract:

    * the queue orders on ``(time_us, seq)`` where ``seq`` is a counter
      incremented per post — ties in simulated time resolve in posting
      order, never by payload identity, hash order, or wall clock;
    * time is monotonic: posting into the past raises, and ``now_us``
      only moves when the loop pops an event;
    * handlers receive the current time as their first argument; they
      must not read wall clocks or advance device clocks directly
      (simlint SIM001/SIM010).

    :meth:`run` dispatches through :meth:`step`, one call per event
    (the per-layer benchmark spans count events through it).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._now_us = 0.0
        # Indexed by EventType value: a list lookup per event, no hashing.
        self._handlers: List[Optional[Handler]] = [None] * len(EventType)
        self._counts: List[int] = [0] * len(EventType)

    @property
    def now_us(self) -> float:
        """Current simulated time (us)."""
        return self._now_us

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def dispatched(self) -> Dict[EventType, int]:
        """Events dispatched so far, by type (observability/testing)."""
        return {kind: count for kind, count in zip(EventType, self._counts)
                if count}

    def register(self, event_type: EventType, handler: Handler) -> None:
        """Bind ``handler`` to ``event_type`` (one handler per type)."""
        if self._handlers[event_type] is not None:
            raise ValueError(
                f"handler already registered for {event_type.name}")
        self._handlers[event_type] = handler

    def close(self) -> None:
        """Drop every handler.  Handlers bound to an engine that owns the
        loop form a cycle only the cyclic GC frees; a finished engine
        breaks it, so its system is freed with the engine's last
        reference instead of at some later collection."""
        self._handlers = [None] * len(EventType)

    def post(self, delay_us: float, kind: int, payload: Any = None) -> None:
        """Schedule a ``kind`` event ``delay_us`` after the current time."""
        if delay_us < 0:
            raise ValueError("delay_us must be non-negative")
        self.post_at(self._now_us + delay_us, kind, payload)

    def post_at(self, time_us: float, kind: int, payload: Any = None) -> None:
        """Schedule a ``kind`` event at an absolute simulated time.

        ``kind`` is an :class:`EventType` or its int value; engines post
        the plain int, which indexes the loop's tables fastest.
        """
        if time_us < self._now_us:
            raise ValueError(
                f"cannot post into the past ({time_us} < {self._now_us})")
        heappush(self._heap, (time_us, self._seq, kind, payload))
        self._seq += 1

    def step(self) -> bool:
        """Pop and dispatch one event; ``False`` when the queue is empty."""
        try:
            time_us, _, kind, payload = heappop(self._heap)
        except IndexError:
            return False
        self._now_us = time_us
        self._counts[kind] += 1
        handler = self._handlers[kind]
        if handler is None:
            raise KeyError(
                f"no handler registered for {EventType(kind).name}")
        handler(time_us, payload)
        return True

    def run(self) -> float:
        """Dispatch until the queue drains; returns the final time (us)."""
        step = self.step
        while step():
            pass
        return self._now_us

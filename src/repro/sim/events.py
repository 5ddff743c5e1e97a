"""Deterministic discrete-event core for the concurrent simulator.

The paper's Flash disk cache fronts a server with many requests in
flight; modelling that requires an event-driven clock rather than the
serial request loop of :mod:`repro.sim.engine`.  This module provides
the primitive: a :class:`EventLoop` whose priority queue is ordered by
``(time_us, seq)`` — the sequence number is assigned at post time, so
two events scheduled for the same instant always fire in posting order.
Nothing here reads the wall clock (simlint SIM001) and nothing here may
advance device clocks behind the loop's back (simlint SIM010): handlers
receive the event and take the current time from ``loop.now_us``.

Events exist only for things that happen at a simulated instant the
handler needs (DESIGN.md section 14); everything else — NAND op
placement, channel stalls, GC and scrub accounting — is done inline by
the engine when the request is admitted.  The vocabulary:

* ``ARRIVE``   — an open-loop request reaches a cluster shard at its
  planned instant (:mod:`repro.cluster.shard`);
* ``COMPLETE`` — a request finished; its window slot frees;
* ``REJOIN``   — a repaired cluster shard re-entered the ring
  (:mod:`repro.cluster.shard`, repair/re-admission);
* ``SYNC``     — one anti-entropy catch-up op (a sync write on the
  rejoining shard, or the paired source read on a neighbour).
"""

from __future__ import annotations

from enum import IntEnum
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["EventType", "Event", "EventLoop"]


class EventType(IntEnum):
    """The event vocabulary; the int value indexes the loop's tables."""

    ARRIVE = 0
    COMPLETE = 1
    REJOIN = 2
    SYNC = 3


class Event(NamedTuple):
    """One typed occurrence at one simulated instant."""

    type: EventType
    payload: Any = None


Handler = Callable[[Event], None]


class EventLoop:
    """Stable-ordered discrete-event loop.

    Determinism contract:

    * the queue orders on ``(time_us, seq)`` where ``seq`` is a counter
      incremented per post — ties in simulated time resolve in posting
      order, never by payload identity, hash order, or wall clock;
    * time is monotonic: posting into the past raises, and ``now_us``
      only moves when the loop pops an event;
    * handlers take the current time from :attr:`now_us`; they must not
      read wall clocks or advance device clocks directly (simlint
      SIM001/SIM010).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
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

    def post(self, delay_us: float, event: Event) -> None:
        """Schedule ``event`` ``delay_us`` after the current time."""
        if delay_us < 0:
            raise ValueError("delay_us must be non-negative")
        self.post_at(self._now_us + delay_us, event)

    def post_at(self, time_us: float, event: Event) -> None:
        """Schedule ``event`` at an absolute simulated time."""
        if time_us < self._now_us:
            raise ValueError(
                f"cannot post into the past ({time_us} < {self._now_us})")
        heappush(self._heap, (time_us, self._seq, event))
        self._seq += 1

    def step(self) -> Optional[Event]:
        """Pop and dispatch one event; ``None`` when the queue is empty."""
        if not self._heap:
            return None
        time_us, _, event = heappop(self._heap)
        self._now_us = time_us
        kind = event.type
        self._counts[kind] += 1
        handler = self._handlers[kind]
        if handler is None:
            raise KeyError(f"no handler registered for {kind.name}")
        handler(event)
        return event

    def run(self) -> float:
        """Dispatch until the queue drains; returns the final time (us)."""
        while self.step() is not None:
            pass
        return self._now_us

"""Consistent-hash routing across cache shards.

The front-end maps every page key onto shards with a classic
consistent-hash ring: each shard owns ``vnodes`` points on a 64-bit
circle, and a key routes to the first shard point at or clockwise of the
key's own hash.  Retiring a shard (degraded device, scripted kill) only
remaps the keys that shard owned — the failover property the cluster
experiments measure.

Replication (``route_replicas``) extends the same walk: a key's replica
set is the first R *distinct* shards clockwise of its hash, skipping
repeated vnodes of shards already collected.  The successor-walk
construction keeps the minimal-move property in both directions: a
shard leaving the ring only moves its own keys onto their next
successors, and a repaired shard rejoining only takes its own keys
back.

Every hash is SHA-256 (simlint SIM003: builtin ``hash()`` is salted per
process and would make routing depend on ``PYTHONHASHSEED``).  Lookup
with an exclusion set walks clockwise past excluded shards, so failover
targets are exactly the next live owners on the circle.  A walk that
runs out of shards — every shard excluded, or a replication factor
above the live population — raises the typed
:class:`~repro.cluster.errors.ClusterError` rather than looping or
silently under-providing replicas.

The walk's answer depends only on the key's start position on the
circle, the exclusion set and R, so the ring fills a *successor table*
per ``(exclusion, R)`` lazily: one slot per ring point, each the replica
tuple a walk from that point returns.  A route is then one SHA-256, one
bisect and one list index.  Tables are keyed by the exclusion restricted
to the ring's own shard ids, so there are at most ``2^shards x shards``
of them, each at most ``len(points)`` tuples; the ring keeps no
per-page state.  Validation runs before a table is touched and a
failing ``(exclusion, R)`` never gets one, so it raises on every call.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import ClusterError

__all__ = ["HashRing"]

#: A successor table: slot ``i`` is the replica tuple of a walk that
#: starts at ring point ``i`` (None until first needed).
_Table = List[Optional[Tuple[int, ...]]]


def _point(text: str) -> int:
    """Stable 64-bit position on the circle."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Deterministic consistent-hash ring over integer shard ids."""

    def __init__(self, shard_ids: Iterable[int],
                 vnodes: int = 64) -> None:
        ids = list(shard_ids)
        if not ids:
            raise ValueError("ring needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate shard ids")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.shard_ids: Tuple[int, ...] = tuple(sorted(ids))
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = [
            (_point(f"shard:{shard_id}:{replica}"), shard_id)
            for shard_id in self.shard_ids
            for replica in range(vnodes)]
        points.sort()
        self._owners = [shard_id for _, shard_id in points]
        self._hashes = [position for position, _ in points]
        self._ids = frozenset(self.shard_ids)
        self._tables: Dict[Tuple[FrozenSet[int], int], _Table] = {}

    def route(self, page: int, exclude: Iterable[int] = ()) -> int:
        """Owning shard for ``page``, skipping any shard in ``exclude``.

        Walks clockwise from the key's position; with exclusions the key
        lands on the next live shard's point, which is how traffic from
        a retired shard spreads across the survivors.  Raises
        :class:`ClusterError` when every shard is excluded.
        """
        return self.route_replicas(page, 1, exclude=exclude)[0]

    def route_replicas(self, page: int, replicas: int,
                       exclude: Iterable[int] = ()) -> Tuple[int, ...]:
        """The first ``replicas`` distinct live shards clockwise of
        ``page``'s position, in walk order.

        Element 0 is the key's primary (what :meth:`route` returns);
        the rest are its replica successors.  Reads are served by the
        first live member; writes fan out to all of them.  Raises
        :class:`ClusterError` when fewer than ``replicas`` distinct
        shards survive the exclusion — silently returning a short
        tuple would under-provide the key without anyone noticing.
        """
        excluded = frozenset(exclude)
        table = self._tables.get((excluded, replicas))
        if table is None:
            table = self._table(excluded, replicas)
        start = bisect.bisect_left(self._hashes, _point(f"page:{page}"))
        if start == len(table):
            start = 0  # past the last point: wrap to the first
        chosen = table[start]
        if chosen is None:
            chosen = table[start] = self._walk(start, excluded, replicas)
        return chosen

    def _table(self, excluded: FrozenSet[int],
               replicas: int) -> _Table:
        """Validate ``(excluded, replicas)`` and return its successor
        table, creating it on first use.  Raises before any table is
        stored, so a failing pair keeps failing on every call."""
        if replicas < 1:
            raise ClusterError("replicas must be >= 1")
        excluded = excluded & self._ids
        live = len(self.shard_ids) - len(excluded)
        if live < replicas:
            raise ClusterError(
                f"cannot place {replicas} replicas on {live} live "
                f"shard(s) ({len(self.shard_ids)} total, "
                f"{len(excluded)} excluded)")
        return self._tables.setdefault((excluded, replicas),
                                       [None] * len(self._owners))

    def _walk(self, start: int, excluded: FrozenSet[int],
              replicas: int) -> Tuple[int, ...]:
        """Clockwise walk from ring point ``start`` collecting the first
        ``replicas`` distinct shards not in ``excluded``."""
        owners = self._owners
        count = len(owners)
        chosen: List[int] = []
        for offset in range(count):
            shard_id = owners[(start + offset) % count]
            if shard_id in excluded or shard_id in chosen:
                continue
            chosen.append(shard_id)
            if len(chosen) == replicas:
                return tuple(chosen)
        raise ClusterError(  # pragma: no cover - guarded by _table
            f"ring walk exhausted before placing {replicas} replicas")

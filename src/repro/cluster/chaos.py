"""Scripted failure/repair timelines for the cluster orchestrator.

A :class:`ChaosSchedule` is the declarative form of everything the
membership service "knows in advance" about a run: which shards die at
which simulated instants (:class:`KillSpec`), and which repaired shards
rejoin the ring when (:class:`RejoinSpec`).  Organic retirements — an
aged shard whose fault ladder trips graceful degradation — are *not* in
the schedule; they are discovered when the shard runs and cascade
through the same staged redirect machinery.

The schedule answers the questions the planner asks:

* :meth:`ChaosSchedule.dead_at` — which shards are out of the ring at
  instant ``t`` (killed, and not yet rejoined);
* :meth:`ChaosSchedule.change_instants` — the instants at which that
  answer can change, which split the run into liveness epochs;
* :meth:`ChaosSchedule.stages` — the deterministic stage order: kills
  grouped by identical kill instant, ascending, so a same-microsecond
  double kill runs as one stage and a later kill (a survivor cascade)
  runs after the redirects it will absorb have been merged in.

A schedule is scripted, never drawn: :meth:`ChaosSchedule.from_scenario`
builds it from a scenario's kill, cascade and rejoin primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import ClusterError

__all__ = ["KillSpec", "RejoinSpec", "ChaosSchedule"]


@dataclass(frozen=True)
class KillSpec:
    """One scripted shard death: in-flight work is lost or retried
    (replicas permitting), later arrivals route around the corpse."""

    shard: int
    at_us: float


@dataclass(frozen=True)
class RejoinSpec:
    """One repaired shard re-admission: the shard re-enters the ring at
    ``at_us`` with a cold cache and a catch-up sync of the keys that
    moved away while it was down."""

    shard: int
    at_us: float


@dataclass(frozen=True)
class ChaosSchedule:
    """A validated, immutable failure/repair timeline."""

    kills: Tuple[KillSpec, ...] = ()
    rejoins: Tuple[RejoinSpec, ...] = ()

    def __post_init__(self) -> None:
        killed = [kill.shard for kill in self.kills]
        if len(set(killed)) != len(killed):
            raise ClusterError("duplicate kill for one shard; a shard "
                               "dies at most once per run")
        if any(kill.at_us < 0.0 for kill in self.kills):
            raise ClusterError("kill instants must be >= 0")
        kill_at = {kill.shard: kill.at_us for kill in self.kills}
        rejoined = [rejoin.shard for rejoin in self.rejoins]
        if len(set(rejoined)) != len(rejoined):
            raise ClusterError("duplicate rejoin for one shard")
        for rejoin in self.rejoins:
            if rejoin.shard not in kill_at:
                raise ClusterError(
                    f"shard {rejoin.shard} rejoins but was never "
                    f"killed; repair needs a preceding kill")
            if rejoin.at_us <= kill_at[rejoin.shard]:
                raise ClusterError(
                    f"shard {rejoin.shard} rejoins at {rejoin.at_us} "
                    f"<= its kill at {kill_at[rejoin.shard]}; repair "
                    f"takes time")

    # -- queries -------------------------------------------------------------

    @property
    def killed_shards(self) -> Tuple[int, ...]:
        return tuple(sorted(kill.shard for kill in self.kills))

    def kill_at(self, shard: int) -> Optional[float]:
        for kill in self.kills:
            if kill.shard == shard:
                return kill.at_us
        return None

    def rejoin_at(self, shard: int) -> Optional[float]:
        for rejoin in self.rejoins:
            if rejoin.shard == shard:
                return rejoin.at_us
        return None

    def dead_at(self, time_us: float) -> FrozenSet[int]:
        """Shards out of the ring at ``time_us`` per the script alone
        (organic retirements are a run-time discovery, not a plan)."""
        dead = set()
        for kill in self.kills:
            if time_us < kill.at_us:
                continue
            rejoin_us = self.rejoin_at(kill.shard)
            if rejoin_us is None or time_us < rejoin_us:
                dead.add(kill.shard)
        return frozenset(dead)

    def change_instants(self) -> Tuple[float, ...]:
        """Every instant membership changes (kills and rejoins), sorted
        and distinct.  They split time into *liveness epochs*: between
        two consecutive instants (from the earlier one inclusive)
        :meth:`dead_at` and every shard's incarnation are constant."""
        return tuple(sorted({kill.at_us for kill in self.kills}
                            | {rejoin.at_us for rejoin in self.rejoins}))

    def stages(self) -> List[Tuple[float, Tuple[int, ...]]]:
        """Scripted kill stages: ``(kill_at_us, shards)`` ascending.

        Shards killed at the same instant share a stage (their redirect
        streams merge together); a later kill is a *survivor cascade* —
        it runs after earlier stages so the redirects it absorbed are
        already in its stream when it, too, dies.
        """
        groups: Dict[float, List[int]] = {}
        for kill in self.kills:
            groups.setdefault(kill.at_us, []).append(kill.shard)
        return [(at_us, tuple(sorted(groups[at_us])))
                for at_us in sorted(groups)]

    def validate_fleet(self, shards: int) -> None:
        """Check every scripted shard id fits the fleet."""
        for label, members in (("kill", self.killed_shards),
                               ("rejoin", tuple(r.shard
                                                for r in self.rejoins))):
            for shard in members:
                if not 0 <= shard < shards:
                    raise ClusterError(
                        f"{label} names shard {shard} outside the "
                        f"fleet (0..{shards - 1})")
        if len(self.kills) >= shards:
            raise ClusterError(
                f"schedule kills {len(self.kills)} of {shards} shards; "
                f"at least one must survive to absorb failover traffic")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_scenario(cls, kill_shard: Optional[int],
                      kill_at_us: Optional[float],
                      cascade: Sequence[Tuple[int, float]],
                      rejoin_at_us: Optional[float]) -> "ChaosSchedule":
        """Build the schedule from :class:`ClusterScenario` primitives."""
        kill_specs: List[KillSpec] = []
        if kill_shard is not None:
            if kill_at_us is None:
                raise ClusterError("kill_shard without a kill instant")
            kill_specs.append(KillSpec(kill_shard, kill_at_us))
        for shard, at_us in cascade:
            kill_specs.append(KillSpec(shard, at_us))
        rejoin_specs: List[RejoinSpec] = []
        if rejoin_at_us is not None:
            if kill_shard is None:
                raise ClusterError("rejoin_at_us needs kill_shard: only "
                                   "a killed shard can be repaired")
            rejoin_specs.append(RejoinSpec(kill_shard, rejoin_at_us))
        return cls(kills=tuple(kill_specs), rejoins=tuple(rejoin_specs))

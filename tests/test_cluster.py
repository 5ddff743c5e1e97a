"""Cluster service tests: routing, arrivals, failover, determinism.

Covers DESIGN.md section 15's contracts:

* the consistent-hash ring is deterministic, balanced-ish, and minimal
  on exclusion (only the excluded shard's keys move) — and its replica
  walk places R distinct shards or raises the typed
  :class:`ClusterError`, never under-provides silently;
* open-loop arrival plans are seeded, time-sorted, and shaped by their
  intensity profile;
* a fixed-seed cluster run — feed included — is byte-identical at any
  worker layout (the acceptance criterion of ISSUE 8), including under
  cascades, replication, and repair (ISSUE 10);
* killing a shard mid-run keeps the survivors serving with bounded p99
  and zero lost-request accounting drift, and an aged shard retiring
  organically hands its tail traffic to the survivors;
* at R > 1, reads in flight on a dying shard are retried on a
  surviving replica (zero lost reads), a same-instant double kill runs
  as one stage, a later kill cascades, and a repaired shard rejoins
  with a minimal-move catch-up sync of exactly its own keys;
* admission control sheds rather than growing the backlog without
  bound, and the ``progress`` callback streams orchestration events
  without perturbing the result.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ARRIVAL_PATTERNS,
    ChaosSchedule,
    ClusterError,
    ClusterScenario,
    HashRing,
    KillSpec,
    RejoinSpec,
    build_arrivals,
    feed_lines,
    run_cluster,
    write_feed_csv,
    write_feed_jsonl,
)
from repro.cluster import shard as shard_module
from repro.cluster.arrivals import intensity, sample_arrival_times
from repro.cluster.cluster import _Planner, _plan_streams, _plan_sync


class TestHashRing:
    def test_routing_is_deterministic(self):
        ring = HashRing(range(4))
        other = HashRing(range(4))
        pages = list(range(0, 5000, 7))
        assert [ring.route(p) for p in pages] == \
            [other.route(p) for p in pages]

    def test_distribution_covers_every_shard(self):
        ring = HashRing(range(4))
        counts = {shard: 0 for shard in range(4)}
        for page in range(4096):
            counts[ring.route(page)] += 1
        assert all(count > 0 for count in counts.values())
        # vnodes keep the spread sane: no shard owns > half the keys.
        assert max(counts.values()) < 4096 / 2

    def test_exclusion_moves_only_the_excluded_keys(self):
        ring = HashRing(range(4))
        moved = 0
        for page in range(2048):
            home = ring.route(page)
            rerouted = ring.route(page, exclude=(2,))
            if home == 2:
                assert rerouted != 2
                moved += 1
            else:
                assert rerouted == home
        assert moved > 0

    def test_all_excluded_raises(self):
        ring = HashRing(range(2))
        with pytest.raises(ValueError):
            ring.route(123, exclude=(0, 1))

    def test_all_excluded_raises_typed_cluster_error(self):
        # Regression (ISSUE 10): the exhausted walk must raise the
        # *typed* ClusterError (a ValueError subclass), not loop or
        # fall through to an untyped failure.
        ring = HashRing(range(3))
        with pytest.raises(ClusterError):
            ring.route(123, exclude=(0, 1, 2))
        with pytest.raises(ClusterError):
            ring.route(123, exclude=range(100))
        assert issubclass(ClusterError, ValueError)

    def test_route_replicas_distinct_and_primary_first(self):
        ring = HashRing(range(5))
        for page in range(512):
            replicas = ring.route_replicas(page, 3)
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.route(page)
        # R == fleet size: every shard appears exactly once.
        assert sorted(ring.route_replicas(77, 5)) == list(range(5))

    def test_route_replicas_overflow_raises_instead_of_short_tuple(self):
        ring = HashRing(range(3))
        with pytest.raises(ClusterError):
            ring.route_replicas(1, 4)
        with pytest.raises(ClusterError):
            ring.route_replicas(1, 3, exclude=(0,))
        with pytest.raises(ClusterError):
            ring.route_replicas(1, 0)

    def test_route_replicas_minimal_move_on_exclusion(self):
        # Excluding one shard only touches replica sets it was in, and
        # the surviving members keep their walk order — the failover
        # property repair relies on in reverse.
        ring = HashRing(range(5))
        for page in range(1024):
            home = ring.route_replicas(page, 2)
            moved = ring.route_replicas(page, 2, exclude=(3,))
            if 3 not in home:
                assert moved == home
            else:
                assert 3 not in moved
                survivors = [shard for shard in home if shard != 3]
                assert [shard for shard in moved
                        if shard in survivors] == survivors


def _sha_point(text):
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _reference_route(shard_ids, vnodes, page, replicas, exclude):
    """Naive replica walk straight from the ring's definition: hash
    every vnode, walk clockwise from the page's hash, collect the first
    ``replicas`` distinct shards outside ``exclude`` (None if short)."""
    points = sorted((_sha_point(f"shard:{shard}:{v}"), shard)
                    for shard in shard_ids for v in range(vnodes))
    start = bisect.bisect_left([h for h, _ in points],
                               _sha_point(f"page:{page}"))
    chosen = []
    for offset in range(len(points)):
        shard = points[(start + offset) % len(points)][1]
        if shard not in exclude and shard not in chosen:
            chosen.append(shard)
            if len(chosen) == replicas:
                return tuple(chosen)
    return None


#: One ring shared by every example, so successor tables filled by one
#: example are read back by later ones.
_PROPERTY_RING = HashRing(range(5), vnodes=8)

_CONTAINERS = {
    "list": list,
    "set": set,
    "frozenset": frozenset,
    "generator": lambda ids: (shard for shard in ids),
}


class TestRingAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(page=st.integers(min_value=0, max_value=1 << 40),
           replicas=st.integers(min_value=1, max_value=5),
           exclude=st.lists(st.integers(min_value=-2, max_value=7),
                            max_size=6),
           container=st.sampled_from(sorted(_CONTAINERS)))
    def test_route_replicas_matches_naive_walk(self, page, replicas,
                                               exclude, container):
        ring = _PROPERTY_RING
        expected = _reference_route(range(5), 8, page, replicas,
                                    set(exclude))
        wrap = _CONTAINERS[container]
        if expected is None:
            for _ in range(3):  # a failure is never cached
                with pytest.raises(ClusterError):
                    ring.route_replicas(page, replicas,
                                        exclude=wrap(exclude))
            return
        assert ring.route_replicas(page, replicas,
                                   exclude=wrap(exclude)) == expected
        assert ring.route(page, exclude=wrap(exclude)) == expected[0]
        # Asked again through the now-filled table: same answer.
        assert ring.route_replicas(page, replicas,
                                   exclude=wrap(exclude)) == expected

    @settings(max_examples=60, deadline=None)
    @given(shards=st.integers(min_value=1, max_value=6),
           vnodes=st.integers(min_value=1, max_value=6),
           pages=st.lists(st.integers(min_value=0, max_value=10_000),
                          min_size=1, max_size=20))
    def test_fresh_rings_match_naive_walk(self, shards, vnodes, pages):
        ring = HashRing(range(shards), vnodes=vnodes)
        for page in pages:
            for replicas in range(1, shards + 1):
                assert ring.route_replicas(page, replicas) == \
                    _reference_route(range(shards), vnodes, page,
                                     replicas, set())

    def test_failed_calls_raise_every_time_and_leave_ring_correct(self):
        ring = HashRing(range(4), vnodes=8)
        for _ in range(3):
            with pytest.raises(ClusterError):
                ring.route_replicas(5, 3, exclude={0, 2})
            with pytest.raises(ClusterError):
                ring.route_replicas(5, 0)
            with pytest.raises(ClusterError):
                ring.route(5, exclude=iter(range(4)))
        for page in range(64):
            for exclude, replicas in (({0, 2}, 2), ({0, 2}, 1),
                                      ((), 3), ((9, 1), 3)):
                assert ring.route_replicas(page, replicas,
                                           exclude=exclude) == \
                    _reference_route(range(4), 8, page, replicas,
                                     set(exclude))


class TestArrivals:
    def test_patterns_are_seeded_and_sorted(self):
        for pattern in ARRIVAL_PATTERNS:
            times = sample_arrival_times(pattern, 2000.0, 0.5, seed=9)
            again = sample_arrival_times(pattern, 2000.0, 0.5, seed=9)
            assert times == again
            assert times == sorted(times)
            assert all(0.0 <= t < 0.5e6 for t in times)
            other_seed = sample_arrival_times(pattern, 2000.0, 0.5, seed=10)
            assert times != other_seed

    def test_intensity_profiles(self):
        assert intensity("steady", 0.3) == 1.0
        # Diurnal: trough at the edges, peak mid-window.
        assert intensity("diurnal", 0.0) < intensity("diurnal", 0.5)
        assert intensity("diurnal", 0.5) == pytest.approx(1.0)
        # Flash crowd: quiet baseline, burst inside [0.45, 0.6).
        assert intensity("flash_crowd", 0.2) < intensity("flash_crowd", 0.5)
        # Drain: ramps linearly to zero.
        assert intensity("drain", 0.0) == 1.0
        assert intensity("drain", 1.0) == 0.0
        with pytest.raises(ValueError):
            intensity("nope", 0.5)

    def test_unknown_pattern_raises_before_any_draw(self):
        # The first gap overshoots a 1 ms run at 1 req/s, so thinning
        # would never consult the shape; the name is checked up front.
        for _ in range(2):
            with pytest.raises(ValueError, match="bogus"):
                sample_arrival_times("bogus", 1.0, 1e-3, 0)
        with pytest.raises(ValueError, match="bogus"):
            build_arrivals("bogus", 1.0, 1e-3, "specweb99", 64, 0)

    @pytest.mark.parametrize("rate, duration", [
        (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1000.0, math.nan),
        (1000.0, math.inf), (1000.0, 0.0)])
    def test_non_finite_or_non_positive_inputs_raise(self, rate, duration):
        # NaN and infinity pass a ``<= 0`` test; the sampling loop would
        # then never end (NaN) or never advance (an infinite rate).
        with pytest.raises(ValueError, match="finite and positive"):
            sample_arrival_times("steady", rate, duration, 0)

    def test_flash_crowd_bursts(self):
        times = sample_arrival_times("flash_crowd", 8000.0, 1.0, seed=4)
        burst = sum(1 for t in times if 0.45e6 <= t < 0.6e6)
        quiet = sum(1 for t in times if 0.0 <= t < 0.15e6)
        # Same window width, 4x the intensity.
        assert burst > 2 * quiet

    def test_build_arrivals_zips_workload_keys(self):
        arrivals = build_arrivals("steady", 2000.0, 0.25, "specweb99",
                                  footprint_pages=4096, seed=7)
        assert arrivals
        assert [a[1] for a in arrivals] == list(range(len(arrivals)))
        assert all(0 <= a[2] < 4096 for a in arrivals)
        assert arrivals == build_arrivals("steady", 2000.0, 0.25,
                                          "specweb99",
                                          footprint_pages=4096, seed=7)


class TestChaosSchedule:
    def test_validation_rejects_malformed_timelines(self):
        with pytest.raises(ClusterError):
            ChaosSchedule(kills=(KillSpec(1, 10.0), KillSpec(1, 20.0)))
        with pytest.raises(ClusterError):
            ChaosSchedule(kills=(KillSpec(1, -5.0),))
        with pytest.raises(ClusterError):
            ChaosSchedule(rejoins=(RejoinSpec(1, 50.0),))
        with pytest.raises(ClusterError):
            ChaosSchedule(kills=(KillSpec(1, 50.0),),
                          rejoins=(RejoinSpec(1, 50.0),))

    def test_dead_windows_and_rejoin(self):
        chaos = ChaosSchedule(kills=(KillSpec(1, 100.0), KillSpec(2, 300.0)),
                              rejoins=(RejoinSpec(1, 400.0),))
        assert chaos.dead_at(0.0) == frozenset()
        assert chaos.dead_at(100.0) == {1}
        assert chaos.dead_at(300.0) == {1, 2}
        assert chaos.dead_at(400.0) == {2}
        assert chaos.kill_at(1) == 100.0
        assert chaos.rejoin_at(1) == 400.0
        assert chaos.rejoin_at(2) is None

    def test_stages_group_same_instant_kills(self):
        chaos = ChaosSchedule(kills=(KillSpec(3, 200.0), KillSpec(1, 100.0),
                                     KillSpec(2, 100.0)))
        assert chaos.stages() == [(100.0, (1, 2)), (200.0, (3,))]

    def test_fleet_validation(self):
        chaos = ChaosSchedule(kills=(KillSpec(5, 10.0),))
        with pytest.raises(ClusterError):
            chaos.validate_fleet(3)
        everyone = ChaosSchedule(kills=(KillSpec(0, 10.0),
                                        KillSpec(1, 20.0)))
        with pytest.raises(ClusterError):
            everyone.validate_fleet(2)


def _kill_scenario(**overrides):
    base = dict(shards=3, rate_rps=9000.0, duration_s=0.3, seed=3,
                queue_depth=4, shed_queue=16, footprint_pages=4096,
                kill_shard=1, kill_at_us=150_000.0)
    base.update(overrides)
    return ClusterScenario(**base)


class TestRunCluster:
    def test_byte_identical_across_worker_layouts(self):
        scenario = _kill_scenario()
        serial = run_cluster(scenario, workers=1)
        pooled = run_cluster(scenario, workers=3)
        assert feed_lines(serial) == feed_lines(pooled)
        assert serial.as_dict() == pooled.as_dict()

    def test_finished_shard_frees_its_system_without_cyclic_gc(
            self, monkeypatch):
        # Handlers bound to the shard engine must not keep it (and its
        # whole hierarchy) alive past the run: with shards run one
        # after another, a finished shard's system would stay resident
        # until a later collection and raise the cluster's peak memory.
        built = []
        build = shard_module.build_flash_system

        def keep(*args, **kwargs):
            system = build(*args, **kwargs)
            built.append(weakref.ref(system))
            return system

        monkeypatch.setattr(shard_module, "build_flash_system", keep)
        arrivals = build_arrivals("steady", 4000.0, 0.1, "specweb99",
                                  4096, 1)
        gc.disable()
        try:
            outcome = shard_module.run_shard(
                0, arrivals, 1 << 20, 4 << 20, 8, 2, 2, 64, None, False,
                0.0, 0.0, 50_000.0, 1000, 1)
            assert outcome["completed"] > 0
            assert len(built) == 1 and built[0]() is None
        finally:
            gc.enable()

    def test_kill_one_shard_keeps_serving(self):
        result = run_cluster(_kill_scenario(), workers=1)
        killed = next(s for s in result.shards if s["shard_id"] == 1)
        assert killed["retired_at_us"] == 150_000.0
        # Accounting: every planned arrival lands exactly once.
        assert result.completed + result.shed + result.lost == \
            result.arrivals
        # In-flight work at the kill instant is lost, not resurrected.
        assert result.lost >= 0
        assert killed["lost"] == result.lost
        # Survivors keep serving after the kill: completions land in
        # post-kill buckets on shards 0 and 2, never on shard 1.
        post_kill = [row for row in result.bucket_rows()
                     if row["t_ms"] >= 150.0 and row["shard"] != "cluster"]
        survivors = [row for row in post_kill if row["shard"] != "1"]
        assert sum(row["completed"] for row in survivors) > 0
        assert sum(row["completed"] for row in post_kill
                   if row["shard"] == "1") == 0
        # Bounded tail: p99 stays within the shed-bounded backlog
        # (queue_depth + shed_queue requests ahead, each <= a few ms).
        assert 0.0 < result.response.p99 < 100_000.0

    def test_aged_shard_retires_organically_and_redirects(self):
        scenario = ClusterScenario(
            shards=3, rate_rps=6000.0, duration_s=0.6, seed=11,
            flash_bytes=2 << 20, dram_bytes=1 << 20,
            footprint_pages=4096, aged_shard=0, aged_fault_rate=0.9)
        result = run_cluster(scenario, workers=1)
        aged = next(s for s in result.shards if s["shard_id"] == 0)
        assert aged["degraded"]
        assert aged["retired_at_us"] is not None
        assert aged["redirected"] > 0
        assert result.redirected == aged["redirected"]
        # Redirected traffic is served by the survivors, not dropped.
        assert result.completed + result.shed + result.lost == \
            result.arrivals
        # And the run stays worker-layout invariant through failover.
        assert feed_lines(result) == \
            feed_lines(run_cluster(scenario, workers=2))

    def test_overload_sheds_instead_of_unbounded_backlog(self):
        scenario = ClusterScenario(shards=2, rate_rps=20_000.0,
                                   duration_s=0.2, seed=5, queue_depth=2,
                                   shed_queue=4, footprint_pages=4096)
        result = run_cluster(scenario, workers=1)
        assert result.shed > 0
        assert result.shed_fraction > 0.0
        assert result.completed + result.shed == result.arrivals
        # Shed requests never touched the cache, so the p99 of what was
        # admitted stays bounded by the short wait queue.
        assert result.response.p99 < 50_000.0

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            run_cluster(ClusterScenario(shards=0))
        with pytest.raises(ValueError):
            run_cluster(ClusterScenario(pattern="bursty"))
        with pytest.raises(ValueError):
            run_cluster(ClusterScenario(shards=2, kill_shard=5))


class TestReplicationAndChaos:
    def test_r2_sustains_zero_lost_reads_through_kill(self):
        # The headline availability claim: at R=1 reads in flight on
        # the dying shard are lost; at R=2 every one is reclassified as
        # a replica retry and served by a surviving sibling.
        r1 = run_cluster(_kill_scenario(replicas=1), workers=1)
        r2 = run_cluster(_kill_scenario(replicas=2), workers=1)
        assert r1.lost_reads > 0
        assert r1.lost == r1.lost_reads + r1.lost_writes
        assert r2.lost_reads == 0
        # Each retried read shows up as a redirect instead.
        assert r2.redirected >= r1.lost_reads

    def test_write_fanout_accounting_identity(self):
        scenario = ClusterScenario(shards=3, rate_rps=4000.0,
                                   duration_s=0.2, seed=7,
                                   footprint_pages=4096, replicas=2,
                                   workload="dbt2")
        result = run_cluster(scenario, workers=1)
        # planned_ops counts one op per read and one per replica per
        # write, so with write traffic it strictly exceeds requests.
        assert result.arrivals > result.requests
        assert result.completed + result.shed + result.lost == \
            result.arrivals

    def test_replicas_validation(self):
        with pytest.raises(ClusterError):
            run_cluster(ClusterScenario(shards=2, replicas=3))
        with pytest.raises(ClusterError):
            run_cluster(ClusterScenario(shards=3, replicas=0))
        # R=3 with one of three shards scripted to die cannot keep
        # three live replicas through the outage.
        with pytest.raises(ClusterError):
            run_cluster(_kill_scenario(replicas=3))

    def test_simultaneous_double_kill_runs_as_one_stage(self):
        scenario = _kill_scenario(shards=4, replicas=2,
                                  cascade=((2, 150_000.0),))
        events = []
        result = run_cluster(scenario, workers=2, progress=events.append)
        stages = [(event["stage"], event["shards"]) for event in events
                  if event["kind"] == "stage"]
        assert stages == [("kill@150000us", [1, 2]),
                          ("serving", [0, 3])]
        for shard_id in (1, 2):
            summary = next(s for s in result.shards
                           if s["shard_id"] == shard_id)
            assert summary["retired_at_us"] == 150_000.0
        assert result.completed + result.shed + result.lost == \
            result.arrivals
        assert feed_lines(result) == \
            feed_lines(run_cluster(scenario, workers=1))

    def test_survivor_cascade_staged_and_deterministic(self):
        scenario = _kill_scenario(shards=4, replicas=2,
                                  kill_at_us=100_000.0,
                                  cascade=((2, 200_000.0),))
        events = []
        result = run_cluster(scenario, workers=3, progress=events.append)
        stages = [event["stage"] for event in events
                  if event["kind"] == "stage"]
        assert stages == ["kill@100000us", "kill@200000us", "serving"]
        assert result.lost_reads == 0
        assert result.completed + result.shed + result.lost == \
            result.arrivals
        assert feed_lines(result) == \
            feed_lines(run_cluster(scenario, workers=1))

    def test_kill_at_time_zero(self):
        result = run_cluster(_kill_scenario(kill_at_us=0.0), workers=1)
        killed = next(s for s in result.shards if s["shard_id"] == 1)
        # Dead before the first arrival: the plan routes everything
        # around it and the corpse serves nothing.
        assert killed["arrivals"] == 0
        assert killed["retired_at_us"] == 0.0
        assert result.lost == 0
        assert result.completed + result.shed == result.arrivals

    def test_kill_after_horizon_changes_nothing(self):
        late = run_cluster(_kill_scenario(kill_at_us=10_000_000.0),
                           workers=1)
        baseline = run_cluster(_kill_scenario(kill_shard=None,
                                              kill_at_us=None), workers=1)
        assert late.completed == baseline.completed
        assert late.shed == baseline.shed
        assert late.lost == 0
        killed = next(s for s in late.shards if s["shard_id"] == 1)
        assert killed["retired_at_us"] == 10_000_000.0

    def test_scripted_kill_plus_organic_aging_still_accounts(self):
        scenario = ClusterScenario(
            shards=4, rate_rps=6000.0, duration_s=0.4, seed=11,
            flash_bytes=2 << 20, dram_bytes=1 << 20,
            footprint_pages=4096, replicas=2,
            kill_shard=1, kill_at_us=150_000.0,
            aged_shard=0, aged_fault_rate=0.9)
        events = []
        result = run_cluster(scenario, workers=2, progress=events.append)
        stages = [event["stage"] for event in events
                  if event["kind"] == "stage"]
        assert stages == ["kill@150000us", "organic", "serving"]
        assert result.completed + result.shed + result.lost == \
            result.arrivals
        assert feed_lines(result) == \
            feed_lines(run_cluster(scenario, workers=1))


def _repair_scenario(**overrides):
    base = dict(shards=3, rate_rps=9000.0, duration_s=0.3, seed=3,
                queue_depth=4, shed_queue=16, footprint_pages=4096,
                replicas=2, kill_shard=1, kill_at_us=120_000.0,
                rejoin_at_us=240_000.0)
    base.update(overrides)
    return ClusterScenario(**base)


class TestRepair:
    def test_rejoin_runs_catch_up_sync(self):
        result = run_cluster(_repair_scenario(), workers=1)
        repaired = next(s for s in result.shards if s["shard_id"] == 1)
        assert repaired["incarnations"] == 2
        assert repaired["retired_at_us"] == 120_000.0
        assert repaired["rejoined_at_us"] == 240_000.0
        # Catch-up ran: the rejoiner wrote its moved keys back and the
        # sources served the paired reads, outside the foreground
        # accounting identity.
        assert result.sync_arrived > 0
        assert result.sync_arrived == (result.sync_completed
                                       + result.sync_lost
                                       + result.sync_skipped)
        # Sync ops come in write/read pairs (one per side per page).
        assert result.sync_arrived % 2 == 0
        assert result.completed + result.shed + result.lost == \
            result.arrivals
        # Post-rejoin foreground traffic flows back to the repaired
        # shard: its second incarnation served requests.
        assert repaired["completed"] > 0

    def test_rejoin_is_worker_layout_invariant(self):
        scenario = _repair_scenario()
        assert feed_lines(run_cluster(scenario, workers=1)) == \
            feed_lines(run_cluster(scenario, workers=3))

    def test_sync_moves_only_the_rejoiners_keys(self):
        # Minimal-move: every page in the catch-up stream would have
        # lived on the rejoiner had it been up, and every planned sync
        # write lands on the rejoined incarnation alone.
        scenario = _repair_scenario()
        chaos = scenario.chaos()
        planner = _Planner(scenario, chaos)
        arrivals = build_arrivals(scenario.pattern, scenario.rate_rps,
                                  scenario.duration_s, scenario.workload,
                                  scenario.footprint_pages, scenario.seed)
        sync_streams = _plan_sync(planner, arrivals)
        writes = [a for a in sync_streams[(1, 1)] if not a[3]]
        assert writes
        touched_in_window = {a[2] for a in arrivals
                             if 120_000.0 <= a[0] < 240_000.0}
        for _, _, page, _ in writes:
            assert page in touched_in_window
            # The key's healthy-fleet replica set includes the rejoiner.
            assert 1 in planner.ring.route_replicas(
                page, scenario.replicas)
        # No other node receives sync writes — only paired reads.
        for node, stream in sync_streams.items():
            if node != (1, 1):
                assert all(a[3] for a in stream)

    def test_idle_rejoined_incarnation_spans_to_the_rejoin_instant(self):
        # A rejoined incarnation with no traffic still reports a span
        # that reaches its rejoin instant.
        outcome = shard_module.run_shard(
            1, [], 1 << 20, 4 << 20, 4, 1, 1, 16, None, False, 0.0, 0.0,
            50_000.0, 1000, 3, sync_arrivals=[], rejoin_at_us=240_000.0,
            incarnation=1)
        assert outcome["arrivals"] == 0 and outcome["sync_arrived"] == 0
        assert outcome["span_us"] == 240_000.0

    def test_rejoin_needs_a_kill(self):
        with pytest.raises(ClusterError):
            run_cluster(ClusterScenario(shards=3, rejoin_at_us=10.0))
        with pytest.raises(ClusterError):
            run_cluster(_repair_scenario(rejoin_at_us=120_000.0))

    def test_fig16_availability_rows(self):
        from repro.experiments import fig16_availability
        from repro.parallel import sweep

        points = fig16_availability.combine(sweep(
            fig16_availability.tasks(
                replicas=(1, 2), shards=4, rate_rps=6000.0,
                duration_s=0.25, footprint_pages=2048),
            workers=2))
        assert [p.replicas for p in points] == [1, 2]
        # The figure's acceptance shape: replication eliminates lost
        # reads and repair streams keys back at both factors.
        assert points[1].lost_reads == 0
        assert all(p.sync_completed > 0 for p in points)
        for point in points:
            assert point.completed + point.shed + point.lost_reads \
                + point.lost_writes == point.planned_ops


def _epoch_scenario():
    # Kill, survivor cascade and rejoin, as in the cluster_r2 benchmark.
    return ClusterScenario(shards=5, replicas=2, rate_rps=9000.0,
                           duration_s=0.3, seed=5, footprint_pages=4096,
                           kill_shard=1, kill_at_us=100_000.0,
                           cascade=((3, 150_000.0),),
                           rejoin_at_us=240_000.0)


def _boundary_arrivals(scenario, planner):
    """The scenario's arrivals plus reads and writes placed exactly at,
    just before and just after every kill, cascade and rejoin instant,
    on pages the changing shards own (so routing flips at the edge)."""
    arrivals = build_arrivals(scenario.pattern, scenario.rate_rps,
                              scenario.duration_s, scenario.workload,
                              scenario.footprint_pages, scenario.seed)
    pages = [page for page in range(scenario.footprint_pages)
             if {1, 3} & set(planner.ring.route_replicas(page, 2))][:12]
    seq = len(arrivals)
    extra = []
    for instant in planner.chaos.change_instants():
        for time_us in (math.nextafter(instant, -math.inf), instant,
                        math.nextafter(instant, math.inf)):
            for index, page in enumerate(pages):
                extra.append((time_us, seq, page, index % 2 == 0))
                seq += 1
    return sorted(arrivals + extra, key=lambda a: (a[0], a[1]))


def _reference_streams(planner, arrivals):
    """Per-arrival routing: dead set and incarnation asked afresh for
    every request, no epochs, no memo."""
    streams, planned = {}, 0
    for arrival in arrivals:
        time_us, _, page, is_read = arrival
        targets = planner.ring.route_replicas(
            page, planner.scenario.replicas,
            exclude=planner.chaos.dead_at(time_us))
        for shard in targets[:1] if is_read else targets:
            streams.setdefault(planner.node_for(shard, time_us),
                               []).append(arrival)
            planned += 1
    return streams, planned


def _reference_sync(planner, arrivals):
    """Per-arrival catch-up planning: the "had it been up" exclusion is
    rebuilt from ``dead_at`` for every arrival in the dead window."""
    chaos, ring = planner.chaos, planner.ring
    sync = {}
    for rejoin in sorted(chaos.rejoins, key=lambda spec: spec.shard):
        shard, kill_us = rejoin.shard, chaos.kill_at(rejoin.shard)
        moved = {}
        for time_us, _, page, _ in arrivals:
            if not kill_us <= time_us < rejoin.at_us or page in moved:
                continue
            as_if_alive = set(chaos.dead_at(time_us)) - {shard}
            if shard in ring.route_replicas(page, planner.scenario.replicas,
                                            exclude=as_if_alive):
                moved[page] = None
        dead_at_rejoin = set(chaos.dead_at(rejoin.at_us)) | {shard}
        for seq, page in enumerate(moved):
            source = ring.route(page, exclude=dead_at_rejoin)
            sync.setdefault((shard, 1), []).append(
                (rejoin.at_us, seq, page, False))
            sync.setdefault(planner.node_for(source, rejoin.at_us),
                            []).append((rejoin.at_us, seq, page, True))
    for stream in sync.values():
        stream.sort(key=lambda a: (a[0], a[1]))
    return sync


class TestEpochPlanning:
    def test_epoch_bounds_follow_kill_and_rejoin_instants(self):
        scenario = _epoch_scenario()
        chaos = scenario.chaos()
        planner = _Planner(scenario, chaos)
        assert chaos.change_instants() == (100_000.0, 150_000.0, 240_000.0)
        probes = [0.0, -math.inf, math.inf]
        for instant in chaos.change_instants():
            before = math.nextafter(instant, -math.inf)
            assert planner.epoch_at(instant).start_us == instant
            assert planner.epoch_at(before).end_us == instant
            probes += [before, instant, math.nextafter(instant, math.inf)]
        for time_us in probes:
            epoch = planner.epoch_at(time_us)
            assert epoch.start_us <= time_us < epoch.end_us \
                or time_us == epoch.end_us == math.inf
            assert epoch.dead == chaos.dead_at(time_us)
            assert epoch.nodes == tuple(planner.node_for(shard, time_us)
                                        for shard in range(5))

    def test_boundary_arrivals_land_like_per_arrival_routing(self):
        scenario = _epoch_scenario()
        planner = _Planner(scenario, scenario.chaos())
        arrivals = _boundary_arrivals(scenario, planner)
        streams, planned = _plan_streams(planner, arrivals)
        expected, expected_planned = _reference_streams(planner, arrivals)
        assert planned == expected_planned
        assert {node: stream for node, stream in streams.items()
                if stream} == expected
        # The boundary arrivals really exercise the flips: the killed
        # shards get nothing from their kill instants on, the rejoined
        # incarnation everything of shard 1 from its rejoin instant.
        assert max(a[0] for a in streams[(1, 0)]) < 100_000.0
        assert max(a[0] for a in streams[(3, 0)]) < 150_000.0
        assert min(a[0] for a in streams[(1, 1)]) == 240_000.0

    def test_epoch_cursor_tolerates_unsorted_arrivals(self):
        scenario = _epoch_scenario()
        planner = _Planner(scenario, scenario.chaos())
        arrivals = _boundary_arrivals(scenario, planner)[::-1]
        streams, planned = _plan_streams(planner, arrivals)
        expected, expected_planned = _reference_streams(planner, arrivals)
        assert planned == expected_planned
        assert {node: stream for node, stream in streams.items()
                if stream} == expected

    def test_sync_moved_keys_match_per_arrival_reference(self):
        scenario = _epoch_scenario()
        planner = _Planner(scenario, scenario.chaos())
        arrivals = _boundary_arrivals(scenario, planner)
        sync = _plan_sync(planner, arrivals)
        assert sync == _reference_sync(planner, arrivals)
        assert sync[(1, 1)]


class TestFeed:
    def test_jsonl_feed_shape(self, tmp_path):
        result = run_cluster(_kill_scenario(duration_s=0.2), workers=1)
        path = tmp_path / "feed.jsonl"
        write_feed_jsonl(result, str(path))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["totals"]["arrivals"] == result.arrivals
        kinds = {line["type"] for line in lines}
        assert kinds == {"meta", "sample", "series"}
        samples = [line for line in lines if line["type"] == "sample"]
        # Cluster row leads each bucket.
        assert samples[0]["shard"] == "cluster"

    def test_csv_matches_bucket_rows(self, tmp_path):
        result = run_cluster(_kill_scenario(duration_s=0.2), workers=1)
        path = tmp_path / "feed.csv"
        write_feed_csv(result, str(path))
        rows = path.read_text().splitlines()
        assert rows[0].startswith("t_ms,shard,arrivals")
        assert len(rows) == 1 + len(result.bucket_rows())


class TestClusterProgress:
    def test_progress_streams_events_without_perturbing_the_feed(self):
        scenario = _kill_scenario(duration_s=0.2)
        events = []
        streamed = run_cluster(scenario, workers=2, progress=events.append)
        quiet = run_cluster(scenario, workers=1)
        assert feed_lines(streamed) == feed_lines(quiet)
        kinds = [event["kind"] for event in events]
        assert "stage" in kinds and "shard" in kinds
        stages = [event["stage"] for event in events
                  if event["kind"] == "stage"]
        assert stages == ["kill@150000us", "serving"]
        shard_events = [event for event in events
                        if event["kind"] == "shard"]
        assert all(event["ok"] for event in shard_events)
        assert len(shard_events) == scenario.shards


# ---------------------------------------------------------------------------
# CLI input boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flag, value, message", [
    ("--duration", "nan", "duration_s must be finite and positive"),
    ("--rate", "inf", "rate_rps must be finite and positive"),
    ("--bucket-ms", "0", "bucket_ms must be finite and positive"),
    ("--shed-queue", "-1", "shed_queue must be >= 0"),
    ("--aged-fault-rate", "2", "aged_fault_rate must be in [0, 1]"),
    ("--aged-reliability-rate", "nan", "aged_reliability_rate must be in"),
])
def test_cluster_cli_rejects_inputs_that_never_return(flag, value, message):
    """Each bad value exits 2 with one line and no traceback, before any
    worker starts.  The subprocess timeout turns a regression that loops
    forever into a failure rather than a hang."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in sys.path if p) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "cluster", "--shards", "2",
         "--rate", "1000", "--duration", "0.05", "--aged-shard", "0",
         "--workers", "2", "--quiet", flag, value],
        env=env, timeout=30, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [done.stderr.strip()]
    assert done.stderr.startswith("error: ") and message in done.stderr

"""Resilience layer tests: journal, retry policy, crash/timeout recovery.

Covers DESIGN.md section 12's contracts:

* the journal round-trips arbitrary values and survives torn tails;
* ``resume`` replays completed tasks (zero re-execution) and the
  aggregated output is byte-identical to an uninterrupted run — including
  after a parent SIGKILL mid-sweep (subprocess chaos test);
* worker crashes are confined to the culprit task, transient crashes
  and changing exceptions consume the retry budget, hung tasks die to
  the deadline, and deterministic failures fail fast;
* backoff delays are pure functions of (seed, key, attempt).

Chaos is injected with :mod:`repro.parallel.chaos` — filesystem attempt
markers, never RNG or wall-clock races.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.parallel import (
    RetryPolicy,
    SweepError,
    SweepJournal,
    SweepResult,
    SweepTask,
    TaskFailure,
    compute_sweep_id,
    kwargs_hash,
    merge_telemetry,
    sweep,
)
from repro.parallel import chaos
from repro.parallel.checkpoint import JOURNAL_FORMAT
from repro.experiments.report import ReportScale
from repro.experiments.sweeps import run_sweep

REPO_ROOT = Path(__file__).resolve().parents[1]


def echo_tasks(n: int, state_dir: str) -> list[SweepTask]:
    return [SweepTask(key=f"t{i}", fn=chaos.echo,
                      kwargs={"value": i * 10, "state_dir": state_dir,
                              "key": f"t{i}"})
            for i in range(n)]


def attempts_of(state_dir: str, key: str) -> int:
    return len(list(Path(state_dir).glob(f"{key}.attempt*")))


# ---------------------------------------------------------------------------
# Journal mechanics
# ---------------------------------------------------------------------------


class TestJournal:
    def test_round_trip_preserves_values_exactly(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tasks = [SweepTask(key="a", fn=chaos.echo, kwargs={"value": 1},
                           seed=7),
                 SweepTask(key="b", fn=chaos.echo,
                           kwargs={"value": (1, 2.5, {"x": [None]})})]
        journal = SweepJournal.create(path, "sid")
        journal.record(tasks[0], SweepResult(key="a", value=1))
        journal.record(tasks[1],
                       SweepResult(key="b", value=(1, 2.5, {"x": [None]}),
                                   attempts=3))
        loaded = SweepJournal.load(path)
        assert loaded.sweep_id == "sid"
        assert loaded.corrupt_tail == 0
        done = loaded.completed()
        assert done[("a", kwargs_hash(tasks[0]))].value == 1
        replay = done[("b", kwargs_hash(tasks[1]))]
        assert replay.value == (1, 2.5, {"x": [None]})
        assert replay.attempts == 3

    def test_failed_entries_are_not_replayed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        task = SweepTask(key="a", fn=chaos.fail_always)
        journal = SweepJournal.create(path, "sid")
        journal.record(task, SweepResult(key="a", value=None,
                                         error="Boom", attempts=2))
        assert SweepJournal.load(path).completed() == {}

    def test_kwargs_hash_covers_fn_kwargs_and_seed(self):
        base = SweepTask(key="a", fn=chaos.echo, kwargs={"value": 1}, seed=1)
        assert kwargs_hash(base) == kwargs_hash(
            SweepTask(key="other", fn=chaos.echo, kwargs={"value": 1},
                      seed=1))  # key not part of the value identity
        assert kwargs_hash(base) != kwargs_hash(
            SweepTask(key="a", fn=chaos.echo, kwargs={"value": 2}, seed=1))
        assert kwargs_hash(base) != kwargs_hash(
            SweepTask(key="a", fn=chaos.echo, kwargs={"value": 1}, seed=2))
        assert kwargs_hash(base) != kwargs_hash(
            SweepTask(key="a", fn=chaos.slow_echo, kwargs={"value": 1},
                      seed=1))

    def test_sweep_id_is_order_and_label_sensitive(self):
        a = SweepTask(key="a", fn=chaos.echo, kwargs={"value": 1})
        b = SweepTask(key="b", fn=chaos.echo, kwargs={"value": 2})
        assert compute_sweep_id([a, b]) == compute_sweep_id([a, b])
        assert compute_sweep_id([a, b]) != compute_sweep_id([b, a])
        assert compute_sweep_id([a, b]) != compute_sweep_id([a, b],
                                                           label="full")

    def test_resume_rejects_foreign_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepJournal.create(path, "sid-one")
        with pytest.raises(ValueError, match="records sweep sid-one"):
            SweepJournal.resume(path, "sid-two")
        with pytest.raises(FileNotFoundError):
            SweepJournal.resume(tmp_path / "missing.jsonl", "sid")

    def test_load_rejects_non_journal_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            SweepJournal.load(empty)
        other = tmp_path / "other.json"
        other.write_text('{"format": "something-else"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=JOURNAL_FORMAT):
            SweepJournal.load(other)

    def test_torn_tail_is_dropped_and_healed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tasks = [SweepTask(key=k, fn=chaos.echo, kwargs={"value": i})
                 for i, k in enumerate("abc")]
        journal = SweepJournal.create(path, "sid")
        for i, task in enumerate(tasks):
            journal.record(task, SweepResult(key=task.key, value=i))
        chaos.truncate_journal_tail(path, drop_bytes=5)  # tear the last line

        torn = SweepJournal.load(path)
        assert torn.corrupt_tail == 1
        assert sorted(k for k, _ in torn.completed()) == ["a", "b"]

        # The first append after a torn load atomically rewrites the file:
        # reloading sees a clean journal with the new record appended.
        torn.record(tasks[2], SweepResult(key="c", value=99))
        healed = SweepJournal.load(path)
        assert healed.corrupt_tail == 0
        assert healed.completed()[("c", kwargs_hash(tasks[2]))].value == 99


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(retries=5, backoff_base_s=0.1,
                             backoff_cap_s=10.0, seed=42)
        first = [policy.backoff_s("k", attempt) for attempt in (1, 2, 3)]
        again = [policy.backoff_s("k", attempt) for attempt in (1, 2, 3)]
        assert first == again  # pure function of (seed, key, attempt)
        assert first != [RetryPolicy(retries=5, backoff_base_s=0.1,
                                     backoff_cap_s=10.0, seed=43
                                     ).backoff_s("k", a) for a in (1, 2, 3)]
        for attempt, delay in enumerate(first, start=1):
            nominal = 0.1 * 2 ** (attempt - 1)
            assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_backoff_respects_cap(self):
        policy = RetryPolicy(retries=10, backoff_base_s=1.0,
                             backoff_cap_s=2.0, seed=0)
        assert policy.backoff_s("k", 9) <= 2.0 * 1.5

    def test_transient_failures_get_the_full_budget(self):
        policy = RetryPolicy(retries=2)
        lost = TaskFailure(kind="worker-lost", detail="died", attempt=1)
        assert policy.should_retry(lost, previous=None)
        assert policy.should_retry(
            TaskFailure(kind="timeout", detail="hung", attempt=2),
            previous=lost)
        assert not policy.should_retry(
            TaskFailure(kind="timeout", detail="hung", attempt=3),
            previous=lost)

    def test_repeated_exception_signature_fails_fast(self):
        policy = RetryPolicy(retries=5)
        first = TaskFailure(kind="exception",
                            detail="Traceback...\nValueError: boom",
                            attempt=1)
        repeat = TaskFailure(kind="exception",
                             detail="Traceback...\nValueError: boom",
                             attempt=2)
        changed = TaskFailure(kind="exception",
                              detail="Traceback...\nOSError: flaky",
                              attempt=2)
        assert policy.should_retry(first, previous=None)
        assert not policy.should_retry(repeat, previous=first)
        assert policy.should_retry(changed, previous=first)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)


# ---------------------------------------------------------------------------
# Journaled sweep(): resume semantics
# ---------------------------------------------------------------------------


class TestSweepResume:
    def test_resume_skips_completed_tasks(self, tmp_path):
        state = str(tmp_path / "state")
        path = tmp_path / "j.jsonl"
        tasks = echo_tasks(4, state)

        sid = compute_sweep_id(tasks)
        fresh = sweep(tasks, journal=SweepJournal.create(path, sid))
        assert [r.value for r in fresh] == [0, 10, 20, 30]
        assert all(attempts_of(state, f"t{i}") == 1 for i in range(4))

        resumed = sweep(tasks, journal=SweepJournal.resume(path, sid))
        assert [r.value for r in resumed] == [r.value for r in fresh]
        # Zero re-execution: the attempt markers did not grow.
        assert all(attempts_of(state, f"t{i}") == 1 for i in range(4))

    def test_partial_journal_runs_only_the_rest(self, tmp_path):
        state = str(tmp_path / "state")
        path = tmp_path / "j.jsonl"
        tasks = echo_tasks(4, state)
        sid = compute_sweep_id(tasks)

        journal = SweepJournal.create(path, sid)
        sweep(tasks[:2], journal=journal)  # "interrupted" after two tasks

        resumed = sweep(tasks, journal=SweepJournal.resume(path, sid))
        assert [r.value for r in resumed] == [0, 10, 20, 30]
        assert attempts_of(state, "t0") == 1
        assert attempts_of(state, "t3") == 1

    def test_failed_journal_entries_are_retried_on_resume(self, tmp_path):
        state = str(tmp_path / "state")
        path = tmp_path / "j.jsonl"
        task = SweepTask(key="flaky", fn=chaos.echo,
                         kwargs={"value": 5, "state_dir": state,
                                 "key": "flaky"})
        sid = compute_sweep_id([task])
        journal = SweepJournal.create(path, sid)
        journal.record(task, SweepResult(key="flaky", value=None,
                                         error="boom", attempts=1))

        resumed = sweep([task], journal=SweepJournal.resume(path, sid))
        assert resumed[0].ok and resumed[0].value == 5
        assert attempts_of(state, "flaky") == 1  # actually re-ran

    def test_stale_journal_entry_is_ignored(self, tmp_path):
        # Same key, different kwargs: the kwargs_hash mismatch forces a
        # re-run instead of replaying the stale value.
        state = str(tmp_path / "state")
        path = tmp_path / "j.jsonl"
        old = SweepTask(key="t", fn=chaos.echo, kwargs={"value": 1})
        new = SweepTask(key="t", fn=chaos.echo,
                        kwargs={"value": 2, "state_dir": state, "key": "t"})
        journal = SweepJournal.create(path, "sid")
        journal.record(old, SweepResult(key="t", value=1))
        results = sweep([new], journal=journal)
        assert results[0].value == 2
        assert attempts_of(state, "t") == 1


# ---------------------------------------------------------------------------
# Crash, hang, and retry recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_worker_sigkill_confined_to_culprit(self, tmp_path):
        state = str(tmp_path / "state")
        tasks = echo_tasks(3, state)
        tasks.insert(1, SweepTask(key="killer", fn=chaos.kill_worker))
        results = sweep(tasks, workers=2)
        by_key = {r.key: r for r in results}
        assert not by_key["killer"].ok
        assert "died" in by_key["killer"].error
        for i in range(3):
            assert by_key[f"t{i}"].ok and by_key[f"t{i}"].value == i * 10

    def test_transient_crash_absorbed_by_retry_budget(self, tmp_path):
        state = str(tmp_path / "state")
        task = SweepTask(key="flaky", fn=chaos.crash_until_attempt,
                         kwargs={"state_dir": state, "key": "flaky",
                                 "succeed_at": 2, "value": 7})
        results = sweep([task] + echo_tasks(2, state), workers=2,
                        policy=RetryPolicy(retries=2, backoff_base_s=0.01))
        by_key = {r.key: r for r in results}
        assert by_key["flaky"].ok and by_key["flaky"].value == 7
        # The task genuinely ran twice (first execution SIGKILLed its
        # worker); the *charged* attempt count may be lower because a
        # crash suspect's isolated rerun is un-charged until it is
        # convicted by crashing again — and this one succeeded.
        assert attempts_of(state, "flaky") == 2
        assert 1 <= by_key["flaky"].attempts <= 2

    def test_hang_dies_to_deadline_innocents_survive(self, tmp_path):
        state = str(tmp_path / "state")
        tasks = [SweepTask(key="stuck", fn=chaos.hang,
                           kwargs={"hang_s": 60.0})] + echo_tasks(2, state)
        started = time.monotonic()
        results = sweep(tasks, workers=2,
                        policy=RetryPolicy(timeout_s=0.5))
        elapsed = time.monotonic() - started
        assert elapsed < 30.0  # nowhere near the 60s hang
        by_key = {r.key: r for r in results}
        assert not by_key["stuck"].ok
        assert "deadline" in by_key["stuck"].error
        assert by_key["t0"].ok and by_key["t1"].ok

    def test_deterministic_failure_fails_fast(self, tmp_path):
        state = str(tmp_path / "state")
        task = SweepTask(key="bad", fn=chaos.fail_always,
                         kwargs={"state_dir": state, "key": "bad"})
        results = sweep([task],
                        policy=RetryPolicy(retries=5, backoff_base_s=0.01))
        assert not results[0].ok
        # One retry proves the failure repeats; the remaining budget is
        # not burned on a deterministic exception.
        assert results[0].attempts == 2
        assert attempts_of(state, "bad") == 2

    def test_changing_exception_is_treated_as_transient(self, tmp_path):
        state = str(tmp_path / "state")
        task = SweepTask(key="flaky", fn=chaos.fail_until_attempt,
                         kwargs={"state_dir": state, "key": "flaky",
                                 "succeed_at": 3, "value": 1})
        results = sweep([task],
                        policy=RetryPolicy(retries=3, backoff_base_s=0.01))
        assert results[0].ok and results[0].value == 1
        assert results[0].attempts == 3

    def test_crash_results_reach_the_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tasks = [SweepTask(key="killer", fn=chaos.kill_worker)]
        sid = compute_sweep_id(tasks)
        sweep(tasks, workers=2, journal=SweepJournal.create(path, sid))
        loaded = SweepJournal.load(path)
        assert loaded.entries[0]["status"] == "error"
        assert loaded.completed() == {}  # failures re-run on resume


class TestSweepErrorReporting:
    def test_unwrap_carries_key_attempts_and_traceback(self, tmp_path):
        state = str(tmp_path / "state")
        task = SweepTask(key="bad", fn=chaos.fail_always,
                         kwargs={"state_dir": state, "key": "bad",
                                 "message": "wired to fail"})
        result = sweep([task], policy=RetryPolicy(retries=1))[0]
        with pytest.raises(SweepError) as excinfo:
            result.unwrap()
        error = excinfo.value
        assert error.key == "bad"
        assert error.attempts == 2
        assert "wired to fail" in error.worker_traceback
        assert "after 2 attempts" in str(error)


# ---------------------------------------------------------------------------
# merge_telemetry edge cases (satellite: zero/single/mixed handles)
# ---------------------------------------------------------------------------


class TestMergeTelemetryEdges:
    def test_zero_handles(self):
        assert merge_telemetry([]) is None
        assert merge_telemetry([None]) is None
        assert merge_telemetry(iter(())) is None

    def test_single_handle_round_trips(self):
        from repro.telemetry import Telemetry

        handle = Telemetry(sample_interval=10)
        handle.metrics.counter("hits").inc(3)
        merged = merge_telemetry([handle])
        assert merged is not None
        assert merged.metrics.counters["hits"].value == 3

    def test_mixed_none_failed_and_ok_results(self):
        from repro.telemetry import Telemetry

        ok_handle = Telemetry(sample_interval=10)
        ok_handle.metrics.counter("hits").inc(2)
        items = [
            None,
            SweepResult(key="no-telemetry", value=None),
            SweepResult(key="failed", value=None, error="boom"),
            SweepResult(key="observed", value=ok_handle),
        ]
        merged = merge_telemetry(items)
        assert merged is not None
        assert merged.metrics.counters["hits"].value == 2

    def test_all_failed_results_yield_none(self):
        items = [SweepResult(key=f"f{i}", value=None, error="boom")
                 for i in range(3)]
        assert merge_telemetry(items) is None


# ---------------------------------------------------------------------------
# run_sweep end-to-end: resumed == fresh, at any worker count
# ---------------------------------------------------------------------------


def _figures_bytes(document: dict) -> str:
    return json.dumps(document["figures"], sort_keys=True)


class TestRunSweepResume:
    FIGS = ["fig1b"]
    SCALE = ReportScale.quick()

    def test_resumed_document_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        plain = run_sweep(figures=self.FIGS, scale=self.SCALE)
        journaled = run_sweep(figures=self.FIGS, scale=self.SCALE,
                              journal_path=path)
        resumed = run_sweep(figures=self.FIGS, scale=self.SCALE,
                            journal_path=path, resume=True)
        assert _figures_bytes(plain) == _figures_bytes(journaled)
        assert _figures_bytes(plain) == _figures_bytes(resumed)
        assert resumed["meta"]["resumed_tasks"] == resumed["meta"]["tasks"]
        assert resumed["meta"]["sweep_id"] == journaled["meta"]["sweep_id"]

    def test_resume_is_worker_count_invariant(self, tmp_path):
        # PR 3's invariance contract extends to resumption: replaying a
        # serial run's journal under a pool changes nothing.
        path = str(tmp_path / "sweep.jsonl")
        serial = run_sweep(figures=self.FIGS, scale=self.SCALE, workers=1,
                           journal_path=path)
        pooled = run_sweep(figures=self.FIGS, scale=self.SCALE, workers=4,
                           journal_path=path, resume=True)
        assert _figures_bytes(serial) == _figures_bytes(pooled)

    def test_resume_requires_matching_scale(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_sweep(figures=self.FIGS, scale=self.SCALE, journal_path=path)
        with pytest.raises(ValueError, match="records sweep"):
            run_sweep(figures=self.FIGS, scale=ReportScale(),
                      journal_path=path, resume=True)

    def test_resume_without_journal_path_rejected(self):
        with pytest.raises(ValueError, match="requires a journal path"):
            run_sweep(figures=self.FIGS, scale=self.SCALE, resume=True)

    def test_figure_selection_is_order_insensitive(self, tmp_path):
        # ISSUE 8 satellite: ``--figures fig7,fig1b --resume`` must
        # accept a journal written by ``--figures fig1b,fig7``.  The
        # selection is a set; spelling order must not change the
        # sweep_id, the flattened grid, or the output document.
        path = str(tmp_path / "sweep.jsonl")
        forward = run_sweep(figures=["fig1b", "fig7"], scale=self.SCALE,
                            journal_path=path)
        resumed = run_sweep(figures=["fig7", "fig1b"], scale=self.SCALE,
                            journal_path=path, resume=True)
        assert resumed["meta"]["sweep_id"] == forward["meta"]["sweep_id"]
        assert resumed["meta"]["resumed_tasks"] == \
            resumed["meta"]["tasks"]
        assert _figures_bytes(forward) == _figures_bytes(resumed)

    def test_duplicate_figures_are_deduplicated(self):
        # A repeated name used to flatten the same grid twice and die on
        # the runner's duplicate-key check; now it is one selection.
        once = run_sweep(figures=["fig1b"], scale=self.SCALE)
        doubled = run_sweep(figures=["fig1b", "fig1b"], scale=self.SCALE)
        assert _figures_bytes(once) == _figures_bytes(doubled)
        assert doubled["meta"]["tasks"] == once["meta"]["tasks"]


# ---------------------------------------------------------------------------
# Parent SIGKILL chaos: kill ``repro sweep`` mid-run, resume via the CLI
# ---------------------------------------------------------------------------


def _group_alive(pgid: int) -> bool:
    """True while any process (zombies too) is left in group ``pgid``."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestParentKillChaos:
    ARGS = ["--figures", "fig1b", "--scale", "quick", "--workers", "2",
            "--quiet"]

    def _cli(self, *extra: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Its own session: the CLI's pid names a process group holding
        # its pool workers too, so one killpg reaches all of them.
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", *self.ARGS, *extra],
            cwd=REPO_ROOT, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        reference = tmp_path / "reference.json"
        resumed = tmp_path / "resumed.json"
        journal = tmp_path / "journal.jsonl"

        proc = self._cli("--out", str(reference))
        assert proc.wait(timeout=300) == 0

        # Interrupted run: SIGKILL the CLI and its workers once the
        # journal shows at least one completed task (header + >=1 entry).
        proc = self._cli("--journal", str(journal), "--out", "/dev/null")
        deadline = time.monotonic() + 300
        try:
            while time.monotonic() < deadline:
                if journal.exists() and len(
                        journal.read_text().splitlines()) >= 2:
                    break
                if proc.poll() is not None:  # finished before we killed it
                    break
                time.sleep(0.02)
            else:
                pytest.fail("journal never accumulated a completed task")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the whole group already exited
                pass
            proc.wait(timeout=60)
        deadline = time.monotonic() + 60
        while _group_alive(proc.pid):
            if time.monotonic() > deadline:
                pytest.fail("a process of the killed sweep's group survived")
            time.sleep(0.05)

        proc = self._cli("--resume", str(journal), "--out", str(resumed))
        assert proc.wait(timeout=300) == 0

        ref = json.loads(reference.read_text())
        res = json.loads(resumed.read_text())
        assert _figures_bytes(ref) == _figures_bytes(res)

"""Bench output-file semantics: append, migrate, refuse, force.

ISSUE 8 satellite: ``repro bench`` used to clobber ``BENCH_<date>.json``
on a same-day rerun, destroying the morning's baseline the moment the
afternoon's optimisation was measured.  The file is now a runs-list
document — reruns append, each run stamped with the git commit — and a
file the command does not recognise is refused rather than overwritten.

The benchmark itself is wall-clock by nature, so these tests run it at
a tiny record count; only the file-handling contract is asserted, never
the timing numbers.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.bench import BENCH_FORMAT, load_bench_document, \
    run_bench_command


def _args(out, num_records=300, force=False):
    return argparse.Namespace(out=str(out), num_records=num_records,
                              force=force)


class TestLoadBenchDocument:
    def test_current_format_round_trips(self, tmp_path):
        path = tmp_path / "bench.json"
        document = {"format": BENCH_FORMAT, "date": "2026-08-08",
                    "runs": [{"num_records": 1, "modes": []}]}
        path.write_text(json.dumps(document), encoding="utf-8")
        assert load_bench_document(str(path)) == document

    def test_legacy_single_run_migrates(self, tmp_path):
        path = tmp_path / "bench.json"
        legacy = {"num_records": 40_000, "modes": [{"name": "serial"}],
                  "profile_shares": [], "date": "2026-08-07"}
        path.write_text(json.dumps(legacy), encoding="utf-8")
        document = load_bench_document(str(path))
        assert document["format"] == BENCH_FORMAT
        assert document["date"] == "2026-08-07"
        assert len(document["runs"]) == 1
        assert document["runs"][0]["num_records"] == 40_000
        assert "date" not in document["runs"][0]

    @pytest.mark.parametrize("payload", [
        "not json at all {",
        json.dumps(["a", "list"]),
        json.dumps({"something": "else"}),
        json.dumps({"format": BENCH_FORMAT, "runs": "not-a-list"}),
    ])
    def test_unrecognised_files_are_refused(self, tmp_path, payload):
        path = tmp_path / "bench.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ValueError, match="refusing|no runs list"):
            load_bench_document(str(path))


class TestRunBenchCommand:
    def test_fresh_file_gets_one_stamped_run(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run_bench_command(_args(out)) == 0
        document = json.loads(out.read_text())
        assert document["format"] == BENCH_FORMAT
        assert len(document["runs"]) == 1
        run = document["runs"][0]
        assert run["num_records"] == 300
        # Stamped with the commit under test (the repo is a checkout).
        assert "git_commit" in run
        assert {"serial", "concurrent_qd16_ch4"} == \
            {mode["name"] for mode in run["modes"]}

    def test_every_mode_is_profiled(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run_bench_command(_args(out)) == 0
        run = json.loads(out.read_text())["runs"][0]
        shares = {mode["name"]: {entry["subsystem"]
                                 for entry in mode["profile_shares"]}
                  for mode in run["modes"]}
        # The concurrent mode really runs the event engine: its profile
        # shows time in repro.sim (the serial route would not).
        assert "repro.sim" in shares["concurrent_qd16_ch4"]
        assert "repro.core" in shares["serial"]

    def test_same_day_rerun_appends_not_clobbers(self, tmp_path):
        out = tmp_path / "bench.json"
        run_bench_command(_args(out))
        first = json.loads(out.read_text())["runs"][0]
        run_bench_command(_args(out, num_records=400))
        document = json.loads(out.read_text())
        assert len(document["runs"]) == 2
        # The morning's baseline survives the afternoon's rerun.
        assert document["runs"][0] == first
        assert document["runs"][1]["num_records"] == 400

    def test_legacy_file_is_migrated_then_appended(self, tmp_path):
        out = tmp_path / "bench.json"
        legacy = {"num_records": 40_000, "modes": [],
                  "profile_shares": [], "date": "2026-08-07"}
        out.write_text(json.dumps(legacy), encoding="utf-8")
        assert run_bench_command(_args(out)) == 0
        document = json.loads(out.read_text())
        assert document["format"] == BENCH_FORMAT
        assert len(document["runs"]) == 2
        assert document["runs"][0]["num_records"] == 40_000

    def test_garbage_file_is_refused_without_force(self, tmp_path,
                                                   capsys):
        out = tmp_path / "bench.json"
        out.write_text("precious notes, not json", encoding="utf-8")
        assert run_bench_command(_args(out)) == 2
        assert out.read_text() == "precious notes, not json"
        assert "refusing" in capsys.readouterr().out

    def test_force_starts_fresh(self, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text("garbage", encoding="utf-8")
        assert run_bench_command(_args(out, force=True)) == 0
        document = json.loads(out.read_text())
        assert document["format"] == BENCH_FORMAT
        assert len(document["runs"]) == 1

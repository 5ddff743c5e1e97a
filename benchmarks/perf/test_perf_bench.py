"""Smoke test of the performance benchmark at 1/50 input size.

Run with ``python -m pytest benchmarks/perf/test_perf_bench.py``; it
drives ``run.py --scale smoke`` and ``compare.py`` exactly as a user
would, in fresh subprocesses.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _run(str(HERE / "run.py"), "--scale", "smoke", "--repeat", "2",
                "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text(encoding="utf-8")), out


def test_every_metric_printed_with_unit(smoke_set):
    stdout, _, _ = smoke_set
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"{metric['name']} ({metric['unit']})" in stdout, metric


def test_outputs_correct_and_digests_repeat(smoke_set):
    _, document, _ = smoke_set
    assert set(document["workloads"]) == {w["name"]
                                          for w in SPEC["workloads"]}
    for name, entry in document["workloads"].items():
        runs = [run for run in document["runs"] if run["workload"] == name]
        assert len(runs) == 3
        assert {run["detail"]["digest"] for run in runs} == {entry["digest"]}
        assert entry["failed_frac"] == 0.0, entry["problems"]


def test_span_self_times_within_traced_total(smoke_set):
    _, document, _ = smoke_set
    for name, entry in document["workloads"].items():
        layer = entry["per_layer"]
        attributed = sum(value for key, value in layer.items()
                         if key.endswith(".self_s"))
        assert 0.0 < attributed <= layer["trace.total_s"], name
        assert layer["trace.unattributed_s"] >= 0.0, name


def test_wrong_pinned_digest_fails_every_request(tmp_path):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"smoke": {"11": {"oltp_gc": "0" * 64}}}),
                    encoding="utf-8")
    proc = _run(str(HERE / "run.py"), "--workload", "oltp_gc", "--scale",
                "smoke", "--digests", str(pins))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_compare_pairs_by_round_and_flags_paired_slowdowns():
    import compare

    # HEAD is 5 % slower in every round but lost round 3: pairing by
    # position would set HEAD's round 4 against BASE's round 3 and count
    # wins.
    base = {("", r): 100.0 + 20 * r for r in range(12)}
    head = {key: 0.95 * value for key, value in base.items()
            if key != ("", 3)}
    row = compare.verdict(base, head, bound=0.25, higher_is_better=True)
    assert (row["pairs"], row["unpaired"], row["wins"]) == (11, 1, 0)
    # A slowdown inside the bound that every pair shows, by more than
    # BASE's own spread, is worse, not unchanged.
    steady = {("", r): 100.0 + 0.1 * r for r in range(10)}
    slower = {key: 0.9 * value for key, value in steady.items()}
    assert compare.verdict(steady, slower, bound=0.25,
                           higher_is_better=True)["verdict"] == "worse"


def test_compare_identical_files_has_no_worse_rows(smoke_set):
    _, _, out = smoke_set
    proc = _run(str(HERE / "compare.py"), str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()
                if line.split() and line.split()[0] in
                {w["name"] for w in SPEC["workloads"]}]
    assert len(verdicts) == 4 * len(SPEC["workloads"])
    assert "worse" not in verdicts

"""Simulator self-benchmark: ``repro bench``.

Measures how fast the *simulator* runs (not the modelled device):
wall-clock requests/sec for a fixed deterministic workload in each
engine mode (serial, and the concurrent engine at qd16 on a 4x2
fabric), plus per mode a per-subsystem breakdown of where that wall
time goes, from a ``cProfile`` pass of that mode aggregated by
``repro.*`` subpackage.  The result is written to ``BENCH_<date>.json``
so successive PRs can diff simulator performance the way they diff
figure outputs.

``BENCH_<date>.json`` holds *every* run of that day — a
``{"format": "repro-bench", "date": ..., "runs": [...]}`` document that
same-day reruns append to rather than clobber, each run stamped with
the git commit it measured (so a before/after optimisation pair
survives in one file).  A legacy single-run file from before this
format is migrated into the first entry of the list; a file that is
neither is refused unless ``--force`` discards it.

The benchmark workload itself is deterministic (fixed seed, fixed
record count); only the wall-clock numbers vary run to run.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import json
import os
import pstats
import subprocess
import time
from typing import Any, Dict, List, Optional, Tuple

from .atomicio import atomic_write_text
from .core.hierarchy import build_flash_system
from .sim.concurrent import run_trace_concurrent
from .workloads.macro import build_workload

__all__ = ["run_bench", "run_bench_command", "load_bench_document",
           "BENCH_FORMAT"]

_SRC_MARKER = "/repro/"

#: Format tag of the runs-list document in ``BENCH_<date>.json``.
BENCH_FORMAT = "repro-bench"


def _fresh_system_and_records(num_records: int):
    records = build_workload("specweb99", num_records=num_records, seed=11)
    system = build_flash_system(dram_bytes=64 << 20, flash_bytes=256 << 20)
    return system, records


def _subsystem_of(filename: str) -> str:
    """Map a profiled frame's file to its ``repro`` subpackage."""
    marker = filename.rfind(_SRC_MARKER)
    if marker < 0:
        return "other"
    parts = filename[marker + len(_SRC_MARKER):].split("/")
    return f"repro.{parts[0].removesuffix('.py')}" if parts else "other"


def _profile_shares(num_records: int, queue_depth: int, channels: int,
                    planes: int) -> List[Dict[str, Any]]:
    """One profiled replay of a mode, grouped into subsystem time shares.

    Shares are of *total* time (``tottime``: time inside the frame,
    excluding callees) so they sum to ~1.0 across subsystems instead of
    multiply-counting the call stack.
    """
    system, records = _fresh_system_and_records(num_records)
    profiler = cProfile.Profile()
    profiler.enable()
    run_trace_concurrent(system, records, queue_depth=queue_depth,
                         channels=channels, planes=planes)
    profiler.disable()
    stats = pstats.Stats(profiler)
    totals: Dict[str, float] = {}
    overall = 0.0
    for (filename, _line, _name), row in stats.stats.items():  # type: ignore[attr-defined]
        tottime = row[2]
        totals[_subsystem_of(filename)] = (
            totals.get(_subsystem_of(filename), 0.0) + tottime)
        overall += tottime
    if overall <= 0:
        return []
    shares = [{"subsystem": subsystem,
               "seconds": round(seconds, 4),
               "share": round(seconds / overall, 4)}
              for subsystem, seconds in totals.items()]
    shares.sort(key=lambda entry: (-entry["seconds"], entry["subsystem"]))
    return shares


def _timed_replay(num_records: int, queue_depth: int, channels: int,
                  planes: int) -> Tuple[float, int]:
    """Wall seconds and request count for one un-profiled replay."""
    system, records = _fresh_system_and_records(num_records)
    # Benchmarking the simulator's own speed is the one place wall
    # clocks belong; simulated time stays inside the engines.
    start = time.perf_counter()  # simlint: ignore[SIM001] -- host-side benchmark timing, not simulated time
    report = run_trace_concurrent(system, records, queue_depth=queue_depth,
                                  channels=channels, planes=planes)
    elapsed = time.perf_counter() - start  # simlint: ignore[SIM001] -- host-side benchmark timing, not simulated time
    return elapsed, report.requests


def run_bench(num_records: int = 40_000) -> Dict[str, Any]:
    """Run the benchmark suite; returns the JSON-ready result."""
    modes = [
        {"name": "serial", "queue_depth": 1, "channels": 1, "planes": 1},
        {"name": "concurrent_qd16_ch4", "queue_depth": 16, "channels": 4,
         "planes": 2},
    ]
    results = []
    for mode in modes:
        knobs = (mode["queue_depth"], mode["channels"], mode["planes"])
        elapsed, requests = _timed_replay(num_records, *knobs)
        results.append({
            **mode,
            "wall_seconds": round(elapsed, 4),
            "requests": requests,
            "requests_per_sec": round(requests / elapsed, 1)
            if elapsed > 0 else 0.0,
            "profile_shares": _profile_shares(num_records, *knobs),
        })
    return {"num_records": num_records, "modes": results}


def _git_commit() -> Optional[str]:
    """The commit being benchmarked, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def load_bench_document(path: str) -> Dict[str, Any]:
    """Parse an existing bench file into the runs-list document.

    Accepts the current ``{"format": "repro-bench", "runs": [...]}``
    shape and the legacy single-run shape (migrated into a one-entry
    ``runs`` list).  Anything else — unparseable bytes, JSON that is not
    a bench document — raises ``ValueError`` so a rerun cannot quietly
    destroy a file it does not understand.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON ({exc}); "
                             "refusing to overwrite it") from exc
    if not isinstance(document, dict):
        raise ValueError(f"{path} is not a bench document; "
                         "refusing to overwrite it")
    if document.get("format") == BENCH_FORMAT:
        runs = document.get("runs")
        if not isinstance(runs, list):
            raise ValueError(f"{path} claims format {BENCH_FORMAT!r} "
                             "but has no runs list")
        return document
    if "modes" in document and "num_records" in document:
        # Legacy layout: the whole file was one run.
        legacy = dict(document)
        date = legacy.pop("date", None)
        return {"format": BENCH_FORMAT, "date": date, "runs": [legacy]}
    raise ValueError(f"{path} is not a bench document; "
                     "refusing to overwrite it")


def run_bench_command(args: argparse.Namespace) -> int:
    result = run_bench(num_records=args.num_records)
    today = datetime.date.today().isoformat()  # simlint: ignore[SIM001] -- report filename stamp, not simulated time
    out_path = args.out if args.out else f"BENCH_{today}.json"
    result["git_commit"] = _git_commit()
    document: Dict[str, Any] = {"format": BENCH_FORMAT, "date": today,
                                "runs": []}
    force = getattr(args, "force", False)
    if os.path.exists(out_path) and not force:
        try:
            document = load_bench_document(out_path)
        except ValueError as exc:
            print(f"error: {exc} (pass --force to start the file fresh)")
            return 2
        document["date"] = document.get("date") or today
    document["runs"].append(result)
    atomic_write_text(out_path,
                      json.dumps(document, indent=2) + "\n")
    for mode in result["modes"]:
        print(f"{mode['name']:<22} {mode['requests_per_sec']:>10.0f} "
              f"req/s  ({mode['wall_seconds']:.2f} s for "
              f"{mode['requests']} requests)")
        print("  profile shares (simulator wall time by subsystem)")
        for entry in mode["profile_shares"][:8]:
            print(f"    {entry['subsystem']:<18} {entry['share']:>6.1%}")
    commit = result["git_commit"] or "unknown"
    print(f"benchmark JSON written to {out_path} "
          f"(run {len(document['runs'])} of {document['date']}, "
          f"commit {commit})")
    return 0

"""Simulator performance benchmark: host req/s, set-up, memory, per layer.

Two modes share one measurement:

* **one run** (``--workload NAME``): in this process, after one untimed
  warm-up repetition, repeat set-up plus the timed call until
  ``--seconds`` of timed work have accumulated (at least once), check
  every output, report set-up and timed-call times scaled by the
  calibration loop (``calibration.py``), and print as the last stdout
  line::

      {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  With ``--trace 0`` the metrics are the end-to-end metrics of
  ``BENCHMARK.json``; with ``--trace 1`` one more repetition runs under
  the span tracer (``spans.py``) and the metrics are the per-layer ones.
  The line before it is ``{"detail": ...}``: raw samples, digests, the
  traced call tree.

* **a full set** (no ``--workload``)::

      PYTHONPATH=src python benchmarks/perf/run.py --seed 11 --repeat 5 \\
          --out result.json

  runs every workload ``--repeat`` times round-robin, then one traced
  round, each run a fresh subprocess of one timed repetition after the
  warm-up, one at a time;
  prints every metric with its unit and writes the result file
  (manifest, raw samples, medians and quartiles, per-layer metrics).

Every repetition's output is hashed; a run whose digest differs from the
pinned one (``digests.json``), from its other repetitions, or whose
accounting identities fail counts all its requests as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calibration import reference_seconds, scaled
from summary import HERE, ROOT, SPEC_PATH, load_spec, quartiles

SRC = ROOT / "src"
DIGESTS_PATH = HERE / "digests.json"


def require_program() -> None:
    """Refuse to run without the simulator sources beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: simulator sources not found at {SRC}")
    if not SPEC_PATH.is_file():
        sys.exit(f"error: {SPEC_PATH} not found")
    sys.path.insert(0, str(SRC))


def _pinned_digest(path: str, scale: str, seed: int,
                   workload: str) -> Optional[str]:
    if not path:
        return None
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle)
    return pins.get(scale, {}).get(str(seed), {}).get(workload)


# -- one run ------------------------------------------------------------------

#: A set-up shorter than this is repeated until this much time has passed.
SETUP_TIMING_S = 0.01


def _repetition(workload: Any, seed: int, scale: float, tracer: Any = None,
                calibrate: bool = True) -> Tuple[Dict[str, Any], Any, Any]:
    """Set up, run the timed call, check it; returns (sample, outcome,
    output).  The times are host seconds; ``reference_s`` is the faster
    of the calibration passes just before and after the timed call, or
    None without ``calibrate``."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        # A set-up of a few microseconds (cluster_r2's scenario) timed
        # once reads mostly the timer and the cache state, so a short one
        # is repeated and timed by its mean; not when traced, so the
        # spans and counts cover exactly one set-up.
        builds, start = 0, time.perf_counter()
        while True:
            prepared = workload.setup(seed, scale)
            builds += 1
            elapsed = time.perf_counter() - start
            if tracer is not None or elapsed >= SETUP_TIMING_S:
                break
        setup_s = elapsed / builds
        gc.collect()
        reference_s = reference_seconds() if calibrate else None
        start = time.perf_counter()
        output = workload.run(prepared)
        run_s = time.perf_counter() - start
        if calibrate:
            reference_s = min(reference_s, reference_seconds())
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome = workload.outcome(prepared, output)
    sample = {"setup_s": setup_s, "run_s": run_s,
              "reference_s": reference_s, "requests": outcome.requests,
              "digest": outcome.digest}
    return sample, outcome, output


def _timing_ratios(traced_run_s: float, run_s: float,
                   counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics that divide by the untraced run time."""
    device_ops = (counts["flash.device.reads"]
                  + counts["flash.device.programs"]
                  + counts["flash.device.erases"])
    return {"trace.overhead": traced_run_s / run_s,
            "sim.host_us_per_device_op": (
                run_s * 1e6 / device_ops if device_ops else 0.0)}


def _per_layer(tracer: Any, traced: Dict[str, Any],
               counts: Dict[str, float], run_s: float) -> Dict[str, float]:
    values: Dict[str, float] = {}
    attributed = 0.0
    for name, entry in tracer.span_totals().items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
        attributed += entry["self_s"]
    total_s = traced["setup_s"] + traced["run_s"]
    values["trace.total_s"] = total_s
    values["trace.unattributed_s"] = total_s - attributed
    values.update(counts)
    values["sim.events.dispatched"] = tracer.events_dispatched
    values.update(_timing_ratios(scaled([traced], "run_s"), run_s, counts))
    return values


def one_run(name: str, seed: int, seconds: float, trace: bool,
            scale_name: str, digests: str) -> Tuple[Dict[str, Any],
                                                    Dict[str, Any]]:
    """Measure one workload; returns (result line, detail)."""
    from spans import Tracer
    from workloads import SCALES, WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[name]
    scale = SCALES[scale_name]
    pinned = _pinned_digest(digests, scale_name, seed, name)
    samples: List[Dict[str, Any]] = []
    problems: List[str] = []
    detail: Dict[str, Any] = {"workload": name, "seed": seed,
                              "scale": scale_name, "seconds": seconds,
                              "trace": trace, "pinned_digest": pinned}
    attempted = 0
    try:
        # An untimed warm-up repetition takes first-call costs (lazy
        # imports, cold caches) out of the timings; its output is checked
        # like the others.  It runs no calibration pass and later
        # repetitions reuse a fragmented heap, so its high-water mark is
        # what a single user run costs.
        warmup, outcome, _ = _repetition(workload, seed, scale,
                                         calibrate=False)
        attempted += warmup["requests"]
        problems.extend(outcome.problems)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not samples or sum(s["run_s"] for s in samples) < seconds:
            sample, outcome, _ = _repetition(workload, seed, scale)
            samples.append(sample)
            attempted += sample["requests"]
            problems.extend(outcome.problems)
        digest = warmup["digest"]
        if any(s["digest"] != digest for s in samples):
            problems.append("digest differs between repetitions")
        if pinned is not None and digest != pinned:
            problems.append(f"digest {digest[:16]} != pinned {pinned[:16]}")
        run_s = scaled(samples, "run_s")
        detail.update(warmup=warmup, samples=samples, digest=digest,
                      functional_digest=outcome.functional_digest,
                      peak_rss_mb=peak_rss_mb, run_s=run_s)
        values: Dict[str, float] = {
            "req_per_s": samples[0]["requests"] / run_s,
            "setup_s": scaled(samples, "setup_s"),
            "peak_rss_mb": peak_rss_mb,
        }
        if trace:
            tracer = Tracer()
            traced, traced_outcome, output = _repetition(
                workload, seed, scale, tracer)
            attempted += traced["requests"]
            problems.extend(traced_outcome.problems)
            if traced["digest"] != digest:
                problems.append("traced digest differs from untraced")
            counts = workload.counts(output, tracer.systems)
            values = _per_layer(tracer, traced, counts, run_s)
            detail["traced"] = traced
            detail["tree"] = tracer.tree()
        if getattr(workload, "concurrent", False):
            prepared = workload.setup(seed, scale)
            serial = workload.outcome(prepared,
                                      workload.serial_run(prepared))
            attempted += serial.requests
            if serial.functional_digest != outcome.functional_digest:
                problems.append("functional digest differs from the "
                                "serial engine on the same records")
    except Exception:  # the boundary: report the failure, keep the line
        problems.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
        values = {}
    metrics_spec = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [entry["name"] for entry in metrics_spec
               if entry["name"] not in values]
    if missing and not problems:
        problems.append(f"not measured: {', '.join(missing)}")
    metrics = {} if missing else {
        entry["name"]: {"value": values[entry["name"]],
                        "unit": entry["unit"]}
        for entry in metrics_spec}
    correct = not problems
    detail["problems"] = problems
    attempted = max(attempted, 1)
    result = {"correct": correct, "attempted": attempted,
              "failed": 0 if correct else attempted, "metrics": metrics}
    return result, detail


# -- a full set of runs ---------------------------------------------------------

#: Upper bound on one fresh-process run (a full-scale run takes < 10 s).
RUN_TIMEOUT_S = 600


def spawn(name: str, seed: int, trace: bool, scale: str, digests: str,
          seconds: float = 0.0) -> Dict[str, Any]:
    """One run of one workload in a fresh interpreter (by default a
    single timed repetition)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--scale", scale,
               "--digests", digests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
        exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as expired:
        exit_code, stdout = None, ""
        stderr = f"timed out after {expired.timeout} s"
    elapsed_s = time.perf_counter() - start
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
    except (IndexError, KeyError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
        detail = {"problems": [f"no result line (exit {exit_code})"],
                  "stderr": stderr[-4000:]}
    return {"workload": name, "traced": trace, "exit_code": exit_code,
            "elapsed_s": elapsed_s, "result": result, "detail": detail}


def manifest(settings: Dict[str, Any], argv: List[str]) -> Dict[str, Any]:
    """Where and how a result file was measured: commit, interpreter,
    machine, the run settings and argv."""
    from importlib import metadata

    def git(*git_args: str) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *git_args], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            **settings, "argv": argv}


def _summarise(spec: Dict[str, Any], names: List[str],
               runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    workloads: Dict[str, Any] = {}
    for name in names:
        mine = [run for run in runs if run["workload"] == name]
        problems = [f"{'traced ' if run['traced'] else ''}run: {problem}"
                    for run in mine
                    for problem in run["detail"].get("problems", [])]
        digests = {run["detail"].get("digest") for run in mine}
        if len(digests) > 1:
            problems.append("digest differs between runs: "
                            f"{sorted(map(str, digests))}")
        attempted = sum(run["result"]["attempted"] for run in mine)
        failed = (attempted if len(digests) > 1 else
                  sum(run["result"]["failed"] for run in mine))
        untraced = [run for run in mine
                    if not run["traced"] and run["result"]["metrics"]]
        traced = [run for run in mine if run["traced"]]
        entry: Dict[str, Any] = {
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "problems": problems,
            "digest": next(iter(digests)) if len(digests) == 1 else None,
            # Round of each sample, so compare.py pairs runs by round even
            # when a failed run left a gap.
            "rounds": [run["round"] for run in untraced],
            "samples": {}, "summary": {}}
        for metric in spec["end_to_end"]:
            values = [run["result"]["metrics"][metric["name"]]["value"]
                      for run in untraced]
            entry["samples"][metric["name"]] = values
            if values:
                entry["summary"][metric["name"]] = {
                    **quartiles(values), "unit": metric["unit"]}
        if traced and traced[-1]["result"]["metrics"]:
            per_layer = {
                key: value["value"]
                for key, value in traced[-1]["result"]["metrics"].items()}
            run_s = [run["detail"]["run_s"] for run in untraced]
            if run_s:
                # The traced process timed only one untraced repetition;
                # divide by the whole set's median instead.
                per_layer.update(_timing_ratios(
                    scaled([traced[-1]["detail"]["traced"]], "run_s"),
                    statistics.median(run_s), per_layer))
            entry["per_layer"] = per_layer
            entry["tree"] = traced[-1]["detail"].get("tree", [])
        workloads[name] = entry
    return workloads


def _number(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.0f}"


def _print_set(spec: Dict[str, Any], names: List[str],
               workloads: Dict[str, Any]) -> None:
    print("\nend to end (median [q1, q3] over untraced runs)")
    header = f"{'workload':<18}"
    for metric in spec["end_to_end"]:
        header += f" {metric['name'] + ' (' + metric['unit'] + ')':>30}"
    print(header + f" {'failed_frac (ratio)':>20}")
    for name in names:
        entry = workloads[name]
        row = f"{name:<18}"
        for metric in spec["end_to_end"]:
            stat = entry["summary"].get(metric["name"])
            cell = ("-" if stat is None else
                    f"{_number(stat['median'])} [{_number(stat['q1'])}, "
                    f"{_number(stat['q3'])}] n={stat['n']}")
            row += f" {cell:>30}"
        print(row + f" {entry['failed_frac']:>20.3g}")
    print("\nper layer (traced round; spans: calls and self time)")
    print(f"{'metric (unit)':<52}"
          + "".join(f" {name[:14]:>14}" for name in names))
    for metric in spec["per_layer"]:
        row = f"{metric['name'] + ' (' + metric['unit'] + ')':<52}"
        for name in names:
            value = workloads[name].get("per_layer", {}).get(metric["name"])
            row += f" {'-' if value is None else _number(value):>14}"
        print(row)
    for name in names:
        for problem in workloads[name]["problems"]:
            print(f"FAILED {name}: {problem}")


def run_set(args: argparse.Namespace, argv: List[str]) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    digests = "" if args.pin else args.digests
    document: Dict[str, Any] = {"format": "repro-perfbench/1",
                                "manifest": manifest(
                                    {"seed": args.seed, "repeat": args.repeat,
                                     "scale": args.scale}, argv),
                                "runs": []}
    plan = [(round_index, name, False) for round_index in range(args.repeat)
            for name in names]
    plan += [(args.repeat, name, True) for name in names]
    for round_index, name, trace in plan:
        run = spawn(name, args.seed, trace, args.scale, digests)
        run["round"] = round_index
        document["runs"].append(run)
        metrics = run["result"]["metrics"]
        headline = ("traced" if trace else
                    f"{metrics['req_per_s']['value']:,.0f} req/s"
                    if metrics else "no metrics")
        print(f"round {round_index} {name:<18} {headline:>16} "
              f"({run['elapsed_s']:.1f} s"
              f"{'' if run['result']['correct'] else ', FAILED'})",
              flush=True)
    workloads = _summarise(spec, names, document["runs"])
    document["workloads"] = workloads
    _print_set(spec, names, workloads)
    failed = any(entry["failed"] for entry in workloads.values())
    if args.pin and not failed:
        pins: Dict[str, Any] = {}
        if DIGESTS_PATH.is_file():
            pins = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        seed_pins = pins.setdefault(args.scale, {}).setdefault(
            str(args.seed), {})
        for name in names:
            seed_pins[name] = workloads[name]["digest"]
        DIGESTS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True)
                                + "\n", encoding="utf-8")
        print(f"pinned {len(names)} digests in {DIGESTS_PATH.name}")
    if args.out:
        out = Path(args.out)
        partial = out.with_name(out.name + ".partial")
        partial.write_text(json.dumps(document, indent=1) + "\n",
                           encoding="utf-8")
        os.replace(partial, out)
        print(f"wrote {out}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    require_program()
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Simulator performance benchmark (README.md).")
    parser.add_argument("--workload",
                        choices=[entry["name"] for entry in spec["workloads"]],
                        help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=11,
                        help="workload seed (holdout: 29)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="one run: repeat until this much timed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one run: report per-layer metrics from a "
                             "traced repetition")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full", help="smoke = 1/50 input sizes")
    parser.add_argument("--digests", default=str(DIGESTS_PATH),
                        help="pinned output digests ('' = none)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="set: untraced rounds before the traced one")
    parser.add_argument("--out", help="set: result file to write")
    parser.add_argument("--pin", action="store_true",
                        help="set: record this set's digests as the pins")
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.repeat < 0:
        parser.error("--seconds and --repeat must be non-negative")
    if args.workload is None:
        return run_set(args, argv)
    result, detail = one_run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.scale, args.digests)
    samples = detail.get("samples", [])
    print(f"{args.workload} seed={args.seed} repetitions={len(samples)} "
          f"correct={result['correct']} problems={detail['problems']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

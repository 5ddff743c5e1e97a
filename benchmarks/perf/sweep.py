"""Seed sweep: the measurement the bounds in BENCHMARK.json are set from.

    PYTHONPATH=src python benchmarks/perf/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out sweep_a.json
    PYTHONPATH=src python benchmarks/perf/sweep.py --seeds 11 12 ... 20 \\
        --against sweep_a.json --out sweep_b.json

Runs every workload once per seed (seeds in the outer loop, so machine
drift spreads over all workloads), each run a fresh ``run.py --workload W
--seed N --seconds <run_seconds> --trace 0`` process, one at a time.  For
every (workload, end-to-end metric) it prints the median over the seeds
and the spread: the distance between the first and third quartiles as a
share of the median.  With ``--against`` it also prints how much worse
this sweep's medians are than the other sweep's.  A metric's bound must
exceed every spread except that of ``setup_s``, and every such shift.
Exits 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from run import DIGESTS_PATH, manifest, require_program, spawn
from summary import load_spec, quartiles


def summarise(spec: Dict[str, Any], runs: List[Dict[str, Any]]
              ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Median, quartiles and spread per (workload, end-to-end metric)."""
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        mine = [run["result"]["metrics"] for run in runs
                if run["workload"] == workload and run["result"]["metrics"]]
        for metric in spec["end_to_end"]:
            values = [metrics[metric["name"]]["value"] for metrics in mine]
            if len(values) < 2:
                continue
            stat = quartiles(values)
            stat["spread"] = stat["iqr"] / stat["median"]
            table.setdefault(workload, {})[metric["name"]] = stat
    return table


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    require_program()
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Spread of every end-to-end metric over seeds.")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)))
    parser.add_argument("--against",
                        help="an earlier sweep file to compare medians with")
    parser.add_argument("--out", required=True, help="sweep file to write")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    runs: List[Dict[str, Any]] = []
    for seed in args.seeds:
        for entry in spec["workloads"]:
            run = spawn(entry["name"], seed, False, "full",
                        str(DIGESTS_PATH), seconds)
            run["seed"] = seed
            runs.append(run)
            metrics = run["result"]["metrics"]
            print(f"seed {seed:<4} {entry['name']:<18} "
                  + " ".join(f"{name}={value['value']:.5g}"
                             for name, value in metrics.items())
                  + f" ({run['elapsed_s']:.1f} s"
                  + ("" if run["result"]["correct"] else ", FAILED") + ")",
                  flush=True)
    table = summarise(spec, runs)
    against = None
    if args.against:
        against = summarise(spec, json.loads(
            Path(args.against).read_text(encoding="utf-8"))["runs"])
    print(f"\n{'workload':<18} {'metric':<12} {'median':>12} {'spread':>8}"
          + (f" {'worse than --against':>21}" if against else ""))
    for workload, metrics in table.items():
        for metric in spec["end_to_end"]:
            stat = metrics.get(metric["name"])
            if stat is None:
                continue
            row = (f"{workload:<18} {metric['name']:<12} "
                   f"{stat['median']:>12.5g} {stat['spread']:>8.2%}")
            if against:
                base = against[workload][metric["name"]]["median"]
                change = stat["median"] / base - 1.0
                worse = change if metric["better"] == "lower" else -change
                stat["worse_than_against"] = worse
                row += f" {worse:>+21.2%}"
            print(row)
    failed = [f"{run['workload']} seed {run['seed']}" for run in runs
              if not run["result"]["correct"]]
    for name in failed:
        print(f"FAILED {name}")
    document = {"format": "repro-perfbench-sweep/1",
                "manifest": manifest({"seeds": args.seeds,
                                      "seconds": seconds,
                                      "against": args.against}, argv),
                "runs": runs, "summary": table}
    out = Path(args.out)
    partial = out.with_name(out.name + ".partial")
    partial.write_text(json.dumps(document, indent=1) + "\n",
                       encoding="utf-8")
    os.replace(partial, out)
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

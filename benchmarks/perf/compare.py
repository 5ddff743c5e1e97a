"""Compare result files of ``run.py``: ``compare.py BASE HEAD``.

BASE and HEAD are each one result file, or a directory whose ``*.json``
result files are merged in name order (one file per alternating A/B
pair).  For every (end-to-end metric, workload) pair it prints both sides'
median and quartiles and a verdict, using the bounds in BENCHMARK.json:

* **better** — over at least 10 pairs (runs paired by file name and
  round), HEAD wins at least 9 in 10, ties counting for neither side, and
  the medians differ, in HEAD's favour, by more than BASE's interquartile
  range;
* **worse** — HEAD's median is worse than BASE's by more than the bound,
  or, by the mirror of the rule for *better*, HEAD loses at least 9 in 10
  of at least 10 pairs and its median is worse by more than BASE's
  interquartile range.  The bounds are as wide as cross-seed host noise
  forces them to be; paired runs cancel that drift, so a consistent
  slowdown inside the bound still shows;
* **unresolved** — either side's spread (IQR over median) is wider than
  the bound, unless every HEAD run reads better than every BASE run;
* **unchanged** — otherwise.

``failed_frac`` has an absolute bound of 0: any increase is worse.  The
traced self time of every span is diffed too, so a claimed saving can be
located.  Exits 1 when any row is worse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from summary import load_spec, quartiles

#: Fewer pairs than this never support a claim of "better".
MIN_PAIRS = 10

#: Settings that must match for two result files to be comparable.
_SETTINGS = ("seed", "repeat", "scale", "nproc", "python", "numpy")


#: A sample's pairing key: (result file name within a directory, round).
Key = Tuple[str, int]


def verdict(base: Dict[Key, float], head: Dict[Key, float], bound: float,
            higher_is_better: bool) -> Dict[str, Any]:
    """Judge one (metric, workload) pair; see the module docstring.

    Samples pair up by key; a sample whose key the other side lacks (its
    run failed) joins the quartiles but no pair.
    """
    sign = 1.0 if higher_is_better else -1.0
    qb, qh = quartiles(list(base.values())), quartiles(list(head.values()))
    keys = sorted(base.keys() & head.keys())
    wins = sum(1 for key in keys if sign * (head[key] - base[key]) > 0)
    losses = sum(1 for key in keys if sign * (head[key] - base[key]) < 0)
    gain = sign * (qh["median"] - qb["median"])
    spread = max(qb["iqr"] / abs(qb["median"]) if qb["median"] else 0.0,
                 qh["iqr"] / abs(qh["median"]) if qh["median"] else 0.0)
    paired = len(keys) >= MIN_PAIRS
    if paired and wins >= 0.9 * len(keys) and gain > qb["iqr"]:
        label = "better"
    elif -gain > bound * abs(qb["median"]) or (
            paired and losses >= 0.9 * len(keys) and -gain > qb["iqr"]):
        label = "worse"
    elif spread > bound and not (
            min(sign * h for h in head.values())
            > max(sign * b for b in base.values())):
        label = "unresolved"
    else:
        label = "unchanged"
    return {"verdict": label, "base": qb, "head": qh, "wins": wins,
            "pairs": len(keys),
            "unpaired": len(base) + len(head) - 2 * len(keys),
            "spread": spread,
            "change": (qh["median"] / qb["median"] - 1.0
                       if qb["median"] else 0.0)}


def load(path: str) -> Dict[str, Any]:
    """One result file, or every ``*.json`` in a directory merged in name
    order: samples are keyed by (file name, round), failures add up, and
    the last file's traced round supplies the per-layer metrics."""
    location = Path(path)
    files = sorted(location.glob("*.json")) if location.is_dir() \
        else [location]
    if not files:
        sys.exit(f"error: no result files in {path}")
    merged: Dict[str, Any] = {"workloads": {}}
    for file in files:
        document = json.loads(file.read_text(encoding="utf-8"))
        merged.setdefault("manifest", document["manifest"])
        label = file.name if location.is_dir() else ""
        for name, entry in document["workloads"].items():
            into = merged["workloads"].setdefault(
                name, {"samples": {}, "attempted": 0, "failed": 0})
            for metric, values in entry["samples"].items():
                into["samples"].setdefault(metric, {}).update(
                    ((label, round_index), value)
                    for round_index, value in zip(entry["rounds"], values))
            into["attempted"] += entry["attempted"]
            into["failed"] += entry["failed"]
            if "per_layer" in entry:
                into["per_layer"] = entry["per_layer"]
    for entry in merged["workloads"].values():
        entry["failed_frac"] = (entry["failed"] / entry["attempted"]
                                if entry["attempted"] else 1.0)
    return merged


def _cell(stat: Dict[str, float]) -> str:
    return f"{stat['median']:.5g} [{stat['q1']:.5g}, {stat['q3']:.5g}]"


def compare(base: Dict[str, Any], head: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        if workload not in base["workloads"] \
                or workload not in head["workloads"]:
            continue
        b_entry = base["workloads"][workload]
        h_entry = head["workloads"][workload]
        for metric in spec["end_to_end"]:
            b_values = b_entry["samples"].get(metric["name"], {})
            h_values = h_entry["samples"].get(metric["name"], {})
            if not b_values or not h_values:
                continue
            row = verdict(b_values, h_values, metric["bound"],
                          metric["better"] == "higher")
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], **row})
        b_failed, h_failed = b_entry["failed_frac"], h_entry["failed_frac"]
        rows.append({"workload": workload, "metric": "failed_frac",
                     "unit": "ratio", "base_value": b_failed,
                     "head_value": h_failed,
                     "verdict": ("worse" if h_failed > b_failed else
                                 "better" if h_failed < b_failed
                                 else "unchanged")})
    return rows


def _print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<18} {'metric':<12} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'change':>8} {'wins':>6}  verdict")
    for row in rows:
        if "base" in row:
            print(f"{row['workload']:<18} {row['metric']:<12} "
                  f"{_cell(row['base']):>34} {_cell(row['head']):>34} "
                  f"{row['change']:>+8.2%} "
                  f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
            if row["unpaired"]:
                print(f"  ({row['unpaired']} samples without a partner run "
                      "on the other side were left out of the pairs)")
        else:
            print(f"{row['workload']:<18} {row['metric']:<12} "
                  f"{row['base_value']:>34.3g} {row['head_value']:>34.3g} "
                  f"{'':>8} {'':>6}  {row['verdict']}")


def _print_spans(base: Dict[str, Any], head: Dict[str, Any],
                 spec: Dict[str, Any]) -> None:
    print("\ntraced self time per span (s), largest change first")
    for workload in (entry["name"] for entry in spec["workloads"]):
        b_layer = base["workloads"].get(workload, {}).get("per_layer")
        h_layer = head["workloads"].get(workload, {}).get("per_layer")
        if not b_layer or not h_layer:
            continue
        deltas = []
        for name, b_value in b_layer.items():
            if not name.endswith(".self_s") or name not in h_layer:
                continue
            h_value = h_layer[name]
            if b_value or h_value:
                span = name[:-len(".self_s")]
                calls = (b_layer.get(f"{span}.calls"),
                         h_layer.get(f"{span}.calls"))
                deltas.append((h_value - b_value, span, b_value, h_value,
                               calls))
        deltas.sort(key=lambda entry: -abs(entry[0]))
        print(f"{workload}:")
        for delta, span, b_value, h_value, (b_calls, h_calls) in deltas:
            calls = ("" if b_calls == h_calls else
                     f"  calls {b_calls} -> {h_calls}")
            print(f"  {span:<36} {b_value:>9.4f} -> {h_value:>9.4f} "
                  f"({delta:+.4f}){calls}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Verdicts per (end-to-end metric, workload) between "
                    "two sets of run.py result files.")
    parser.add_argument("base", help="result file or directory of them")
    parser.add_argument("head", help="result file or directory of them")
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)
    spec = load_spec()
    for key in _SETTINGS:
        if base["manifest"].get(key) != head["manifest"].get(key):
            print(f"warning: {key} differs: {base['manifest'].get(key)!r} "
                  f"vs {head['manifest'].get(key)!r}")
    rows = compare(base, head, spec)
    _print_rows(rows)
    _print_spans(base, head, spec)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared by ``run.py`` and ``compare.py``: the spec and quartiles."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``
    gives them (a single sample is its own quartiles)."""
    if len(values) == 1:
        q1 = median = q3 = float(values[0])
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}

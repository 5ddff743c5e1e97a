"""Exporters: dump a :class:`~repro.telemetry.Telemetry` handle's contents.

Two formats:

* **JSON** — one self-describing document: counters, gauges, histogram
  digests (count/mean/min/max/p50/p95/p99) plus raw bucket rows, and
  every time-series as parallel ``x``/``y`` arrays.  This is the machine
  interface (plotting notebooks, CI artifacts, regression diffing).
* **CSV** — long-format rows for spreadsheet/gnuplot consumption:
  ``series,x,y`` for time-series and ``histogram,upper_edge_us,count``
  for bucket rows.

Path destinations are written atomically (tmp + ``os.replace`` via
:mod:`repro.atomicio`): a crash mid-export leaves either the previous
artifact or the new one, never a truncated file.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Dict, IO, Union

from ..atomicio import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Telemetry

__all__ = [
    "telemetry_to_dict",
    "to_json",
    "write_json",
    "series_to_csv",
    "histograms_to_csv",
    "write_csv",
]

FORMAT_VERSION = 1


def telemetry_to_dict(telemetry: "Telemetry") -> Dict:
    """Plain-data snapshot of every instrument and series."""
    payload = telemetry.metrics.as_dict()
    payload["version"] = FORMAT_VERSION
    payload["histogram_buckets"] = {
        name: [[edge, count] for edge, count in hist.bucket_rows()
               if edge != float("inf")] + [["+inf", hist.overflow]]
        for name, hist in sorted(telemetry.metrics.histograms.items())
    }
    payload["series"] = {
        name: series.as_dict()
        for name, series in sorted(telemetry.timeseries.items())
    }
    return payload


def to_json(telemetry: "Telemetry", indent: int = 2) -> str:
    return json.dumps(telemetry_to_dict(telemetry), indent=indent,
                      sort_keys=True)


def write_json(telemetry: "Telemetry",
               destination: Union[str, IO[str]]) -> None:
    """Write the JSON document to a path or an open text stream."""
    if isinstance(destination, str):
        atomic_write_text(destination, to_json(telemetry) + "\n")
    else:
        destination.write(to_json(telemetry))
        destination.write("\n")


def series_to_csv(telemetry: "Telemetry") -> str:
    """Every time-series in long format: ``series,x,y``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["series", "x", "y"])
    for name, series in sorted(telemetry.timeseries.items()):
        for x, y in zip(series.xs, series.ys):
            writer.writerow([name, x, y])
    return buffer.getvalue()


def histograms_to_csv(telemetry: "Telemetry") -> str:
    """Every histogram's buckets in long format:
    ``histogram,upper_edge_us,count``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["histogram", "upper_edge_us", "count"])
    for name, hist in sorted(telemetry.metrics.histograms.items()):
        for edge, count in hist.bucket_rows():
            writer.writerow([name, "+inf" if edge == float("inf") else edge,
                             count])
    return buffer.getvalue()


def write_csv(telemetry: "Telemetry",
              destination: Union[str, IO[str]]) -> None:
    """Write time-series then histogram sections to a path or stream."""
    content = series_to_csv(telemetry) + histograms_to_csv(telemetry)
    if isinstance(destination, str):
        atomic_write_text(destination, content)
    else:
        destination.write(content)

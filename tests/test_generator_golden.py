"""Golden digests of the key and arrival-time generators.

Every cluster, figure and benchmark run starts from these streams, so a
change that perturbs one rank draw or one thinning decision would show
up downstream only as a moved report digest.  Pinning the generators
directly makes such a change fail here first, naming the stream.

The digests are SHA-256 over one line per record (``page,op,pages,
repr(timestamp)``) or per arrival instant (``repr(time_us)``).  They
depend only on the standard library's ``random`` and float arithmetic,
not on whether numpy is installed.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

import pytest

from repro.cluster.arrivals import ARRIVAL_PATTERNS, sample_arrival_times
from repro.workloads.macro import ALL_WORKLOAD_NAMES, build_workload
from repro.workloads.trace import TraceRecord

#: ``build_workload(name, 2000, seed=7, footprint_pages=4096)``.
WORKLOAD_DIGESTS = {
    "uniform": "4eb18cb9a9f398a92e8cf5d5fc1372758b3018fa2b469022c93787cc6bea36fd",
    "alpha1": "07d9d9eeb0194f5475de7f7c85b9d456cd483ce1e21b3fb440c52aeffdd64100",
    "alpha2": "769396d105ee888ba54e9c21f1d59b100e6d2809b1fbe6f711191879c95efa85",
    "alpha3": "bc11581676cd44d69bf3ec75ac032c04befff6af2ee1ee424204f82c1316a370",
    "exp1": "1b4b1aa4c52576ece80768371d7afeca34cf58c8ba363a5690f1b524c6d8919b",
    "exp2": "098126f51843b0295ab550a6dae3923dd144699f3e563d39e576c4168bf6fdd7",
    "dbt2": "2b5d31a357667daec057726908f4f9786f8a972cdb4b14d43a70651241910041",
    "specweb99": "7920efc5eea2d524f80d7253b809a0fe0fc8ffd5ffb914c7711694379b0eccff",
    "websearch1": "259aef5665b0e39ce1d87c9e6db9a8b61756fa1072afd5dbc69a6c9a0b2c5e65",
    "websearch2": "519b68c62e10ef59fa0c07cb7fd7a3bfa59c56218c1f2e6dbf0383ea3b6fac3c",
    "financial1": "9aaf93b29420962559048a2597cef331eade389b40aeaa99f2326d88201c6ba1",
    "financial2": "59c96c69921828b50b4ffb6fe5ee9d90b5969a5ee5eb670d699c3127cd80cde4",
}

#: ``sample_arrival_times(pattern, 2000.0, 1.0, 7)``: (count, digest).
ARRIVAL_DIGESTS = {
    "steady": (1976, "180a2875c7212d8770222e228e124d9692b1b4ddc2dde514de196e2812513d14"),
    "diurnal": (1147, "a584ccb9ab35dac2116ca2e5a4cee8901aec7c9faa88d31be92ec4b5166efdbf"),
    "flash_crowd": (692, "f965c49f0cf1375926766ec4b4f744df2838d709f115ade9a9fb6def54e053bd"),
    "drain": (1003, "655ee82311598429590a469ddee73e3ab1b73b6bc34e5ec159a6e48c82cf185d"),
}


def _record_digest(records: Iterable[TraceRecord]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.page},{r.op},{r.pages},{r.timestamp!r}\n".encode())
    return h.hexdigest()


def _times_digest(times: List[float]) -> str:
    h = hashlib.sha256()
    for t in times:
        h.update(f"{t!r}\n".encode())
    return h.hexdigest()


def test_every_workload_is_pinned():
    assert set(WORKLOAD_DIGESTS) == set(ALL_WORKLOAD_NAMES)
    assert set(ARRIVAL_DIGESTS) == set(ARRIVAL_PATTERNS)


@pytest.mark.parametrize("name", ALL_WORKLOAD_NAMES)
def test_workload_stream_digest(name):
    records = build_workload(name, 2000, seed=7, footprint_pages=4096)
    assert len(records) == 2000
    assert _record_digest(records) == WORKLOAD_DIGESTS[name]


@pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
def test_arrival_times_digest(pattern):
    times = sample_arrival_times(pattern, 2000.0, 1.0, 7)
    count, digest = ARRIVAL_DIGESTS[pattern]
    assert len(times) == count
    assert _times_digest(times) == digest

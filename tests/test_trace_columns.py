"""The columnar :class:`Trace`: its sequence contract, and replay that
matches a plain list of records.

Every generator returns a ``Trace`` and the request loops read its
columns, so these tests pin two things: a ``Trace`` reads, slices and
pickles exactly like the records it stands for, and a simulation fed a
list of records (converted once) and one fed the equivalent ``Trace``
report the same numbers through every engine.
"""

from __future__ import annotations

import json
import pickle
import tracemalloc
from array import array
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_flash_system, build_workload
from repro.sim.concurrent import run_trace_concurrent
from repro.sim.engine import run_trace, summarise_system
from repro.telemetry import LatencyHistogram, Telemetry
from repro.telemetry.timeseries import TimeSeries
from repro.workloads.trace import OP_READ, OP_WRITE, Trace, TraceRecord

RECORDS = [
    TraceRecord(page=7, op=OP_READ),
    TraceRecord(page=0, op=OP_WRITE, pages=3, timestamp=0.25),
    TraceRecord(page=1 << 40, op=OP_READ, pages=2, timestamp=1.5),
    TraceRecord(page=9, op=OP_WRITE, timestamp=2.0),
]


class TestSequenceContract:
    def test_rows_equal_the_records(self):
        trace = Trace.from_records(RECORDS)
        assert len(trace) == len(RECORDS)
        assert list(trace) == RECORDS
        for index in range(-len(RECORDS), len(RECORDS)):
            assert trace[index] == RECORDS[index]
        with pytest.raises(IndexError):
            trace[len(RECORDS)]

    def test_round_trip_through_records(self):
        trace = build_workload("dbt2", 500, seed=3, footprint_pages=256)
        assert Trace.from_records(list(trace)) == trace
        assert Trace.from_records(iter(list(trace))) == trace
        assert Trace.from_records(trace) is trace

    def test_slices_are_traces(self):
        trace = Trace.from_records(RECORDS)
        assert isinstance(trace[1:3], Trace)
        assert list(trace[1:3]) == RECORDS[1:3]
        assert list(trace[::-1]) == RECORDS[::-1]

    def test_pickle_round_trip(self):
        trace = build_workload("financial1", 300, seed=2,
                               footprint_pages=128)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone == trace
        assert list(clone) == list(trace)

    def test_requests_expand_runs_in_order(self):
        assert list(Trace.from_records(RECORDS[:2]).requests()) == [
            (7, True), (0, False), (1, False), (2, False)]

    def test_empty_trace(self):
        trace = Trace.from_records([])
        assert len(trace) == 0 and list(trace) == []
        assert list(trace.requests()) == []


class TestColumnValidation:
    @staticmethod
    def _columns(pages=(1,), runs=(1,), reads=(1,), timestamps=(0.0,)):
        return Trace(array("q", pages), runs, bytearray(reads), timestamps)

    def test_valid_columns(self):
        assert list(self._columns()) == [TraceRecord(1, OP_READ)]

    def test_rejects_negative_page(self):
        with pytest.raises(ValueError, match="page -1"):
            self._columns(pages=(-1,))

    def test_rejects_run_below_one(self):
        with pytest.raises(ValueError, match="run 0"):
            self._columns(runs=(0,))
        with pytest.raises(ValueError, match="runs"):
            self._columns(runs=(-2,))

    def test_rejects_bad_op(self):
        with pytest.raises(ValueError, match="op flag 2"):
            self._columns(reads=(2,))

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="differ in length"):
            self._columns(timestamps=(0.0, 1.0))

    def test_from_records_rejects_bad_op(self):
        class Row:
            page, op, pages, timestamp = 0, "x", 1, 0.0

        with pytest.raises(ValueError, match="bad op 'x'"):
            Trace.from_records([Row()])


def test_generated_trace_memory_per_record():
    """The columns hold about 21 B a record (8 + 4 + 1 + 8); a list of
    ``TraceRecord`` dataclasses held about 168 B."""
    records = 50_000
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = build_workload("specweb99", records,
                               footprint_pages=131_072)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(trace) == records
    assert retained / records < 32


# -- list vs Trace through every engine ----------------------------------------

def _plain(value):
    if isinstance(value, LatencyHistogram):
        return value.__getstate__()
    if isinstance(value, TimeSeries):
        return value.as_dict()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def _report_text(report) -> str:
    return json.dumps(asdict(report), sort_keys=True, default=_plain)


def _system():
    return build_flash_system(dram_bytes=64 << 10, flash_bytes=2 << 20)


def _serial(records, telemetry: bool) -> str:
    return _report_text(run_trace(
        _system(), records,
        telemetry=Telemetry(sample_interval=16) if telemetry else None))


def _concurrent(records) -> str:
    return _report_text(run_trace_concurrent(
        _system(), records, queue_depth=4, channels=2, planes=2))


def _record_by_record(records) -> str:
    """The reference: the single-record API, one call per record."""
    system = _system()
    for record in records:
        system.process(record)
    return _report_text(summarise_system(system))


_RECORD_LISTS = st.lists(
    st.builds(TraceRecord,
              page=st.integers(min_value=0, max_value=3000),
              op=st.sampled_from([OP_READ, OP_WRITE]),
              pages=st.integers(min_value=1, max_value=4),
              timestamp=st.floats(min_value=0.0, max_value=10.0)),
    min_size=1, max_size=250)


@settings(max_examples=25, deadline=None)
@given(records=_RECORD_LISTS)
def test_list_and_trace_report_the_same(records):
    trace = Trace.from_records(records)
    plain = _serial(trace, telemetry=False)
    assert _serial(records, telemetry=False) == plain
    assert _record_by_record(records) == plain
    assert _serial(records, telemetry=True) == _serial(trace,
                                                       telemetry=True)
    assert _concurrent(records) == _concurrent(trace)

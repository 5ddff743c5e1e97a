"""Workload substrate tests: generators, SPC format, post-PDC filtering."""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.macro import (
    ALL_WORKLOAD_NAMES,
    MACRO_WORKLOADS,
    build_workload,
    workload_footprint_pages,
)
from repro.workloads.postpdc import derive_disk_trace
from repro.workloads.synthetic import (
    ExponentialPopularity,
    SyntheticConfig,
    UniformPopularity,
    ZipfPopularity,
    exponential_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads.trace import (
    OP_READ,
    OP_WRITE,
    PAGE_BYTES,
    TraceRecord,
    read_spc,
    spc_roundtrip,
    summarize,
    write_spc,
)


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(page=0, op="x")
        with pytest.raises(ValueError):
            TraceRecord(page=-1, op=OP_READ)
        with pytest.raises(ValueError):
            TraceRecord(page=0, op=OP_READ, pages=0)

    def test_expand(self):
        record = TraceRecord(page=10, op=OP_WRITE, pages=3)
        assert list(record.expand()) == [10, 11, 12]
        assert not record.is_read

    def test_summarize(self):
        records = [
            TraceRecord(0, OP_READ, pages=2),
            TraceRecord(1, OP_WRITE),
            TraceRecord(0, OP_READ),
        ]
        stats = summarize(records)
        assert stats.records == 3
        assert stats.reads == 2 and stats.writes == 1
        assert stats.pages_read == 3 and stats.pages_written == 1
        assert stats.footprint_pages == 2
        assert stats.read_fraction == pytest.approx(2 / 3)
        assert stats.footprint_bytes == 2 * PAGE_BYTES


class TestSpcFormat:
    def test_parses_umass_style_line(self):
        stream = io.StringIO("0,1024,4096,r,0.125\n1,8,512,W,1.5\n")
        records = list(read_spc(stream))
        # 1024 sectors / 4 per page = page 256; 4096 bytes = 2 pages.
        assert records[0] == TraceRecord(page=256, op=OP_READ, pages=2,
                                         timestamp=0.125)
        assert records[1].op == OP_WRITE and records[1].page == 2

    def test_skips_comments_and_blanks(self):
        stream = io.StringIO("# header\n\n0,0,2048,r,0.0\n")
        assert len(list(read_spc(stream))) == 1

    def test_malformed_lines_raise_with_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            list(read_spc(io.StringIO("not,enough\n")))
        with pytest.raises(ValueError, match="bad opcode"):
            list(read_spc(io.StringIO("0,0,2048,q,0.0\n")))

    def test_limit(self):
        stream = io.StringIO("0,0,2048,r,0\n" * 10)
        assert len(list(read_spc(stream, limit=3))) == 3

    def test_limit_zero_reads_nothing(self):
        # The limit is checked before a line is parsed, so not even a
        # malformed first line is reached.
        assert len(read_spc(io.StringIO("0,0,2048,r,0\n" * 4), limit=0)) == 0
        assert len(read_spc(io.StringIO("garbage\n"), limit=0)) == 0

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            read_spc(io.StringIO("0,0,2048,r,0\n"), limit=-1)

    def test_negative_lba_raises_with_line_number(self):
        with pytest.raises(ValueError, match="line 2: negative LBA"):
            read_spc(io.StringIO("0,0,2048,r,0\n0,-8,2048,r,0\n"))

    @settings(max_examples=30, deadline=None)
    @given(records=st.lists(
        st.builds(TraceRecord,
                  page=st.integers(min_value=0, max_value=1 << 20),
                  op=st.sampled_from([OP_READ, OP_WRITE]),
                  pages=st.integers(min_value=1, max_value=16)),
        min_size=0, max_size=30))
    def test_property_roundtrip(self, records):
        parsed = spc_roundtrip(records)
        assert [(r.page, r.op, r.pages) for r in parsed] \
            == [(r.page, r.op, r.pages) for r in records]


class TestPopularityDistributions:
    def test_uniform_probabilities(self):
        dist = UniformPopularity(100)
        assert dist.rank_probability(0) == pytest.approx(0.01)
        assert dist.sample_rank(0.999) == 99

    def test_zipf_skew_ordering(self):
        dist = ZipfPopularity(1000, alpha=1.2)
        assert dist.rank_probability(0) > dist.rank_probability(10) \
            > dist.rank_probability(100)

    def test_zipf_probabilities_sum_to_one(self):
        dist = ZipfPopularity(500, alpha=0.8)
        total = sum(dist.rank_probability(rank) for rank in range(500))
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_exponential_probabilities_sum_to_one(self):
        dist = ExponentialPopularity(300, lam=0.05)
        total = sum(dist.rank_probability(rank) for rank in range(300))
        assert total == pytest.approx(1.0, rel=1e-9)

    @given(u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_property_sample_rank_in_range(self, u):
        for dist in (UniformPopularity(64), ZipfPopularity(64, 1.0),
                     ExponentialPopularity(64, 0.1)):
            assert 0 <= dist.sample_rank(u) < 64

    def test_higher_alpha_concentrates_mass(self):
        mild = ZipfPopularity(1000, alpha=0.8)
        steep = ZipfPopularity(1000, alpha=1.6)
        mild_top = sum(mild.rank_probability(r) for r in range(10))
        steep_top = sum(steep.rank_probability(r) for r in range(10))
        assert steep_top > mild_top


class TestMicroGenerators:
    CONFIG = SyntheticConfig(footprint_pages=4096, num_records=5000, seed=2)

    def test_deterministic(self):
        assert zipf_trace(1.2, self.CONFIG) == zipf_trace(1.2, self.CONFIG)

    def test_read_fraction_respected(self):
        records = uniform_trace(self.CONFIG)
        stats = summarize(records)
        assert stats.read_fraction == pytest.approx(0.9, abs=0.03)

    def test_footprint_bounded(self):
        for records in (uniform_trace(self.CONFIG),
                        zipf_trace(1.6, self.CONFIG),
                        exponential_trace(0.1, self.CONFIG)):
            assert all(0 <= r.page < 4096 for r in records)

    def test_zipf_reuses_hot_pages_more_than_uniform(self):
        zipf_stats = summarize(zipf_trace(1.6, self.CONFIG))
        uniform_stats = summarize(uniform_trace(self.CONFIG))
        assert zipf_stats.footprint_pages < uniform_stats.footprint_pages


class TestMacroRegistry:
    def test_all_names_resolve(self):
        for name in ALL_WORKLOAD_NAMES:
            records = build_workload(name, num_records=200,
                                     footprint_pages=2048)
            assert len(records) == 200
            assert workload_footprint_pages(name) > 0

    @pytest.mark.parametrize("name", ["specweb99", "alpha2"],
                             ids=["macro", "micro"])
    @pytest.mark.parametrize("footprint", [0, -5])
    def test_footprint_below_one_page_rejected(self, name, footprint):
        # 0 used to fall through to the natural 1.8 GB / 512 MB footprint.
        with pytest.raises(ValueError, match="footprint"):
            build_workload(name, num_records=10, footprint_pages=footprint)

    def test_footprint_override_of_one_page(self):
        for name in ("specweb99", "alpha2"):
            records = build_workload(name, num_records=50,
                                     footprint_pages=1)
            assert {record.page for record in records} == {0}

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_workload("nosuch", num_records=1)
        with pytest.raises(KeyError):
            workload_footprint_pages("nosuch")

    def test_published_footprints(self):
        assert MACRO_WORKLOADS["financial2"].footprint_bytes == pytest.approx(
            443.8 * (1 << 20), rel=1e-6)
        assert MACRO_WORKLOADS["websearch1"].footprint_bytes == pytest.approx(
            5116.7 * (1 << 20), rel=1e-6)

    def test_read_mixes(self):
        for name, low, high in [("specweb99", 0.97, 1.0),
                                ("dbt2", 0.55, 0.75),
                                ("financial1", 0.1, 0.4)]:
            stats = summarize(build_workload(name, num_records=4000,
                                             footprint_pages=4096))
            assert low <= stats.read_fraction <= high, name

    def test_dbt2_has_sequential_log_writes(self):
        records = build_workload("dbt2", num_records=5000,
                                 footprint_pages=4096, seed=8)
        log_region_start = 4096 - 4096 // 20
        log_writes = [r for r in records
                      if not r.is_read and r.page >= log_region_start]
        assert len(log_writes) > 50


class TestPostPdcFilter:
    def test_disk_trace_smaller_than_application_trace(self):
        raw = build_workload("specweb99", num_records=5000,
                             footprint_pages=2048, seed=5)
        disk = derive_disk_trace(raw, pdc_pages=512)
        assert 0 < len(disk) < len(raw)

    def test_hot_reads_absorbed(self):
        """A single hot page read repeatedly reaches the disk only once."""
        raw = [TraceRecord(7, OP_READ) for _ in range(100)]
        disk = derive_disk_trace(raw, pdc_pages=8)
        assert len(disk) == 1

    def test_dirty_writebacks_emerge(self):
        raw = [TraceRecord(page, OP_WRITE) for page in range(10)]
        disk = derive_disk_trace(raw, pdc_pages=4, flush_tail=True)
        writes = [r for r in disk if not r.is_read]
        assert sorted(r.page for r in writes) == list(range(10))

    def test_flush_tail_optional(self):
        raw = [TraceRecord(page, OP_WRITE) for page in range(3)]
        assert derive_disk_trace(raw, pdc_pages=8, flush_tail=False) == []

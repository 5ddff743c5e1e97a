"""CLI (`python -m repro`) and report-generator tests."""

from __future__ import annotations

import hashlib
import io
import re

import pytest

from repro.__main__ import main
from repro.experiments.report import ReportScale, generate_report
from repro.workloads.macro import build_workload
from repro.workloads.trace import write_spc


class TestCli:
    def test_experiments_lists_runners(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        for name in ("fig1b", "fig4", "fig12"):
            assert name in output

    def test_figure_command_prints_series(self, capsys):
        assert main(["fig6"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6(a)" in output
        assert "Figure 6(b)" in output

    def test_profile_command(self, tmp_path, capsys):
        records = build_workload("alpha2", num_records=2000,
                                 footprint_pages=2048, seed=5)
        path = tmp_path / "trace.spc"
        with open(path, "w") as stream:
            write_spc(records, stream)
        assert main(["profile", str(path), "--limit", "1500"]) == 0
        output = capsys.readouterr().out
        assert "records" in output and "tail" in output

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


REPORT_DIGEST = \
    "117c37fb54d6702109c05d1e0331971020a869e604cc700a20bc8ef9a25d64ba"


class TestReport:
    def test_section_selection_and_structure(self):
        report = generate_report(scale=ReportScale.quick(),
                                 sections=["fig6"])
        assert report.startswith("# repro evaluation report")
        assert "Figure 6" in report
        assert "Figure 12" not in report

    def test_unknown_section_rejected(self):
        with pytest.raises(KeyError):
            generate_report(sections=["fig99"])

    def test_aging_sections_run_quick(self):
        report = generate_report(scale=ReportScale.quick(),
                                 sections=["fig11", "fig12"])
        assert "average improvement" in report
        assert "| uniform |" in report

    def test_report_golden(self):
        """The rendered report at a tiny scale, wall-clock footnotes
        replaced by a fixed token."""
        report = generate_report(ReportScale(
            scale_divisor=512, trace_records=3000,
            aging_blocks=4, aging_frames=2))
        stable = re.sub(r"_\(\d+\.\d+s\)_", "_(T)_", report)
        assert hashlib.sha256(stable.encode()).hexdigest() == REPORT_DIGEST

    def test_scales(self):
        assert ReportScale.quick().trace_records \
            < ReportScale().trace_records \
            < ReportScale.full().trace_records

"""CLI tests for trace replay: ``repro run`` (exit codes, fault and
telemetry flag plumbing) and ``repro stats``."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.workloads.macro import build_workload
from repro.workloads.trace import write_spc


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    records = build_workload("dbt2", num_records=3000,
                             footprint_pages=2048, seed=5)
    path = tmp_path_factory.mktemp("traces") / "trace.spc"
    with open(path, "w") as stream:
        write_spc(records, stream)
    return str(path)


class TestRunCommand:
    def test_plain_run_exit_code_and_output(self, trace_path, capsys):
        assert main(["run", trace_path, "--dram-mb", "1",
                     "--flash-mb", "4"]) == 0
        output = capsys.readouterr().out
        assert "requests:" in output
        assert "flash miss rate:" in output
        # Without --fault-rate the fault section must not print.
        assert "injected faults:" not in output
        # Without --telemetry-out no percentile lines print.
        assert "read latency us:" not in output

    def test_missing_trace_file_raises(self):
        with pytest.raises(FileNotFoundError):
            main(["run", "/nonexistent/trace.spc"])

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["profile", "run", "stats"])
    @pytest.mark.parametrize("limit", ["-1", "many"])
    def test_bad_limit_is_a_usage_error(self, trace_path, capsys, command,
                                        limit):
        with pytest.raises(SystemExit) as excinfo:
            main([command, trace_path, "--limit", limit])
        assert excinfo.value.code == 2
        assert "argument --limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "stats"])
    @pytest.mark.parametrize("flag,value", [
        ("--dram-mb", "0"), ("--flash-mb", "0"), ("--flash-mb", "-5"),
        ("--dram-mb", "x"),
        ("--fault-rate", "2"), ("--fault-rate", "-1"),
        ("--fault-rate", "nan"),
        ("--reliability-rate", "-1"), ("--reliability-rate", "2"),
        ("--scrub-interval", "-5"), ("--scrub-interval", "inf"),
        ("--queue-depth", "0"), ("--channels", "0"), ("--planes", "-1"),
    ])
    def test_bad_numeric_flag_is_a_usage_error(self, trace_path, capsys,
                                               command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, trace_path, flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"repro {command}: error: argument {flag}:")

    @pytest.mark.parametrize("argv", [
        ["run", "--telemetry-interval", "0"],
        ["stats", "--interval", "0"],
    ])
    def test_zero_sample_interval_is_a_usage_error(self, trace_path, capsys,
                                                   argv):
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], trace_path, *argv[1:]])
        assert excinfo.value.code == 2
        assert f"argument {argv[1]}: must be positive, got 0" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "run", "stats"])
    @pytest.mark.parametrize("source", ["empty file", "limit 0"])
    def test_empty_trace_is_a_usage_error(self, trace_path, tmp_path,
                                          capsys, command, source):
        if source == "empty file":
            path = tmp_path / "empty.spc"
            path.write_text("")
            argv = [command, str(path)]
        else:
            argv = [command, trace_path, "--limit", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {argv[1]}: trace has no records"]

    def test_fault_flags_reach_the_injector(self, trace_path, capsys):
        assert main(["run", trace_path, "--dram-mb", "1", "--flash-mb", "4",
                     "--fault-rate", "0.2", "--fault-seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "injected faults:" in output
        injected = int(output.split("injected faults:")[1].split()[0])
        assert injected > 0

    def test_fault_seed_changes_injection_stream(self, trace_path, capsys):
        def injected_with_seed(seed: str) -> int:
            main(["run", trace_path, "--dram-mb", "1", "--flash-mb", "4",
                  "--fault-rate", "0.1", "--fault-seed", seed])
            out = capsys.readouterr().out
            return int(out.split("injected faults:")[1].split()[0])

        # Same seed reproduces exactly; the counters are deterministic.
        assert injected_with_seed("7") == injected_with_seed("7")

    def test_telemetry_out_writes_json_with_series(self, trace_path,
                                                   tmp_path, capsys):
        out_path = tmp_path / "telemetry.json"
        assert main(["run", trace_path, "--dram-mb", "1", "--flash-mb", "4",
                     "--telemetry-out", str(out_path),
                     "--telemetry-interval", "500"]) == 0
        output = capsys.readouterr().out
        assert "read latency us:" in output
        assert "write latency us:" in output
        doc = json.loads(out_path.read_text())
        assert len(doc["series"]) >= 1
        assert "flash_miss_rate" in doc["series"]
        series = doc["series"]["flash_miss_rate"]
        assert len(series["x"]) == len(series["y"]) >= 1
        assert doc["histograms"]["request.read_latency_us"]["count"] > 0

    def test_telemetry_does_not_change_printed_results(self, trace_path,
                                                       tmp_path, capsys):
        base_args = ["run", trace_path, "--dram-mb", "1", "--flash-mb", "4"]
        assert main(base_args) == 0
        plain = capsys.readouterr().out
        out_path = tmp_path / "telemetry.json"
        assert main(base_args + ["--telemetry-out", str(out_path)]) == 0
        instrumented = capsys.readouterr().out
        # Every line of the plain report reappears verbatim — telemetry
        # only appends, never perturbs.
        for line in plain.strip().splitlines():
            assert line in instrumented


class TestStatsCommand:
    def test_prints_percentiles_counters_series(self, trace_path, capsys):
        assert main(["stats", trace_path, "--dram-mb", "1",
                     "--flash-mb", "4", "--interval", "500"]) == 0
        output = capsys.readouterr().out
        assert "read latency us:" in output
        assert "histograms" in output
        assert "counters" in output
        assert "time-series (last sample)" in output
        assert "flash_miss_rate" in output

    def test_json_and_csv_exports(self, trace_path, tmp_path, capsys):
        json_path = tmp_path / "stats.json"
        csv_path = tmp_path / "stats.csv"
        assert main(["stats", trace_path, "--dram-mb", "1",
                     "--flash-mb", "4", "--interval", "500",
                     "--json", str(json_path),
                     "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        doc = json.loads(json_path.read_text())
        assert doc["version"] == 1
        assert len(doc["series"]) >= 1
        content = csv_path.read_text()
        assert content.startswith("series,x,y")
        assert "histogram,upper_edge_us,count" in content

    def test_fault_flags_accepted(self, trace_path, capsys):
        assert main(["stats", trace_path, "--dram-mb", "1",
                     "--flash-mb", "4", "--fault-rate", "0.1",
                     "--fault-seed", "3", "--limit", "1000"]) == 0
        assert "requests:        1000" in capsys.readouterr().out


class TestFaultsCommand:
    def test_telemetry_out_flag(self, tmp_path, capsys):
        out_path = tmp_path / "faults.json"
        assert main(["faults", "--telemetry-out", str(out_path)]) == 0
        output = capsys.readouterr().out
        assert "Degradation timeline" in output
        doc = json.loads(out_path.read_text())
        assert "live_capacity" in doc["series"]
        assert "flash_miss_rate" in doc["series"]

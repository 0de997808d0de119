"""Tests for the python -m repro command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_fig7_runs_and_reports_success(self, capsys):
        status = main(["--iterations", "2", "fig7"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Append-delete" in out
        assert "claims reproduced" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_seed_flag_changes_nothing_structural(self, capsys):
        status = main(["--iterations", "2", "--seed", "5", "fig7"])
        assert status == 0
        assert "Directory lookup" in capsys.readouterr().out


class TestChaosCli:
    def test_list_scenarios(self, capsys):
        status = main(["--list-scenarios", "chaos"])
        out = capsys.readouterr().out
        assert status == 0
        assert "sequencer_crash" in out
        assert "majority_lost" in out
        assert "[not in rotation]" in out  # out-of-rotation scenarios flagged
        assert "NEGATIVE" in out  # controls say so in their descriptions

    def test_single_seed_smoke_run_passes(self, capsys):
        status = main(
            ["--seeds", "1", "--smoke", "--scenario", "delay_spikes", "chaos"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "1/1 scenario runs passed" in out
        assert "all invariants held" in out

    def test_json_output_is_machine_readable(self, capsys):
        import json

        status = main(
            [
                "--seeds", "1", "--smoke", "--scenario", "delay_spikes",
                "--json", "chaos",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        doc = json.loads(out)
        assert doc["passed"] == doc["total"] == 1
        (verdict,) = doc["verdicts"]
        assert verdict["scenario"] == "delay_spikes"
        assert verdict["status"] == "consistent"
        assert verdict["trace_events"] > 0


class TestTraceCli:
    def test_update_scenario_breakdown_and_exports(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "traces"
        status = main(
            ["--iterations", "2", "trace", "update", "--out", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "sequencer" in out and "disk" in out
        assert "OK: the phase sums equal the untraced Fig. 7 latency." in out
        chrome = json.loads((out_dir / "update-seed0.trace.json").read_text())
        assert chrome["traceEvents"]
        jsonl = (out_dir / "update-seed0.jsonl").read_text().splitlines()
        assert jsonl and json.loads(jsonl[0])

    def test_single_format_flag(self, capsys, tmp_path):
        out_dir = tmp_path / "traces"
        status = main(
            [
                "--iterations", "2", "trace", "lookup",
                "--format", "text", "--out", str(out_dir),
            ]
        )
        assert status == 0
        assert (out_dir / "lookup-seed0.txt").exists()
        assert not (out_dir / "lookup-seed0.jsonl").exists()

    def test_unknown_scenario_rejected(self, capsys, tmp_path):
        status = main(["trace", "bogus", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert status == 2
        assert "unknown trace scenario" in out


class TestCapacityCli:
    def test_point_report_and_counter_trace(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)  # no BENCH_headline.json here: fine
        out_dir = tmp_path / "traces"
        status = main(
            [
                "--smoke", "capacity", "update",
                "--writers", "2", "--out", str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "resource" in out and "rho" in out
        assert "predicted ceiling" in out
        chrome = json.loads(
            (out_dir / "capacity-update-seed0.trace.json").read_text()
        )
        counters = [
            e for e in chrome["traceEvents"] if e.get("ph") == "C"
        ]
        assert counters, "no utilization counter tracks in the trace"

    def test_json_report_is_machine_readable_and_self_checked(self, capsys):
        import json

        status = main(
            ["--smoke", "--json", "capacity", "update", "--writers", "2"]
        )
        out = capsys.readouterr().out
        assert status == 0
        doc = json.loads(out)
        assert doc["scenario"] == "update"
        assert doc["resources"]
        assert doc["top_resource"] == doc["resources"][0]["resource"]
        for row in doc["resources"]:
            if row["little_residual"] is not None:
                assert row["little_residual"] < 0.10, row

    def test_unknown_capacity_scenario_rejected(self, capsys):
        status = main(["capacity", "bogus"])
        out = capsys.readouterr().out
        assert status == 2
        assert "unknown capacity scenario" in out

    def test_perf_scale_still_validates(self, capsys):
        status = main(["perf", "lookup", "--scale", "galactic"])
        out = capsys.readouterr().out
        assert status == 2
        assert "unknown perf scale" in out

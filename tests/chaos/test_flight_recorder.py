"""The chaos runner's flight recorder: every verdict carries the ring
buffer's tail, and failing seeds leave a JSONL dump on disk."""

import dataclasses
import json

import repro.chaos.runner as runner
from repro.chaos import (
    FLIGHT_RECORDER_CAPACITY,
    dump_flight_recorder,
    run_scenario,
    run_suite,
    scenario_by_name,
)


INJECTED = "injected: pretend a key is not linearizable"


def force_failure(monkeypatch):
    """Make every run a violation by injecting a linearizability one."""
    real = runner.check_cluster

    def broken(*args, **kwargs):
        report = real(*args, **kwargs)
        report.linearizability_violations.append(INJECTED)
        return report

    monkeypatch.setattr(runner, "check_cluster", broken)


def assert_injected(verdict):
    assert verdict.status == "violation" and not verdict.ok, verdict.problems
    assert INJECTED in verdict.problems


class TestVerdictCarriesTrace:
    def test_passing_run_still_records_events(self, smoke_verdict):
        verdict = smoke_verdict("delay_spikes", 0)
        assert verdict.ok
        assert len(verdict.trace_events) == FLIGHT_RECORDER_CAPACITY
        assert verdict.trace_path is None  # nothing dumped for a pass

    def test_an_error_verdict_keeps_only_the_tail(self, monkeypatch):
        # The run records into a ring of TRACE_RING_CAPACITY events; a
        # verdict, an error one too, keeps the flight recorder's tail.
        def crash(*args, **kwargs):
            raise RuntimeError("checker died")

        monkeypatch.setattr(runner, "check_cluster", crash)
        short = dataclasses.replace(
            scenario_by_name("fault_free_control"), window_ms=5_000.0
        )
        verdict = run_scenario(short, 0, smoke=True)
        assert verdict.status == "error"
        assert verdict.problems == ["RuntimeError: checker died"]
        assert len(verdict.trace_events) == FLIGHT_RECORDER_CAPACITY

    def test_as_dict_is_json_serializable(self, smoke_verdict):
        verdict = smoke_verdict("delay_spikes", 0)
        payload = json.dumps(verdict.as_dict(), sort_keys=True)
        decoded = json.loads(payload)
        assert decoded["scenario"] == "delay_spikes"
        assert decoded["trace_events"] == len(verdict.trace_events)
        assert decoded["invariants"]["replicas_equal"] is True


class TestFailureDump:
    def test_failing_seed_leaves_a_dump(self, monkeypatch, tmp_path):
        force_failure(monkeypatch)
        trace_dir = tmp_path / "flight"
        verdicts = run_suite(
            1, smoke=True, only="delay_spikes", trace_dir=str(trace_dir)
        )
        (verdict,) = verdicts
        assert_injected(verdict)
        assert verdict.trace_path is not None
        dump = trace_dir / "delay_spikes-seed0.jsonl"
        assert str(dump) == verdict.trace_path
        lines = dump.read_text().splitlines()
        assert lines and len(lines) == len(verdict.trace_events)
        event = json.loads(lines[-1])
        assert {"ts", "node", "cat", "name"} <= set(event)

    def test_trace_dir_none_disables_dumping(self, monkeypatch, tmp_path):
        force_failure(monkeypatch)
        verdicts = run_suite(1, smoke=True, only="delay_spikes", trace_dir=None)
        assert_injected(verdicts[0])
        assert verdicts[0].trace_path is None

    def test_dump_flight_recorder_noop_without_events(self, tmp_path):
        verdict = runner.ScenarioVerdict(
            scenario="x", seed=0, status="error", ok=False,
            expected_available=True,
        )
        assert dump_flight_recorder(verdict, str(tmp_path)) is None

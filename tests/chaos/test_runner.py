"""Scenario-runner tests: registry sanity, determinism, one live run."""

import pytest

from repro.chaos import (
    SCENARIOS,
    format_verdicts,
    run_scenario,
    scenario_by_name,
)
from repro.chaos.runner import rotation


class TestRegistry:
    def test_scenario_names_unique(self):
        assert all(name == s.name for name, s in SCENARIOS.items())

    def test_lookup_by_name(self):
        assert scenario_by_name("sequencer_crash").name == "sequencer_crash"
        with pytest.raises(KeyError):
            scenario_by_name("ghost")

    def test_negative_scenarios_out_of_rotation(self):
        rotating = {s.name for s in rotation()}
        assert "majority_lost" not in rotating
        assert "sequencer_crash" in rotating

    def test_issue_mandated_coverage(self):
        # The adversarial conditions the harness must exercise.
        names = set(SCENARIOS)
        assert {
            "sequencer_crash",
            "partition_during_recovery",
            "asymmetric_loss",
            "duplication",
            "reordering",
            "multicast_loss",
            "majority_lost",
        } <= names


class TestDeterminism:
    """Same seed + same scenario ⇒ byte-identical outcomes."""

    @pytest.mark.parametrize("name", ["sequencer_crash", "duplication"])
    def test_two_runs_identical(self, name):
        scenario = scenario_by_name(name)
        first = run_scenario(scenario, seed=3, smoke=True)
        second = run_scenario(scenario, seed=3, smoke=True)
        assert first.status == second.status
        assert first.fault_log == second.fault_log
        assert first.net_stats == second.net_stats
        assert first.fingerprints == second.fingerprints
        assert first.simulated_ms == second.simulated_ms

    def test_different_seeds_diverge(self):
        scenario = scenario_by_name("sequencer_crash")
        a = run_scenario(scenario, seed=3, smoke=True)
        b = run_scenario(scenario, seed=4, smoke=True)
        # Both consistent, but the runs themselves differ.
        assert a.ok and b.ok
        assert a.fault_log != b.fault_log or a.net_stats != b.net_stats


class TestLiveRun:
    def test_grand_tour_smoke_holds_invariants(self):
        verdict = run_scenario(scenario_by_name("grand_tour"), seed=1, smoke=True)
        assert verdict.ok, verdict.problems
        assert verdict.status == "consistent"
        assert verdict.report is not None and verdict.report.replicas_equal
        assert verdict.fingerprints and len(set(verdict.fingerprints)) == 1

    def test_rpc_scenario_runs(self):
        verdict = run_scenario(
            scenario_by_name("rpc_dup_reorder"), seed=1, smoke=True
        )
        assert verdict.ok, verdict.problems


class TestFormatting:
    def test_format_verdicts_table(self):
        verdict = run_scenario(
            scenario_by_name("delay_spikes"), seed=2, smoke=True
        )
        table = format_verdicts([verdict])
        assert "delay_spikes" in table
        assert "1/1 scenario runs passed" in table

"""Scenario-runner tests: registry sanity, determinism, one live run."""

import dataclasses

import pytest

from repro.chaos import (
    SCENARIOS,
    format_verdicts,
    nemesis,
    run_scenario,
    scenario_by_name,
)
from repro.chaos.runner import rotation
from repro.faults.plan import FaultPlan
from repro.verify import HistoryRecorder


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
    def test_two_runs_identical(self, name, smoke_verdict):
        first = smoke_verdict.fresh(name, 3)
        second = smoke_verdict.fresh(name, 3)
        assert first.status == second.status
        assert first.fault_log == second.fault_log
        assert first.net_stats == second.net_stats
        assert first.fingerprints == second.fingerprints
        assert first.simulated_ms == second.simulated_ms

    def test_different_seeds_diverge(self, smoke_verdict):
        a = smoke_verdict("sequencer_crash", 3)
        b = smoke_verdict("sequencer_crash", 4)
        # Both consistent, but the runs themselves differ.
        assert a.ok and b.ok
        assert a.fault_log != b.fault_log or a.net_stats != b.net_stats


class TestLiveRun:
    def test_grand_tour_smoke_holds_invariants(self, smoke_verdict):
        verdict = smoke_verdict("grand_tour", 1)
        assert verdict.ok, verdict.problems
        assert verdict.status == "consistent"
        assert verdict.report is not None and verdict.report.replicas_equal
        assert verdict.fingerprints and len(set(verdict.fingerprints)) == 1

    def test_rpc_scenario_runs(self, smoke_verdict):
        verdict = smoke_verdict("rpc_dup_reorder", 1)
        assert verdict.ok, verdict.problems
        # The RPC pair orders only a client's own operations, so each
        # of its clients works on names of its own.
        assert {e.key[1].split("-")[0] for e in verdict.history_events} == {"c0", "c1"}


class TestFormatting:
    def test_format_verdicts_table(self, smoke_verdict):
        verdict = smoke_verdict("delay_spikes", 2)
        table = format_verdicts([verdict])
        assert "delay_spikes" in table
        assert "1/1 scenario runs passed" in table
        header, row = table.splitlines()[:2]
        ops = row.split()[header.split().index("ops")]
        assert ops == str(len(verdict.history_events))


def _without_alert_contract(build):
    """sequencer_crash's shape (smoke size, same clients and window)
    with another fault schedule and no health-monitor contract."""
    return dataclasses.replace(
        scenario_by_name("sequencer_crash"), build=build, expect_alerts=None
    )


class TestNoRunIsVacuous:
    """A run with faults must have had a client operation in flight
    while they fired: faults that hit idle clients prove nothing."""

    @pytest.mark.parametrize("name", [s.name for s in rotation()])
    def test_clients_are_busy_while_the_faults_fire(self, name, smoke_verdict):
        verdict = smoke_verdict(name, 1)
        assert verdict.ok, verdict.problems
        first, last = verdict.fault_log[0][0], verdict.fault_log[-1][0]
        assert HistoryRecorder(list(verdict.history_events)).overlapping(first, last)

    def test_a_run_without_clients_is_vacuous(self):
        scenario = dataclasses.replace(scenario_by_name("sequencer_crash"), n_clients=0)
        verdict = run_scenario(scenario, 1, smoke=True)
        assert verdict.status == "violation"
        assert verdict.problems == [
            "no client operation overlapped the fault window (vacuous run)"
        ]


class TestEveryRunChecksEveryInvariant:
    """No scenario opts into the durability or the declared-shape
    check: a run that breaks either is a violation whatever its
    scenario says."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_replica_left_down_is_a_violation(self, seed):
        scenario = _without_alert_contract(
            lambda cluster, rng, start, window: FaultPlan().crash(start + 1_000, 1)
        )
        verdict = run_scenario(scenario, seed, smoke=True)
        assert verdict.status == "violation" and not verdict.ok
        assert "only 2/3 declared replicas are operational" in verdict.problems

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_lost_commit_block_write_is_a_violation(self, seed):
        def build(cluster, rng, start, window):
            plan = nemesis.sequencer_crash(cluster, rng, start, window)
            for site in range(len(cluster.sites)):
                plan.lost_writes(start, site, 1)
            return plan

        verdict = run_scenario(_without_alert_contract(build), seed, smoke=True)
        assert verdict.status == "violation" and not verdict.ok
        assert any("admin block 0" in p for p in verdict.problems), verdict.problems

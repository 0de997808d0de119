"""Unit tests for the nemesis scenario builders."""

import random

import pytest

from repro.chaos import SCENARIOS, nemesis, run_suite
from repro.chaos.nemesis import sequencer_index
from repro.cluster import GroupServiceCluster


def operational_cluster(seed=1):
    cluster = GroupServiceCluster(seed=seed)
    cluster.start()
    cluster.wait_operational()
    return cluster


# majority_lost is unrecoverable on purpose; rolling_faults leaves the
# world broken for the remediation controller to repair. bitrot_gauntlet
# crashes by intervention and leaves the restarts to the controller too,
# but its static events repair what they break.
RECOVERABLE = [
    "sequencer_crash",
    "partition_during_recovery",
    "crash_during_restart",
    "flapping_links",
    "random_soak",
    "bitrot_gauntlet",
]


class TestRegistry:
    def test_expected_scenarios_registered(self):
        for name in (*RECOVERABLE, "majority_lost", "rolling_faults"):
            assert SCENARIOS[name].build is getattr(nemesis, name)

    def test_every_fault_builder_lives_here(self):
        # One home: each scenario names a builder of this module, the
        # link-fault ones included (the fault-free control builds nothing).
        for name, scenario in SCENARIOS.items():
            if name != "fault_free_control":
                assert scenario.build.__module__ == nemesis.__name__, name

    def test_unknown_nemesis_raises(self):
        # A scenario names its builder, so the one lookup by name left
        # is the scenario's own.
        with pytest.raises(KeyError):
            run_suite(1, only="ghost")


class TestSequencerIndexProbe:
    def test_finds_the_live_sequencer(self):
        cluster = operational_cluster()
        index = sequencer_index(cluster)
        assert index is not None
        assert cluster.servers[index].member.is_sequencer

    def test_falls_back_when_no_sequencer_claims_the_role(self):
        cluster = operational_cluster()
        victim = sequencer_index(cluster)
        cluster.crash_server(victim)
        fallback = sequencer_index(cluster)
        assert fallback is not None and fallback != victim

    def test_none_when_everything_is_down(self):
        cluster = operational_cluster()
        for index in range(len(cluster.servers)):
            cluster.crash_server(index)
        assert sequencer_index(cluster) is None


class TestRecoverableBuilders:
    @pytest.mark.parametrize("name", RECOVERABLE)
    def test_plans_fit_the_window_and_repair_the_world(self, name):
        cluster = operational_cluster()
        start = cluster.sim.now + 1_000.0
        window = 30_000.0
        plan = getattr(nemesis, name)(cluster, random.Random(3), start, window)
        assert plan.events, name
        assert all(e.at_ms >= start for e in plan.events), name
        # Static events must leave the world repaired; interventions
        # are checked live by the chaos suite (they pair crash/restart
        # via closures, invisible to static replay).
        down, partitioned = set(), False
        for event in sorted(plan.events, key=lambda e: e.at_ms):
            assert event.at_ms <= start + window, name
            if event.kind == "crash":
                down.add(event.target)
            elif event.kind == "restart":
                down.discard(event.target)
            elif event.kind == "partition":
                partitioned = True
            elif event.kind == "heal":
                partitioned = False
        assert down == set(), name
        assert not partitioned, name

    def test_sequencer_crash_pairs_interventions(self):
        cluster = operational_cluster()
        start = cluster.sim.now + 1_000.0
        plan = nemesis.sequencer_crash(
            cluster, random.Random(1), start, 30_000.0
        )
        kinds = [
            e.target for e in plan.events if e.kind == "intervene"
        ]
        assert kinds.count("crash sequencer") == kinds.count("restart sequencer")
        assert kinds.count("crash sequencer") >= 1


class TestRollingFaults:
    def test_crash_left_down_but_link_policies_lift(self):
        cluster = operational_cluster()
        start = cluster.sim.now + 1_000.0
        window = 30_000.0
        plan = nemesis.rolling_faults(
            cluster, random.Random(4), start, window
        )
        assert all(
            start <= e.at_ms <= start + window for e in plan.events
        )
        crashes = [e for e in plan.events if e.kind == "crash"]
        restarts = [e for e in plan.events if e.kind == "restart"]
        assert len(crashes) == 1 and not restarts  # remediation's job
        # Both lossy phases are bounded: each installed policy is
        # removed again inside the window.
        installs = [e for e in plan.events if e.kind == "install_policy"]
        removes = [e for e in plan.events if e.kind == "remove_policy"]
        assert len(installs) == 2 and len(removes) == 2


class TestMajorityLost:
    def test_crashes_a_majority_and_never_restarts(self):
        cluster = operational_cluster()
        start = cluster.sim.now + 1_000.0
        plan = nemesis.majority_lost(
            cluster, random.Random(2), start, 20_000.0
        )
        crashes = [e for e in plan.events if e.kind == "crash"]
        restarts = [e for e in plan.events if e.kind == "restart"]
        assert len(crashes) > len(cluster.sites) // 2
        assert restarts == []

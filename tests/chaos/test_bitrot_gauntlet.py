"""The storage-corruption gauntlet, end to end.

``bitrot_gauntlet`` throws the whole fault catalogue at an
integrity-checked cluster — torn, lost and misdirected writes, a
mid-flush power cut, bit rot on crashed AND live replicas — and
``check_durability`` demands that no acknowledged byte was ever lost
or silently served corrupt. ``bitrot_integrity_off`` is the
non-vacuity control: the identical gauntlet on the legacy raw layout
must FAIL the check, proving it can actually fire.
"""

import json

import pytest

from repro.chaos.runner import SCENARIOS, run_scenario
from repro.storage.disk import Disk


def scenario(name):
    return SCENARIOS[name]


#: What the gauntlet fires on smoke seed 0: the instants, the armed
#: faults, the rotted block indexes and extent counts. No golden section
#: covers the rot strings or the block draws, so this pins both. The
#: plan schedules no restart: the remediation controller makes both.
SEED_0_FAULT_LOG = [
    (6300.0, "armed torn write at site 1 (keep 1)"),
    (9240.0, "armed crash point at site 2 (power cut after 1 block(s))"),
    (9250.0, "armed 1 lost write(s) at site 2"),
    (9250.0, "armed 1 misdirected write(s) at site 2"),
    (15540.0, "crash server 0 + rot blocks [2050, 2048, 2049] + 2 extent(s), "
              "bullet cache dropped"),
    (21840.0, "live rot at site 1: blocks [3009, 3008], 1 extent(s), "
              "bullet cache dropped"),
]


class TestBitrotGauntlet:
    def test_seed_0_fires_the_recorded_fault_log(self, smoke_verdict):
        assert smoke_verdict("bitrot_gauntlet", 0).fault_log == SEED_0_FAULT_LOG

    @pytest.mark.parametrize("seed", [0, 5])
    def test_the_controller_restarts_both_crashed_replicas(self, smoke_verdict, seed):
        """Phases 2 and 3 crash two replicas and the plan restarts
        neither: the remediation controller restarts each after its
        crash, and those restarts run the recoveries the gauntlet aims
        at (the misfiring admin writes, the quarantine and the donor
        transfer)."""
        d = smoke_verdict("bitrot_gauntlet", seed).as_dict()
        crashed = {}
        for fault in d["fault_log"]:
            words = fault["description"].split()
            if fault["description"].startswith("armed crash point at site"):
                crashed[int(words[5])] = fault["at_ms"]
            elif fault["description"].startswith("crash server"):
                crashed[int(words[2])] = fault["at_ms"]
        assert len(crashed) == 2, d["fault_log"]
        restarts = [a for a in d["remediation_actions"] if a["action"] == "restart"]
        assert sorted(a["server"] for a in restarts) == sorted(crashed)
        for action in restarts:
            assert action["at_ms"] > crashed[action["server"]]

    def test_checksums_and_scrubbing_keep_every_byte_durable(self, smoke_verdict):
        verdict = smoke_verdict("bitrot_gauntlet", 0)
        d = verdict.as_dict()
        assert d["ok"], d["problems"]
        assert d["status"] == "consistent"
        assert d["invariants"]["durability_problems"] == []

    def test_corruption_alert_drives_a_scrub_remediation(self, smoke_verdict):
        """The loop closes: injected damage raises the
        ``storage.corrupt_rate`` alert and the remediation controller
        answers with a scrub-now kick — yet the verdict stays clean."""
        verdict = smoke_verdict("bitrot_gauntlet", 5)
        d = verdict.as_dict()
        assert d["ok"], d["problems"]
        signals = {a["signal"] for a in d["health"]["alerts"]}
        assert "storage.corrupt_rate" in signals, signals
        actions = [a["action"] for a in d["remediation_actions"]]
        assert "scrub" in actions, actions

    def test_same_seed_runs_are_identical_with_scrubbing(self, smoke_verdict):
        """The scrubber and repair traffic ride the simulator clock and
        seeded RNG streams only — same seed, same verdict."""
        a = smoke_verdict.fresh("bitrot_gauntlet", 1)
        b = smoke_verdict.fresh("bitrot_gauntlet", 1)

        def canon(v):
            d = v.as_dict()
            d.pop("host_ms")  # host wallclock, deliberately excluded
            return json.dumps(d, sort_keys=True, default=str)

        assert canon(a) == canon(b)

    def test_every_armed_write_fault_is_consumed(self, monkeypatch):
        """Not clean by vacuity: the lost and the misdirected write are
        armed against a recovering replica's single-block admin writes.
        An install is one batch pass, but the recovering flag and the
        seal around it are still single blocks — both faults must fire
        (as must the torn write and the power cut, on batch passes)."""
        fired = []
        take_armed = Disk._take_armed
        names = {"crash_point": "power cut", "torn_write": "torn",
                 "lost_writes": "lost", "misdirected_writes": "misdirected"}

        def spy(disk, writes, kinds):
            kind, params = take_armed(disk, writes, kinds)
            if kind is not None:
                fired.append(names[kind])
            return kind, params

        monkeypatch.setattr(Disk, "_take_armed", spy)
        verdict = run_scenario(scenario("bitrot_gauntlet"), seed=0, smoke=True)
        assert verdict.as_dict()["ok"]
        assert sorted(fired) == ["lost", "misdirected", "power cut", "torn"]


class TestIntegrityOffControl:
    def test_legacy_layout_provably_violates_durability(self, smoke_verdict):
        verdict = smoke_verdict("bitrot_integrity_off", 0)
        d = verdict.as_dict()
        assert not d["ok"]
        assert d["status"] == "violation"
        problems = d["invariants"]["durability_problems"]
        assert problems, "check_durability must flag the unchecked layout"

    def test_control_stays_out_of_the_default_rotation(self):
        assert scenario("bitrot_integrity_off").in_rotation is False
        assert scenario("bitrot_gauntlet").in_rotation is False  # CI job runs it


class TestVerdictUtilization:
    def test_verdict_carries_the_saturation_rollup(self, smoke_verdict):
        """The saturation observatory's verdict-time rollup: whole-run
        mean utilization per resource kind, sane (0..~1) even with the
        full fault catalogue in play."""
        verdict = smoke_verdict("bitrot_gauntlet", 0)
        util = verdict.as_dict()["utilization"]
        assert set(util) == {"apply", "cpu", "disk", "nvram", "wire"}
        assert all(0.0 <= v <= 1.05 for v in util.values()), util
        assert util["disk"] > 0.0  # the gauntlet hammers the disks


class TestQueueGaugeBalance:
    """Regression (saturation PR audit): the fault paths the gauntlet
    exercises — crashes mid-write, head crashes with queued ops — must
    leave the arm meter's ``disk.arm.queue_depth`` balanced, or the
    capacity attributor inherits a phantom queue for the rest of the
    run."""

    def test_crash_heavy_run_ends_with_empty_disk_queues(self):
        from repro.cluster import GroupServiceCluster

        cluster = GroupServiceCluster(name="qd", seed=23)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        root = cluster.root_capability

        def writes(tag, n):
            for i in range(n):
                try:
                    sub = yield from client.create_dir()
                    yield from client.append_row(root, f"{tag}-{i}", (sub,))
                except Exception:
                    return

        cluster.sim.spawn(writes("pre", 20), "load")
        # Crash a replica while its disk is mid-persist, then a second
        # one a little later: both kills land on in-flight arm holders
        # or queued waiters.
        cluster.run(until=cluster.sim.now + 400.0)
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 300.0)
        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 5_000.0)
        cluster.restart_server(1)
        cluster.restart_server(2)
        cluster.run(until=cluster.sim.now + 20_000.0)  # recover + drain
        registry = cluster.sim.obs.registry
        for site in cluster.sites:
            name = site.disk.name
            assert (
                registry.gauge(name, "disk.arm.queue_depth").value == 0.0
            ), name

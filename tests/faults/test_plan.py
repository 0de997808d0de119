"""Unit tests for fault plans."""

import random

import pytest

from repro.cluster import GroupServiceCluster
from repro.errors import SimulationError
from repro.faults import FaultPlan, RandomFaultPlan


class TestFaultPlan:
    def test_builder_methods_accumulate_events(self):
        plan = (
            FaultPlan()
            .crash(100.0, 2)
            .restart(200.0, 2)
            .partition(300.0, [0, 1], [2])
            .heal(400.0)
        )
        assert len(plan.events) == 4
        assert [e.kind for e in plan.events] == [
            "crash", "restart", "partition", "heal"]
        assert [e.target for e in plan.events] == [2, 2, ((0, 1), (2,)), None]

    def test_arm_fires_events_in_order(self):
        cluster = GroupServiceCluster(seed=1)
        cluster.start()
        cluster.wait_operational()
        base = cluster.sim.now
        plan = FaultPlan().crash(base + 100.0, 2).restart(base + 3_000.0, 2)
        plan.arm(cluster)
        cluster.run(until=base + 200.0)
        assert plan.fired == 1
        assert not cluster.servers[2].alive
        cluster.run(until=base + 20_000.0)
        assert plan.fired == 2
        assert cluster.servers[2].operational

    def test_past_events_rejected(self):
        cluster = GroupServiceCluster(seed=1)
        cluster.start()
        cluster.wait_operational()
        plan = FaultPlan().crash(cluster.sim.now - 1.0, 0)
        with pytest.raises(SimulationError):
            plan.arm(cluster)

    def test_log_records_descriptions(self):
        cluster = GroupServiceCluster(seed=1)
        cluster.start()
        cluster.wait_operational()
        base = cluster.sim.now
        plan = FaultPlan().partition(base + 50.0, [0, 1], [2]).heal(base + 100.0)
        plan.arm(cluster)
        cluster.run(until=base + 200.0)
        descriptions = [d for _, d in plan.log]
        assert descriptions == ["partition ((0, 1), (2,))", "heal network"]


class TestRandomFaultPlan:
    def test_same_seed_same_plan(self):
        def build(seed):
            plan = RandomFaultPlan(
                random.Random(seed), 3, (1_000.0, 30_000.0), events=8
            )
            return [(e.at_ms, e.kind, e.target) for e in plan.events]

        assert build(5) == build(5)
        assert build(5) != build(6)

    def test_never_exceeds_max_down(self):
        for seed in range(20):
            plan = RandomFaultPlan(
                random.Random(seed), 3, (0.0, 60_000.0), events=12, max_down=1
            )
            down = set()
            for event in sorted(plan.events, key=lambda e: e.at_ms):
                if event.kind == "crash":
                    down.add(event.target)
                elif event.kind == "restart":
                    down.discard(event.target)
                assert len(down) <= 1

    def test_world_repaired_at_end(self):
        for seed in range(20):
            plan = RandomFaultPlan(
                random.Random(seed), 3, (0.0, 40_000.0), events=10
            )
            down = set()
            partitioned = False
            for event in sorted(plan.events, key=lambda e: e.at_ms):
                if event.kind == "crash":
                    down.add(event.target)
                elif event.kind == "restart":
                    down.discard(event.target)
                elif event.kind == "partition":
                    partitioned = True
                elif event.kind == "heal":
                    partitioned = False
            assert down == set()
            assert not partitioned

    def test_events_respect_window_start(self):
        plan = RandomFaultPlan(random.Random(1), 3, (5_000.0, 20_000.0))
        crash_restart = [e for e in plan.events if e.kind in ("crash", "partition")]
        assert all(e.at_ms >= 5_000.0 for e in crash_restart)


class TestRandomFaultPlanManySeeds:
    """Construction invariants over a wide seed sweep (cheap: no sim)."""

    SEEDS = range(200)

    @staticmethod
    def replay(plan):
        down, partitioned = set(), False
        for event in sorted(plan.events, key=lambda e: e.at_ms):
            if event.kind == "crash":
                assert event.target not in down  # never crash a corpse
                down.add(event.target)
            elif event.kind == "restart":
                assert event.target in down  # never restart a live server
                down.discard(event.target)
            elif event.kind == "partition":
                assert not partitioned
                partitioned = True
            elif event.kind == "heal":
                partitioned = False
            yield down, partitioned

    def test_max_down_respected_at_every_instant(self):
        for seed in self.SEEDS:
            plan = RandomFaultPlan(
                random.Random(seed), 5, (0.0, 90_000.0), events=14, max_down=2
            )
            for down, _ in self.replay(plan):
                assert len(down) <= 2, f"seed {seed}"

    def test_every_crash_restarted_every_partition_healed(self):
        for seed in self.SEEDS:
            plan = RandomFaultPlan(
                random.Random(seed), 3, (0.0, 60_000.0), events=10
            )
            down, partitioned = set(), False
            for down, partitioned in self.replay(plan):
                pass
            assert down == set(), f"seed {seed}"
            assert not partitioned, f"seed {seed}"

    def test_repaired_tail_is_ordered_and_after_window(self):
        # Tail repairs come strictly after the last in-window event and
        # strictly increase in time (one repair at a time).
        for seed in self.SEEDS:
            plan = RandomFaultPlan(
                random.Random(seed), 3, (1_000.0, 30_000.0), events=10
            )
            times = [e.at_ms for e in plan.events]
            assert times == sorted(times), f"seed {seed}"
            tail = [e for e in plan.events if e.at_ms > 30_000.0]
            tail_times = [e.at_ms for e in tail]
            assert tail_times == sorted(tail_times)
            assert len(set(tail_times)) == len(tail_times), f"seed {seed}"
            assert all(
                e.kind in ("restart", "heal") for e in tail
            ), f"seed {seed}"


class TestNewEventTypes:
    def test_disk_failure_builder_and_rename(self):
        plan = FaultPlan().disk_failure(500.0, 1)
        [event] = plan.events
        assert event.kind == "disk_failure"
        assert event.target == 1

    def test_disk_failure_fires_against_site_disk(self):
        cluster = GroupServiceCluster(seed=1)
        cluster.start()
        cluster.wait_operational()
        plan = FaultPlan().disk_failure(cluster.sim.now + 10.0, 2)
        plan.arm(cluster)
        cluster.run(until=cluster.sim.now + 50.0)
        assert cluster.sites[2].disk.failed
        assert plan.log[0][1] == "disk failure at site 2"

    def test_install_and_remove_policy_events(self):
        from repro.net import Drop

        cluster = GroupServiceCluster(seed=1)
        cluster.start()
        cluster.wait_operational()
        policy = Drop("chaos.test", probability=0.0)
        base = cluster.sim.now
        plan = (
            FaultPlan()
            .install_policy(base + 10.0, policy)
            .remove_policy(base + 100.0, policy)
        )
        assert [e.kind for e in plan.events] == ["install_policy", "remove_policy"]
        assert [e.target for e in plan.events] == [policy, policy]
        plan.arm(cluster)
        cluster.run(until=base + 50.0)
        assert policy in cluster.network.link_policies
        cluster.run(until=base + 200.0)
        assert policy not in cluster.network.link_policies
        assert [d for _, d in plan.log] == [
            "install link policy 'chaos.test'",
            "remove link policy 'chaos.test'",
        ]

    def test_intervention_runs_fn_against_live_cluster(self):
        cluster = GroupServiceCluster(seed=1)
        cluster.start()
        cluster.wait_operational()
        seen = []

        def fire(c):
            seen.append(c)
            return "did the thing"

        plan = FaultPlan().intervene(cluster.sim.now + 10.0, "thing", fire)
        plan.arm(cluster)
        cluster.run(until=cluster.sim.now + 50.0)
        assert seen == [cluster]
        assert plan.log[0][1] == "did the thing"

    def test_intervention_label_used_when_fn_returns_none(self):
        cluster = GroupServiceCluster(seed=1)
        cluster.start()
        cluster.wait_operational()
        plan = FaultPlan().intervene(
            cluster.sim.now + 10.0, "anonymous", lambda c: None
        )
        plan.arm(cluster)
        cluster.run(until=cluster.sim.now + 50.0)
        assert plan.log[0][1] == "anonymous"


class TestStorageFaultEvents:
    """The storage-fault catalogue (docs/CHAOS.md): every event fires
    against the right site's device and scopes to its admin partition."""

    def make_cluster(self):
        cluster = GroupServiceCluster(seed=1, integrity=True)
        cluster.start()
        cluster.wait_operational()
        return cluster

    def test_bit_rot_event_rots_admin_area(self):
        cluster = self.make_cluster()
        base = cluster.sim.now
        plan = FaultPlan().bit_rot(base + 10.0, 1, blocks=2, area="admin")
        plan.arm(cluster)
        cluster.run(until=base + 50.0)
        site = cluster.sites[1]
        start, end = site.partition.region
        tainted = site.disk.tainted_blocks()
        # Rot only lands on written blocks, so the hit count is capped
        # by how much the service has flushed — but never zero and
        # never outside the admin partition.
        assert 1 <= len(tainted) <= 2
        assert all(start <= b < end for b in tainted)
        assert plan.log[0][1].startswith("bit rot at site 1: blocks")

    def test_extent_rot_event(self):
        cluster = self.make_cluster()
        client = cluster.add_client("c")
        root = cluster.root_capability

        def seed_data():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "f", (sub,))

        cluster.run_process(seed_data())
        base = cluster.sim.now
        plan = FaultPlan().extent_rot(base + 10.0, 1, extents=1)
        plan.arm(cluster)
        cluster.run(until=base + 50.0)
        site = cluster.sites[1]
        assert any(site.disk.extent_corrupt(k) for k in site.disk.extent_keys())

    def test_torn_lost_misdirected_events_arm_the_admin_partition(self):
        cluster = self.make_cluster()
        base = cluster.sim.now
        plan = (
            FaultPlan()
            .torn_write(base + 10.0, 0, keep_blocks=1)
            .lost_writes(base + 10.0, 1, count=2)
            .misdirected_writes(base + 10.0, 2, count=1)
        )
        plan.arm(cluster)
        cluster.run(until=base + 20.0)
        assert cluster.sites[0].disk._armed == [
            ("torn_write", cluster.sites[0].partition.region, {"keep_blocks": 1})
        ]
        assert cluster.sites[1].disk._armed == [
            ("lost_writes", cluster.sites[1].partition.region, {})
        ] * 2
        assert cluster.sites[2].disk._armed == [
            ("misdirected_writes", cluster.sites[2].partition.region, {})
        ]
        descriptions = sorted(d for _, d in plan.log)
        assert descriptions == [
            "armed 1 misdirected write(s) at site 2",
            "armed 2 lost write(s) at site 1",
            "armed torn write at site 0 (keep 1)",
        ]

    def test_crash_point_event_power_cuts_inside_a_flush(self):
        cluster = self.make_cluster()
        base = cluster.sim.now
        plan = FaultPlan().crash_point(base + 10.0, 1, cut_after=1)
        plan.arm(cluster)
        cluster.run(until=base + 20.0)
        assert [kind for kind, _, _ in cluster.sites[1].disk._armed] == ["crash_point"]
        # A client write forces a commit-batch flush on every replica;
        # site 1's flush is cut at the block boundary and the whole
        # machine dies mid-write.
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            from repro.errors import ServiceDown

            try:
                sub = yield from client.create_dir()
                yield from client.append_row(root, "boom", (sub,))
            except ServiceDown:
                pass  # the power cut may race the update's own reply

        cluster.run_process(work())
        cluster.run(until=cluster.sim.now + 2_000.0)
        assert not cluster.servers[1].alive
        # The survivors keep the service up; the torn intention is on
        # disk for recovery to reconcile (exercised in the gauntlet).
        assert cluster.servers[0].operational
        assert cluster.servers[2].operational

    def test_nvram_blip_event_is_noop_without_board(self):
        cluster = self.make_cluster()
        base = cluster.sim.now
        plan = FaultPlan().nvram_blip(base + 10.0, 0, records=2)
        plan.arm(cluster)
        cluster.run(until=base + 50.0)
        assert plan.log[0][1] == "nvram blip at site 0: no board (no-op)"

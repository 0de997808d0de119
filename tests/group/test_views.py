"""View changes under traffic: join, leave, and retransmission paths."""

import pytest

from repro.errors import GroupFailure
from repro.group import GroupMember, GroupTimings
from repro.group.kernel import BcRecord

from tests.group.test_basic import build_group
from tests.helpers import TestBed


class TestJoinUnderTraffic:
    def test_late_joiner_sees_only_later_messages(self):
        """A joiner starts at the commit horizon: earlier messages are
        the application's state-transfer problem (as in the directory
        service), not the kernel's."""
        bed = TestBed(["a", "b", "c"])
        members = {
            x: GroupMember(bed[x].transport, "g") for x in ("a", "b", "c")
        }
        members["a"].create(resilience=1)

        def scenario():
            yield from members["b"].join()
            yield from members["a"].send_to_group("early-1")
            yield from members["a"].send_to_group("early-2")
            yield bed.sim.sleep(10.0)
            view = yield from members["c"].join()
            assert sorted(view) == ["a", "b", "c"]
            yield from members["a"].send_to_group("late")
            got = yield from members["c"].receive()
            return got.payload

        assert bed.run_until(bed.sim.spawn(scenario())) == "late"

    def test_existing_members_deliver_across_join(self):
        bed = TestBed(["a", "b", "c"])
        members = {
            x: GroupMember(bed[x].transport, "g") for x in ("a", "b", "c")
        }
        members["a"].create(resilience=1)
        got = []

        def scenario():
            yield from members["b"].join()
            yield from members["a"].send_to_group("before-join")
            yield from members["c"].join()
            yield from members["a"].send_to_group("after-join")
            for _ in range(2):
                record = yield from members["b"].receive()
                got.append(record.payload)
            return got

        assert bed.run_until(bed.sim.spawn(scenario())) == [
            "before-join",
            "after-join",
        ]

    def test_join_bumps_incarnation_everywhere(self):
        bed = TestBed(["a", "b", "c"])
        members = {x: GroupMember(bed[x].transport, "g") for x in ("a", "b", "c")}
        members["a"].create(resilience=1)

        def scenario():
            yield from members["b"].join()
            inc_before = members["a"].info().incarnation
            yield from members["c"].join()
            yield bed.sim.sleep(20.0)
            return inc_before

        inc_before = bed.run_until(bed.sim.spawn(scenario()))
        for member in members.values():
            assert member.info().incarnation == inc_before + 1

    def test_duplicate_join_request_is_idempotent(self):
        bed, members = build_group(["a", "b"])
        kernel_b = members["b"].kernel

        def scenario():
            # Re-broadcast a join for an existing member: the sequencer
            # re-announces the view instead of adding a duplicate.
            view_len_before = len(members["a"].info().view)
            members["b"].kernel.start_join()
            yield bed.sim.sleep(50.0)
            return view_len_before

        view_len_before = bed.run_until(bed.sim.spawn(scenario()))
        assert len(members["a"].info().view) == view_len_before
        assert members["a"].info().view.count("b") == 1


class TestLeaveUnderTraffic:
    def test_messages_continue_after_member_leaves(self):
        bed, members = build_group(["a", "b", "c"])
        got = []

        def scenario():
            yield from members["a"].send_to_group("with-three")
            yield from members["c"].leave()
            yield from members["a"].send_to_group("with-two")
            for _ in range(2):
                record = yield from members["b"].receive()
                got.append(record.payload)
            return got

        assert bed.run_until(bed.sim.spawn(scenario())) == [
            "with-three",
            "with-two",
        ]

    def test_sequencer_handover_preserves_pending_history(self):
        """The old sequencer ships its history tail when leaving, so
        the successor can still serve retransmissions."""
        bed, members = build_group(["a", "b", "c"])

        def scenario():
            for i in range(3):
                yield from members["b"].send_to_group(f"m{i}")
            yield bed.sim.sleep(10.0)
            yield from members["a"].leave()  # "a" was the sequencer
            yield bed.sim.sleep(50.0)
            successor = next(
                m for m in (members["b"], members["c"]) if m.is_sequencer
            )
            # The successor holds the full history.
            assert len(successor.kernel.history) == 3
            seqno = yield from members["b"].send_to_group("after-handover")
            return seqno

        # Seqnos continue where the old sequencer stopped.
        assert bed.run_until(bed.sim.spawn(scenario())) == 3


class TestRetransmission:
    def test_gap_repair_via_retransmission(self):
        """Drop a multicast at one member; the gap is repaired and
        total order preserved."""
        bed, members = build_group(["a", "b", "c"], seed=2)
        kernel_c = members["c"].kernel

        def scenario():
            yield from members["b"].send_to_group("m0")
            # Simulate a lost bc at c: delete it from c's history and
            # rewind its counters as if the packet never arrived.
            yield bed.sim.sleep(10.0)
            del kernel_c.history[0]
            kernel_c.received = -1
            kernel_c.committed = -1
            # Next message creates a visible gap -> retrans request.
            yield from members["b"].send_to_group("m1")
            got = []
            for _ in range(2):
                record = yield from members["c"].receive()
                got.append(record.payload)
            return got

        assert bed.run_until(bed.sim.spawn(scenario())) == ["m0", "m1"]

    def test_heartbeat_advertises_commit_horizon(self):
        """A member that missed the commit packet learns the horizon
        from the next heartbeat."""
        timings = GroupTimings(heartbeat_interval_ms=20.0)
        bed, members = build_group(["a", "b", "c"], timings=timings)
        kernel_c = members["c"].kernel

        def scenario():
            yield from members["b"].send_to_group("m0")
            yield bed.sim.sleep(5.0)
            # Pretend c never saw the commit.
            kernel_c.committed = -1
            yield bed.sim.sleep(100.0)  # several heartbeats
            return kernel_c.committed

        assert bed.run_until(bed.sim.spawn(scenario())) == 0


class TestStaleTraffic:
    def test_stale_incarnation_packets_ignored(self):
        bed, members = build_group(["a", "b", "c"])
        kernel_b = members["b"].kernel

        def scenario():
            yield from members["a"].send_to_group("real")
            yield bed.sim.sleep(10.0)
            before = kernel_b.received
            # Forge a packet from an old incarnation.
            bed["a"].transport.send(
                "b",
                kernel_b._kinds["bc"],
                {
                    "instance": kernel_b.instance,
                    "inc": kernel_b.incarnation - 1,
                    "record": BcRecord(99, ("x", 1), "x", "forged", 10),
                    "committed": 99,
                },
            )
            yield bed.sim.sleep(10.0)
            return before

        before = bed.run_until(bed.sim.spawn(scenario()))
        assert kernel_b.received == before
        assert 99 not in kernel_b.history

    def test_wrong_instance_packets_ignored(self):
        bed, members = build_group(["a", "b", "c"])
        kernel_b = members["b"].kernel

        def scenario():
            bed["a"].transport.send(
                "b",
                kernel_b._kinds["bc"],
                {
                    "instance": ("bogus", 1, 0.0),
                    "inc": kernel_b.incarnation,
                    "record": BcRecord(0, ("x", 1), "x", "alien", 10),
                    "committed": 0,
                },
            )
            yield bed.sim.sleep(10.0)

        bed.run_until(bed.sim.spawn(scenario()))
        assert kernel_b.received == -1
        assert members["b"].try_receive() is None


#: Heartbeats far apart: nothing restamps a member after it enters a
#: view, and no detector fires (the resets below fail survivors by hand).
QUIET = GroupTimings(heartbeat_interval_ms=60_000.0, heartbeat_timeout_ms=180_000.0)


def assert_entered_alike(members, triggers, announcer=None):
    """*triggers*: the view-log trigger each member the change touched
    wrote last ("handover" marks a sequencer that left). Every member of
    the new view must be in the same state whichever path brought it
    there. The *announcer* — the sequencer of a join or a leave —
    changes the view it runs rather than entering one, so it keeps its
    own promise and heartbeat stamp."""
    for addr, trigger in triggers.items():
        assert members[addr].kernel.view_log[-1]["trigger"] == trigger, addr
    kernels = [members[a].kernel for a, t in triggers.items() if t != "handover"]
    (sequencer,) = [k for k in kernels if k.me == k.sequencer]
    view = sorted(k.me for k in kernels)
    for kernel in kernels:
        assert sorted(kernel.view) == view
        assert kernel.incarnation == sequencer.incarnation
        assert (kernel.state, kernel.failure_reason) == ("member", "")
        if kernel.me != announcer:
            assert kernel._promise == (kernel.incarnation, "")
            assert kernel.last_heartbeat == kernel.view_log[-1]["at_ms"]
    others = set(view) - {sequencer.me}
    assert set(sequencer.ack_progress) == set(sequencer.last_echo) == others


class TestEveryWayIntoAView:
    def settle(self, bed, process=None):
        if process is not None:
            bed.run_until(bed.sim.spawn(process))
        bed.run(until=bed.sim.now + 50.0)

    def test_create(self):
        bed = TestBed(["a"])
        members = {"a": GroupMember(bed["a"].transport, "g", QUIET)}
        members["a"].create(resilience=1)
        assert_entered_alike(members, {"a": "create"})

    def test_join(self):
        bed, members = build_group(["a", "b", "c"], timings=QUIET)
        self.settle(bed)
        assert_entered_alike(members, {"a": "join", "b": "adopt", "c": "join"}, "a")

    def test_member_leave(self):
        bed, members = build_group(["a", "b", "c"], timings=QUIET)
        self.settle(bed, members["c"].leave())
        assert_entered_alike(members, {"a": "leave", "b": "adopt"}, "a")
        assert members["c"].info().state == "idle"

    def test_sequencer_handover(self):
        bed, members = build_group(["a", "b", "c"], timings=QUIET)
        self.settle(bed, members["a"].leave())
        assert_entered_alike(members, {"a": "handover", "b": "adopt", "c": "adopt"})
        assert members["b"].is_sequencer

    @pytest.mark.parametrize(
        "victim, coordinator, survivor",
        [("c", "b", "a"), ("a", "c", "b")],
        ids=["member-crash", "sequencer-crash"],
    )
    def test_reset(self, victim, coordinator, survivor):
        bed, members = build_group(["a", "b", "c"], timings=QUIET)
        members[victim].crash()
        bed[victim].crash()
        for addr in (coordinator, survivor):
            members[addr].kernel.fail_group(f"{victim} crashed")
        self.settle(bed, members[coordinator].reset())
        assert_entered_alike(members, {coordinator: "reset", survivor: "adopt"})
        assert members[coordinator].is_sequencer

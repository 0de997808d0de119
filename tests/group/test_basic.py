"""Group communication: formation, send/receive, total order."""

import pytest

from repro.errors import GroupFailure
from repro.group import GroupMember, GroupTimings
from repro.group import member as group_member
from repro.sim import LatencyModel

from tests.helpers import TestBed, wire_count


def build_group(addresses, resilience=2, seed=0, timings=None, loss=0.0):
    """A TestBed plus joined GroupMembers, first address is creator."""
    bed = TestBed(addresses, seed=seed, loss=loss)
    members = {
        a: GroupMember(bed[a].transport, "g", timings or GroupTimings())
        for a in addresses
    }
    creator = addresses[0]
    members[creator].create(resilience)

    def join(addr):
        yield from members[addr].join()

    for addr in addresses[1:]:
        bed.run_until(bed.sim.spawn(join(addr), f"join-{addr}"))
    return bed, members


class TestFormation:
    def test_create_makes_single_member_group(self):
        bed = TestBed(["a"])
        member = GroupMember(bed["a"].transport, "g")
        member.create(resilience=2)
        info = member.info()
        assert info.state == "member"
        assert info.view == ("a",)
        assert member.is_sequencer

    def test_join_grows_the_view_everywhere(self):
        bed, members = build_group(["a", "b", "c"])
        for member in members.values():
            assert sorted(member.info().view) == ["a", "b", "c"]
            assert member.is_member

    def test_join_without_group_raises(self, monkeypatch):
        monkeypatch.setattr(group_member, "JOIN_TIMEOUT_MS", 10.0)
        monkeypatch.setattr(group_member, "JOIN_ATTEMPTS", 2)
        bed = TestBed(["a"])
        member = GroupMember(bed["a"].transport, "g")

        def run():
            try:
                yield from member.join()
            except GroupFailure:
                return "no group"

        assert bed.run_until(bed.sim.spawn(run())) == "no group"

    def test_single_sequencer_exists(self):
        bed, members = build_group(["a", "b", "c"])
        sequencers = [m for m in members.values() if m.is_sequencer]
        assert len(sequencers) == 1
        assert sequencers[0].address == "a"  # the creator sequences

    def test_leave_shrinks_view(self):
        bed, members = build_group(["a", "b", "c"])

        def run():
            yield from members["b"].leave()

        bed.run_until(bed.sim.spawn(run()))
        bed.run(until=bed.sim.now + 50.0)
        assert not members["b"].is_member
        assert sorted(members["a"].info().view) == ["a", "c"]
        assert sorted(members["c"].info().view) == ["a", "c"]

    def test_sequencer_leave_hands_over(self):
        bed, members = build_group(["a", "b", "c"])

        def run():
            yield from members["a"].leave()

        bed.run_until(bed.sim.spawn(run()))
        bed.run(until=bed.sim.now + 50.0)
        assert not members["a"].is_member
        remaining = [members["b"], members["c"]]
        assert sum(1 for m in remaining if m.is_sequencer) == 1
        for m in remaining:
            assert sorted(m.info().view) == ["b", "c"]


class TestSendReceive:
    def test_send_is_received_by_all_members(self):
        bed, members = build_group(["a", "b", "c"])
        got = {a: [] for a in members}

        def receiver(addr):
            for _ in range(1):
                record = yield from members[addr].receive()
                got[addr].append((record.sender, record.payload))

        def sender():
            yield from members["b"].send_to_group({"op": "x"})

        for addr in members:
            bed.sim.spawn(receiver(addr), f"recv-{addr}")
        bed.sim.spawn(sender())
        bed.run(until=bed.sim.now + 200.0)
        for addr in members:
            assert got[addr] == [("b", {"op": "x"})]

    def test_send_returns_assigned_seqno(self):
        bed, members = build_group(["a", "b", "c"])

        def run():
            first = yield from members["a"].send_to_group("m0")
            second = yield from members["b"].send_to_group("m1")
            return first, second

        first, second = bed.run_until(bed.sim.spawn(run()))
        assert (first, second) == (0, 1)

    def test_total_order_under_concurrent_senders(self):
        """Messages from different senders are seen in the SAME order
        by every member — the core guarantee (no 'random mixtures')."""
        bed, members = build_group(["a", "b", "c"], seed=3)
        n_each = 10
        orders = {a: [] for a in members}

        def sender(addr):
            for i in range(n_each):
                yield from members[addr].send_to_group((addr, i))

        def receiver(addr):
            for _ in range(3 * n_each):
                record = yield from members[addr].receive()
                orders[addr].append(record.payload)

        for addr in members:
            bed.sim.spawn(receiver(addr), f"recv-{addr}")
            bed.sim.spawn(sender(addr), f"send-{addr}")
        bed.run(until=bed.sim.now + 2000.0)
        assert len(orders["a"]) == 3 * n_each
        assert orders["a"] == orders["b"] == orders["c"]
        # Per-sender FIFO inside the total order.
        for addr in members:
            mine = [p for p in orders["a"] if p[0] == addr]
            assert mine == [(addr, i) for i in range(n_each)]

    def test_seqnos_are_consecutive(self):
        bed, members = build_group(["a", "b"])
        seqnos = []

        def run():
            for i in range(5):
                seqno = yield from members["b"].send_to_group(i)
                seqnos.append(seqno)

        bed.run_until(bed.sim.spawn(run()))
        assert seqnos == [0, 1, 2, 3, 4]

    def test_send_with_r2_costs_five_packets(self):
        """Paper section 3.1: a SendToGroup with r=2 costs 5 messages
        (request, multicast, 2 acks, commit) in a 3-member group."""
        bed, members = build_group(["a", "b", "c"], resilience=2)

        def run():
            yield from members["b"].send_to_group("warm")
            yield bed.sim.sleep(5.0)
            before = wire_count(bed.network, "net.frames_sent")
            hb_before = bed.network.stats.frames_by_kind.get("grp.g.hb", 0)
            echo_before = bed.network.stats.frames_by_kind.get("grp.g.echo", 0)
            yield from members["b"].send_to_group("measured")
            yield bed.sim.sleep(2.0)
            after = wire_count(bed.network, "net.frames_sent")
            hb_after = bed.network.stats.frames_by_kind.get("grp.g.hb", 0)
            echo_after = bed.network.stats.frames_by_kind.get("grp.g.echo", 0)
            return (after - before) - (hb_after - hb_before) - (echo_after - echo_before)

        assert bed.run_until(bed.sim.spawn(run())) == 5

    def test_send_with_r0_costs_two_packets(self):
        bed, members = build_group(["a", "b", "c"], resilience=0)

        def run():
            yield from members["b"].send_to_group("warm")
            yield bed.sim.sleep(5.0)
            before = bed.network.stats.snapshot()
            yield from members["b"].send_to_group("measured")
            yield bed.sim.sleep(2.0)
            after = bed.network.stats.snapshot()
            return {
                k: after.get(k, 0) - before.get(k, 0)
                for k in after
                if k.startswith("grp") and not k.endswith((".hb", ".echo"))
                and after.get(k, 0) != before.get(k, 0)
            }

        deltas = bed.run_until(bed.sim.spawn(run()))
        assert deltas == {"grp.g.req": 1, "grp.g.bc": 1}

    def test_sequencer_send_skips_request_packet(self):
        bed, members = build_group(["a", "b", "c"], resilience=2)

        def run():
            yield from members["a"].send_to_group("warm")  # a is sequencer
            yield bed.sim.sleep(5.0)
            before = bed.network.stats.frames_by_kind.get("grp.g.req", 0)
            yield from members["a"].send_to_group("measured")
            yield bed.sim.sleep(2.0)
            return bed.network.stats.frames_by_kind.get("grp.g.req", 0) - before

        assert bed.run_until(bed.sim.spawn(run())) == 0

    def test_try_receive(self):
        bed, members = build_group(["a", "b"])

        def run():
            assert members["b"].try_receive() is None
            yield from members["a"].send_to_group("hello")
            yield bed.sim.sleep(10.0)
            record = members["b"].try_receive()
            return record.payload

        assert bed.run_until(bed.sim.spawn(run())) == "hello"

    def test_info_buffered_counts_unconsumed(self):
        bed, members = build_group(["a", "b"])

        def run():
            yield from members["a"].send_to_group("one")
            yield from members["a"].send_to_group("two")
            yield bed.sim.sleep(10.0)
            buffered_before = members["b"].info().buffered
            members["b"].try_receive()
            buffered_after = members["b"].info().buffered
            return buffered_before, buffered_after

        assert bed.run_until(bed.sim.spawn(run())) == (2, 1)


class TestLossRecovery:
    def test_total_order_survives_packet_loss(self):
        """Retransmission repairs gaps: all members converge even with
        10% packet loss."""
        bed, members = build_group(["a", "b", "c"], seed=11, loss=0.10)
        got = {a: [] for a in members}

        def sender(addr):
            for i in range(8):
                try:
                    yield from members[addr].send_to_group((addr, i))
                except GroupFailure:
                    return  # heavy loss can look like a failure; fine

        def receiver(addr):
            while True:
                record = yield from members[addr].receive()
                got[addr].append(record.payload)

        for addr in members:
            bed.sim.spawn(receiver(addr), f"recv-{addr}")
        for addr in ("a", "b"):
            bed.sim.spawn(sender(addr), f"send-{addr}")
        bed.run(until=3000.0)
        shortest = min(len(got[a]) for a in members)
        assert shortest > 0
        reference = got["a"][:shortest]
        for addr in members:
            assert got[addr][:shortest] == reference

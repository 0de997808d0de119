"""Unit tests for the simulated Ethernet segment."""

import pytest

from repro.errors import NetworkError
from repro.net import BROADCAST, Drop, LinkFilter, Network
from repro.sim import LatencyModel, Simulator

from tests.helpers import wire_count


def make_network(loss=0.0, latency=None):
    sim = Simulator(seed=1)
    net = Network(sim, latency or LatencyModel.paper_testbed())
    if loss:
        net.add_policy(Drop("loss", probability=loss))
    return sim, net


class TestTopology:
    def test_attach_and_lookup(self):
        _, net = make_network()
        nic = net.attach("a")
        assert net.nic("a") is nic
        assert net.addresses() == ["a"]

    def test_duplicate_attach_rejected(self):
        _, net = make_network()
        net.attach("a")
        with pytest.raises(NetworkError):
            net.attach("a")

    def test_unknown_nic_lookup_raises(self):
        _, net = make_network()
        with pytest.raises(NetworkError):
            net.nic("ghost")

    def test_reachability_requires_both_up(self):
        _, net = make_network()
        a, b = net.attach("a"), net.attach("b")
        assert net.reachable("a", "b")
        b.shutdown()
        assert not net.reachable("a", "b")
        b.restart()
        assert net.reachable("a", "b")
        a.shutdown()
        assert not net.reachable("a", "b")


class TestUnicast:
    def test_packet_arrives_with_latency(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        fut = b.recv()
        net.nic("a").send("b", "test", {"x": 1}, size=100)
        sim.run()
        packet = fut.value
        assert packet.src == "a" and packet.dst == "b"
        assert packet.payload == {"x": 1}
        assert not packet.multicast
        assert sim.now > 0.0  # latency was charged

    def test_larger_packets_take_longer(self):
        def arrival_time(size):
            sim, net = make_network(latency=LatencyModel.paper_testbed())
            # zero jitter for a deterministic comparison
            net.latency.network.jitter_ms = 0.0
            net.attach("a")
            b = net.attach("b")
            fut = b.recv()
            net.nic("a").send("b", "t", None, size=size)
            sim.run()
            assert fut.resolved
            return sim.now

        assert arrival_time(10_000) > arrival_time(100)

    def test_send_from_down_nic_raises(self):
        _, net = make_network()
        a = net.attach("a")
        net.attach("b")
        a.shutdown()
        with pytest.raises(NetworkError):
            a.send("b", "t", None)

    def test_packet_to_down_nic_dropped(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        b.shutdown()
        net.nic("a").send("b", "t", None)
        sim.run()
        assert wire_count(net, "net.frames_dropped") == 1

    def test_packet_in_flight_during_crash_is_lost(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        net.nic("a").send("b", "t", None)
        b.shutdown()  # crash before delivery event fires
        sim.run()
        assert wire_count(net, "net.frames_dropped") == 1

    def test_fifo_between_same_pair(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        for i in range(5):
            net.nic("a").send("b", "t", i, size=64)
        sim.run()
        got = [b.inbox.recv().value.payload for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]


    def test_restart_gives_a_raw_nic_a_fresh_inbox_sink(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        stale = b.recv()  # a reader blocked on the old inbox
        old_inbox = b.inbox
        b.shutdown()
        assert isinstance(stale.exception, NetworkError)
        b.restart()
        assert b.inbox is not old_inbox and b.sink == b.inbox.send
        net.nic("a").send("b", "t", "after")
        sim.run()
        assert [p.payload for p in b.inbox.peek_all()] == ["after"]
        assert len(old_inbox) == 0


class TestLinksAreIndependent:
    """Each (src, dst) link — a multicast: each sender — draws its
    jitter from its own stream, and a loss policy on one link draws only
    for the deliveries it matches: traffic on one link cannot re-time or
    re-lose a frame on another."""

    @staticmethod
    def arrivals_on_c_to_d(extra_a_to_b, loss=0.0):
        sim, net = make_network()
        if loss:
            net.add_policy(Drop("loss", LinkFilter(src="c", dst="d"), probability=loss))
        for address in "abc":
            net.attach(address)
        d = net.attach("d")
        arrivals = []

        def reader():
            while True:
                packet = yield d.recv()
                if packet.kind == "t":  # a raw NIC hears the multicasts too
                    arrivals.append((packet.payload, sim.now))

        sim.spawn(reader())

        def chatter():
            for n in range(20):
                for _ in range(extra_a_to_b // 20):
                    net.nic("a").send("b", "noise", None)
                net.nic("a").broadcast("noise", None)
                net.nic("c").send("d", "t", n)
                yield sim.sleep(3.0)

        sim.spawn(chatter())
        sim.run()
        return arrivals

    def test_extra_frames_on_one_link_leave_another_links_arrivals_alone(self):
        quiet = self.arrivals_on_c_to_d(0)
        assert len(quiet) == 20
        assert self.arrivals_on_c_to_d(200) == quiet

    def test_nor_do_they_change_which_of_its_frames_are_lost(self):
        quiet = self.arrivals_on_c_to_d(0, loss=0.3)
        assert 5 < len(quiet) < 20
        assert self.arrivals_on_c_to_d(200, loss=0.3) == quiet


class TestBroadcast:
    def test_broadcast_reaches_all_others(self):
        sim, net = make_network()
        a = net.attach("a")
        receivers = [net.attach(x) for x in ("b", "c", "d")]
        futures = [r.recv() for r in receivers]
        a.broadcast("hello", 42)
        sim.run()
        assert all(f.value.payload == 42 for f in futures)
        assert all(f.value.multicast for f in futures)

    def test_broadcast_not_delivered_to_sender(self):
        sim, net = make_network()
        a = net.attach("a")
        net.attach("b")
        a.broadcast("hello", None)
        sim.run()
        assert len(a.inbox) == 0

    def test_broadcast_counts_as_one_frame(self):
        sim, net = make_network()
        a = net.attach("a")
        for x in ("b", "c", "d"):
            net.attach(x)
        a.broadcast("grp.bc", None, size=256)
        sim.run()
        assert wire_count(net, "net.frames_sent") == 1
        assert net.stats.frames_by_kind == {"grp.bc": 1}

    def test_broadcast_respects_partitions(self):
        sim, net = make_network()
        a = net.attach("a")
        b, c = net.attach("b"), net.attach("c")
        net.partitions.split([["a", "b"], ["c"]])
        a.broadcast("hello", None)
        sim.run()
        assert len(b.inbox) == 1
        assert len(c.inbox) == 0


class TestPartitionsAndLoss:
    def test_unicast_across_partition_dropped(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        net.partitions.split([["a"], ["b"]])
        net.nic("a").send("b", "t", None)
        sim.run()
        assert len(b.inbox) == 0
        assert wire_count(net, "net.frames_dropped") == 1

    def test_heal_restores_delivery(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        net.partitions.split([["a"], ["b"]])
        net.partitions.heal()
        net.nic("a").send("b", "t", None)
        sim.run()
        assert len(b.inbox) == 1

    def test_loss_probability_drops_packets(self):
        sim, net = make_network(loss=1.0)
        net.attach("a")
        b = net.attach("b")
        net.nic("a").send("b", "t", None)
        sim.run()
        assert len(b.inbox) == 0
        assert wire_count(net, "net.frames_dropped") == 1

    def test_partial_loss_is_deterministic_per_seed(self):
        def delivered(seed):
            sim = Simulator(seed=seed)
            net = Network(sim)
            net.add_policy(Drop("loss", probability=0.5))
            net.attach("a")
            b = net.attach("b")
            for _ in range(100):
                net.nic("a").send("b", "t", None)
            sim.run()
            return len(b.inbox)

        assert delivered(42) == delivered(42)
        assert 20 < delivered(42) < 80  # loss is actually happening


class TestStats:
    def test_bytes_and_kind_accounting(self):
        sim, net = make_network()
        net.attach("a")
        net.attach("b")
        net.nic("a").send("b", "rpc.request", None, size=100)
        net.nic("a").send("b", "rpc.request", None, size=50)
        net.nic("a").send("b", "rpc.reply", None, size=25)
        sim.run()
        assert wire_count(net, "net.frames_sent") == 3
        assert wire_count(net, "net.bytes_sent") == 175
        assert net.stats.frames_by_kind == {"rpc.request": 2, "rpc.reply": 1}

    def test_snapshot_is_a_copy(self):
        _, net = make_network()
        snap = net.stats.snapshot()
        net.stats.frames_by_kind["x"] = 1
        assert "x" not in snap

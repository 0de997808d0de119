"""Unit tests for the simulated Ethernet segment."""

import pytest

from repro.errors import NetworkError
from repro.net import Drop, LinkFilter, Network
from repro.sim import LatencyModel, Simulator

from tests.helpers import Machine, TestBed, wire_count


def make_network(loss=0.0, latency=None):
    sim = Simulator(seed=1)
    net = Network(sim, latency or LatencyModel.paper_testbed())
    if loss:
        net.add_policy(Drop("loss", probability=loss))
    return sim, net


def pair(loss=0.0):
    """Machines "a" and "b" on one segment; b takes frames of kind "t"."""
    bed = TestBed(["a", "b"], seed=1, loss=loss)
    return bed, bed["b"].listen("t")


class TestTopology:
    def test_attach_and_lookup(self):
        _, net = make_network()
        nic = net.attach("a")
        assert net._nics == {"a": nic}

    def test_duplicate_attach_rejected(self):
        _, net = make_network()
        net.attach("a")
        with pytest.raises(NetworkError):
            net.attach("a")

    def test_unknown_nic_lookup_raises(self):
        _, net = make_network()
        with pytest.raises(NetworkError):
            net.transmit("ghost", "a", "t", None, 64)

    def test_reachability_requires_both_up(self):
        bed = TestBed(["a", "b"])
        net = bed.network
        assert net.reachable("a", "b")
        bed["b"].crash()
        assert not net.reachable("a", "b")
        bed["b"].restart()
        assert net.reachable("a", "b")
        bed["a"].crash()
        assert not net.reachable("a", "b")

    def test_a_bare_nic_drops_what_it_is_sent(self):
        """A NIC no transport took is not a second receive path: a
        unicast reaches it and nothing takes it (multicasts do not reach
        it at all; test_multicast_filter.py)."""
        bed = TestBed(["a"])
        bed.network.attach("bare")
        bed["a"].transport.send("bare", "t", 2)
        bed.run()
        assert wire_count(bed.network, "net.frames_sent") == 1
        assert wire_count(bed.network, "net.frames_dropped") == 0

    def test_a_link_finds_a_nic_attached_after_its_first_frame(self):
        """A link remembers its receiving NIC only once it exists: a
        frame sent to an address nobody holds is dropped, and a frame
        that arrives after the address was attached, or is sent after,
        is delivered."""
        bed = TestBed(["a"])
        net = bed.network
        send = bed["a"].transport.send
        send("late", "t", "lost")
        bed.run()
        assert wire_count(net, "net.frames_dropped") == 1
        send("late", "t", "in flight")  # attached while this one flies
        late = Machine(net, "late")
        got = late.listen("t")
        bed.run()
        send("late", "t", "after")
        bed.run()
        assert [p.payload for p in got] == ["in flight", "after"]
        assert wire_count(net, "net.frames_dropped") == 1


class TestUnicast:
    def test_packet_arrives_with_latency(self):
        bed = TestBed("ab", seed=1)
        arrived = []
        bed["b"].transport.register(
            "t", lambda packet: arrived.append((packet, bed.sim.now))
        )
        bed["a"].transport.send("b", "t", {"x": 1}, size=100)
        bed.run()
        [(packet, when)] = arrived
        assert packet.src == "a" and packet.dst == "b"
        assert packet.payload == {"x": 1}
        assert not packet.multicast
        assert when > 0.0  # latency was charged

    def test_larger_packets_take_longer(self):
        def arrival_time(size):
            latency = LatencyModel.paper_testbed()
            latency.network.jitter_ms = 0.0  # for a deterministic comparison
            bed = TestBed(["a", "b"], seed=1, latency=latency)
            arrived = []
            bed["b"].transport.register("t", lambda packet: arrived.append(bed.sim.now))
            bed["a"].transport.send("b", "t", None, size=size)
            bed.run()
            [when] = arrived
            return when

        assert arrival_time(10_000) > arrival_time(100)

    def test_send_from_down_nic_raises(self):
        bed, _ = pair()
        bed["a"].crash()
        with pytest.raises(NetworkError):
            bed["a"].transport.send("b", "t", None)

    def test_packet_to_down_nic_dropped(self):
        bed, got = pair()
        bed["b"].crash()
        bed["a"].transport.send("b", "t", None)
        bed.run()
        assert got == []
        assert wire_count(bed.network, "net.frames_dropped") == 1

    def test_packet_in_flight_during_crash_is_lost(self):
        bed, got = pair()
        bed["a"].transport.send("b", "t", None)
        bed["b"].crash()  # crash before delivery event fires
        bed.run()
        assert got == []
        assert wire_count(bed.network, "net.frames_dropped") == 1

    def test_fifo_between_same_pair(self):
        bed, got = pair()
        for i in range(5):
            bed["a"].transport.send("b", "t", i, size=64)
        bed.run()
        assert [p.payload for p in got] == [0, 1, 2, 3, 4]

    def test_restart_keeps_the_transport_as_the_sink(self):
        bed, got = pair()
        b = bed["b"]
        b.crash()
        bed["a"].transport.send("b", "t", "lost")
        bed.run()
        b.restart()
        assert b.nic.sink == b.transport._dispatch and b.nic.up
        again = b.listen("t")  # a restarted service registers again
        bed["a"].transport.send("b", "t", "after")
        bed.run()
        assert got == [] and [p.payload for p in again] == ["after"]


class TestLinksAreIndependent:
    """Each (src, dst) link — a multicast: each sender — draws its
    jitter from its own stream, and a loss policy on one link draws only
    for the deliveries it matches: traffic on one link cannot re-time or
    re-lose a frame on another."""

    @staticmethod
    def arrivals_on_c_to_d(extra_a_to_b, loss=0.0):
        bed = TestBed("abcd", seed=1)
        sim, net = bed.sim, bed.network
        if loss:
            net.add_policy(Drop("loss", LinkFilter(src="c", dst="d"), probability=loss))
        for address in "bcd":
            bed[address].listen("noise")  # so the multicasts are delivered
        arrivals = []
        bed["d"].transport.register(
            "t", lambda packet: arrivals.append((packet.payload, sim.now))
        )

        def chatter():
            for n in range(20):
                for _ in range(extra_a_to_b // 20):
                    bed["a"].transport.send("b", "noise", None)
                bed["a"].transport.broadcast("noise", None)
                bed["c"].transport.send("d", "t", n)
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
        bed = TestBed("abcd")
        got = [bed[x].listen("hello") for x in "abcd"]
        bed["a"].transport.broadcast("hello", 42)
        bed.run()
        sender, *receivers = got
        assert sender == []  # the sender never hears itself
        assert [[(p.payload, p.multicast) for p in r] for r in receivers] == [
            [(42, True)]
        ] * 3

    def test_broadcast_not_delivered_to_sender(self):
        bed = TestBed("ab")
        got = bed["a"].listen("hello")
        bed["a"].transport.broadcast("hello", None)
        bed.run()
        assert got == []

    def test_broadcast_counts_as_one_frame(self):
        bed = TestBed("abcd")
        for x in "bcd":
            bed[x].listen("grp.bc")
        bed["a"].transport.broadcast("grp.bc", None, size=256)
        bed.run()
        assert wire_count(bed.network, "net.frames_sent") == 1
        assert bed.network.stats.frames_by_kind == {"grp.bc": 1}

    def test_broadcast_respects_partitions(self):
        bed = TestBed("abc")
        got_b, got_c = bed["b"].listen("hello"), bed["c"].listen("hello")
        bed.network.partitions.split([["a", "b"], ["c"]])
        bed["a"].transport.broadcast("hello", None)
        bed.run()
        assert len(got_b) == 1
        assert len(got_c) == 0


class TestPartitionsAndLoss:
    def test_unicast_across_partition_dropped(self):
        bed, got = pair()
        bed.network.partitions.split([["a"], ["b"]])
        bed["a"].transport.send("b", "t", None)
        bed.run()
        assert len(got) == 0
        assert wire_count(bed.network, "net.frames_dropped") == 1

    def test_heal_restores_delivery(self):
        bed, got = pair()
        bed.network.partitions.split([["a"], ["b"]])
        bed.network.partitions.heal()
        bed["a"].transport.send("b", "t", None)
        bed.run()
        assert len(got) == 1

    def test_loss_probability_drops_packets(self):
        bed, got = pair(loss=1.0)
        bed["a"].transport.send("b", "t", None)
        bed.run()
        assert len(got) == 0
        assert wire_count(bed.network, "net.frames_dropped") == 1

    def test_partial_loss_is_deterministic_per_seed(self):
        def delivered(seed):
            bed = TestBed("ab", seed=seed, loss=0.5)
            got = bed["b"].listen("t")
            for _ in range(100):
                bed["a"].transport.send("b", "t", None)
            bed.run()
            return len(got)

        assert delivered(42) == delivered(42)
        assert 20 < delivered(42) < 80  # loss is actually happening


class TestStats:
    def test_bytes_and_kind_accounting(self):
        bed, _ = pair()
        net = bed.network
        bed["a"].transport.send("b", "rpc.request", None, size=100)
        bed["a"].transport.send("b", "rpc.request", None, size=50)
        bed["a"].transport.send("b", "rpc.reply", None, size=25)
        bed.run()
        assert wire_count(net, "net.frames_sent") == 3
        assert wire_count(net, "net.bytes_sent") == 175
        assert net.stats.frames_by_kind == {"rpc.request": 2, "rpc.reply": 1}

    def test_snapshot_is_a_copy(self):
        _, net = make_network()
        snap = net.stats.snapshot()
        net.stats.frames_by_kind["x"] = 1
        assert "x" not in snap

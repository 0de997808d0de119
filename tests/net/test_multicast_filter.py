"""Interest-filtered multicast: a broadcast reaches the NICs that
listen for its kind, and costs nothing at the ones that do not.

The frame kind is the multicast address (``grp.<group>.*`` is a FLIP
group address, ``rpc.locate`` the address every serving machine
listens on). Events are counted with ``sim._sequence`` — the number of
callbacks ever scheduled — so "got no event" means exactly that.
"""

import random

from repro.cluster import GroupServiceCluster
from repro.net import BROADCAST, Drop, LinkFilter, Network
from repro.rpc import RpcClient, RpcServer, Transport
from repro.rpc.kernel import KIND_LOCATE, rpc_kernel
from repro.sim import LatencyModel, Simulator
from repro.workloads.generators import append_delete_once

from tests.helpers import TestBed, wire_count
from tests.rpc.test_kernel import ECHO, start_echo

KIND = "grp.demo.bc"


def settle(bed):
    """Run the transport pumps' first steps so later deltas are clean."""
    bed.run(until=bed.sim.now + 1.0)


def events_of(bed, action):
    """Events scheduled by *action* and everything it causes."""
    before = bed.sim._sequence
    action()
    bed.run(until=bed.sim.now + 10.0)
    return bed.sim._sequence - before


class TestInterestFilter:
    def test_non_listener_gets_no_event(self):
        bed = TestBed(["src", "bystander"])
        settle(bed)
        events = events_of(bed, lambda: bed["src"].transport.broadcast(KIND, 1))
        assert events == 0
        assert bed["bystander"].transport.dropped_unroutable == 0
        assert wire_count(bed.network, "net.frames_sent") == 1  # still one frame on the wire

    def test_listener_gets_it_bystander_does_not(self):
        bed = TestBed(["src", "member", "bystander"])
        got = []
        bed["member"].transport.register(KIND, got.append)
        settle(bed)
        events = events_of(bed, lambda: bed["src"].transport.broadcast(KIND, 7))
        # One delivery at the member; the handler runs inside it.
        assert events == 1
        assert [(p.dst, p.payload, p.multicast) for p in got] == [
            ("member", 7, True)
        ]

    def test_a_bare_nic_listens_for_nothing(self):
        bed = TestBed(["src", "bystander"])
        bare = bed.network.attach("bare")
        settle(bed)
        assert not bare.interest and not bare.listens(KIND)
        assert events_of(bed, lambda: bed["src"].transport.broadcast(KIND, 1)) == 0

    def test_sender_never_hears_itself(self):
        bed = TestBed(["src"])
        got = []
        bed["src"].transport.register(KIND, got.append)
        settle(bed)
        assert events_of(bed, lambda: bed["src"].transport.broadcast(KIND, 1)) == 0
        assert got == []

    def test_unicast_is_not_filtered(self):
        bed = TestBed(["src", "bystander"])
        settle(bed)
        bed["src"].transport.send("bystander", KIND, 1)
        bed.run(until=bed.sim.now + 10.0)
        assert bed["bystander"].transport.dropped_unroutable == 1

    def test_late_handler_starts_receiving_and_restart_stops_it(self):
        bed = TestBed(["src", "m"])
        got = []
        settle(bed)
        bed["src"].transport.broadcast(KIND, "early")
        bed.run(until=bed.sim.now + 10.0)
        bed["m"].transport.register(KIND, got.append)
        bed["src"].transport.broadcast(KIND, "joined")
        bed.run(until=bed.sim.now + 10.0)
        assert [p.payload for p in got] == ["joined"]

        bed["m"].crash()
        bed["m"].restart()  # handlers are gone until services re-register
        settle(bed)
        assert not bed["m"].nic.listens(KIND)
        assert events_of(bed, lambda: bed["src"].transport.broadcast(KIND, 2)) == 0

        bed["m"].transport.register(KIND, got.append)
        bed["src"].transport.broadcast(KIND, "rejoined")
        bed.run(until=bed.sim.now + 10.0)
        assert [p.payload for p in got] == ["joined", "rejoined"]

    def test_crashed_listener_still_costs_a_dropped_delivery(self):
        """Crash is judged at arrival, as before: the dead machine's
        filter is still programmed, the frame finds the NIC down."""
        bed = TestBed(["src", "m"])
        bed["m"].transport.register(KIND, lambda packet: None)
        settle(bed)
        bed["m"].crash()
        bed["src"].transport.broadcast(KIND, 1)
        bed.run(until=bed.sim.now + 10.0)
        assert wire_count(bed.network, "net.frames_dropped") == 1

    def test_multicast_policy_sees_listening_receivers_only(self):
        bed = TestBed(["src", "member", "bystander"])
        bed["member"].transport.register(KIND, lambda packet: None)
        drop = bed.network.add_policy(Drop("eat", LinkFilter(multicast=True)))
        bed["src"].transport.broadcast(KIND, 1)
        bed.run(until=10.0)
        assert drop.dropped == 1
        assert bed.network.stats.policy_drops == {"eat": 1}


class TestLocate:
    def test_machine_without_endpoint_gets_no_locate(self):
        bed = TestBed(["client", "other"])
        rpc_kernel(bed["other"].transport)  # a pure client machine
        kernel = rpc_kernel(bed["client"].transport)
        settle(bed)
        assert not bed["other"].nic.listens(KIND_LOCATE)
        assert events_of(bed, lambda: kernel.start_locate(ECHO)) == 0

    def test_machine_with_endpoint_answers_hereis(self):
        bed = TestBed(["client", "server", "other"])
        rpc_kernel(bed["other"].transport)
        start_echo(bed["server"])
        client = RpcClient(bed["client"].transport)

        def run():
            return (yield from client.trans(ECHO, "hi"))

        assert bed.run_until(bed.sim.spawn(run())) == {"echo": "hi"}
        kinds = bed.network.stats.frames_by_kind
        assert kinds["rpc.locate"] == 1 and kinds["rpc.hereis"] == 1
        assert rpc_kernel(bed["client"].transport).port_cache[ECHO] == ["server"]
        assert bed["other"].transport.dropped_unroutable == 0

    def test_endpoint_registered_after_restart_listens_again(self):
        bed = TestBed(["server"])
        RpcServer(bed["server"].transport, ECHO)
        assert bed["server"].nic.listens(KIND_LOCATE)
        bed["server"].crash()
        bed["server"].restart()
        assert not bed["server"].nic.listens(KIND_LOCATE)
        RpcServer(bed["server"].transport, ECHO)
        assert bed["server"].nic.listens(KIND_LOCATE)


class TestFifoHorizon:
    """A multicast occupies the cable whether or not a NIC takes it:
    a unicast sent right behind it is not delivered ahead of it."""

    def reply_arrival(self, broadcast_from):
        bed = TestBed(["a", "b", "dst"], seed=5)
        arrived = []
        # dst takes no multicast, like an idle client.
        bed["dst"].transport.register(
            "rpc.reply", lambda packet: arrived.append((packet.kind, bed.sim.now))
        )
        if broadcast_from is not None:
            bed[broadcast_from].transport.broadcast(KIND, None, size=1400)
        bed["a"].transport.send("dst", "rpc.reply", None, size=64)
        bed.run()
        assert [kind for kind, _ in arrived] == ["rpc.reply"]
        return arrived[0][1], bed.network.latency.network

    def test_unicast_behind_a_broadcast_the_receiver_ignored(self):
        alone, wire = self.reply_arrival(broadcast_from=None)
        behind, _ = self.reply_arrival(broadcast_from="a")
        # A long multicast right in front: the short unicast alone
        # would be there first, behind it it may not be.
        assert alone < wire.transmit_time(1400) <= behind
        assert behind <= wire.transmit_time(1400) + wire.jitter_ms

    def test_horizon_is_per_sender(self):
        alone, _ = self.reply_arrival(broadcast_from=None)
        other, wire = self.reply_arrival(broadcast_from="b")
        assert other < wire.transmit_time(1400)
        assert abs(other - alone) <= wire.jitter_ms  # only the jitter draw differs


def scripted_snapshot(bystanders):
    """A fixed script of unicasts and multicasts; returns the wire
    counters and the instants the listeners saw each frame."""
    bed = TestBed(
        ["a", "b", "c"] + [f"idle{i}" for i in range(bystanders)], seed=3
    )
    seen = []
    for name in ("b", "c"):
        def handler(p, name=name):
            seen.append((name, p.kind, p.payload, bed.sim.now))

        bed[name].transport.register(KIND, handler)
        bed[name].transport.register("rpc.reply", handler)
    for i in range(5):
        bed["a"].transport.broadcast(KIND, i, size=200)
        bed["a"].transport.send("b", "rpc.reply", i, size=64)
        bed["c"].transport.broadcast("grp.other.hb", i)
        bed.run(until=bed.sim.now + 3.0)
    return bed.network.stats.full_snapshot(), seen


class TestWireAccounting:
    def test_full_snapshot_counts_frames_not_receivers(self):
        snapshot, seen = scripted_snapshot(bystanders=0)
        assert snapshot == {
            "frames_sent": 15,
            "bytes_sent": 5 * (200 + 64 + 128),
            "frames_dropped": 0,
            "frames_by_kind": {KIND: 5, "rpc.reply": 5, "grp.other.hb": 5},
            "frames_duplicated": 0,
            "frames_delayed": 0,
            "frames_reordered": 0,
            "policy_drops": {},
        }
        assert len(seen) == 15  # 5 x (bc at b, bc at c, reply at b)

    def test_bystanders_change_nothing_on_the_wire(self):
        assert scripted_snapshot(bystanders=0) == scripted_snapshot(bystanders=8)

    def test_link_meters_exist_for_listening_receivers_only(self):
        bed = TestBed(["src", "member", "bystander"])
        bed["member"].transport.register(KIND, lambda packet: None)
        bed["src"].transport.broadcast(KIND, 1, size=100)
        bed.run(until=10.0)
        nodes = set(bed.sim.obs.registry.snapshot())
        assert "link(src->member)" in nodes
        assert "link(src->bystander)" not in nodes


class TestListenerIndex:
    """The receivers of a multicast come from a per-kind index of
    listening addresses; no change to what a NIC listens for may leave
    it stale."""

    KINDS = (KIND, "grp.other.hb", "rpc.locate", "cache.inval")

    def test_index_matches_a_scan_after_every_change(self):
        rng = random.Random(25)
        sim = Simulator(seed=4)
        net = Network(sim, LatencyModel.paper_testbed())
        transports = []

        def noop(packet):
            pass

        def attach_bare():
            net.attach(f"bare{len(list(net._nics))}")

        def attach_transport():
            transports.append(Transport(sim, net.attach(f"m{len(list(net._nics))}")))

        def register():
            rng.choice(transports).register(rng.choice(self.KINDS), noop)

        def restart():
            rng.choice(transports).restart()

        def shutdown():
            net._nics.get(rng.choice(list(net._nics))).up = False

        def assign_interest():
            nic = net._nics.get(rng.choice(list(net._nics)))
            nic.interest = rng.choice(
                [(), set(rng.sample(self.KINDS, 2)), [self.KINDS[0]]]
            )

        steps = [attach_bare, attach_transport, register, register, register,
                 restart, shutdown, assign_interest]
        attach_bare()
        attach_transport()
        for step in range(400):
            action = rng.choice(steps)
            action()
            senders = [a for a in list(net._nics) if net._nics.get(a).up]
            if not senders:
                net._nics.get(list(net._nics)[0]).up = True
                continue
            src = rng.choice(senders)
            for kind in self.KINDS:
                scan = [
                    address
                    for address, nic in net._nics.items()
                    if address != src and kind in nic.interest
                ]
                first = sim._sequence
                net.transmit(src, BROADCAST, kind, step, 128)
                got = sorted(
                    (seq, fn.__self__.dst)
                    for _, seq, _, fn in sim._heap
                    if seq >= first
                )
                assert [dst for _, dst in got] == scan, (step, action.__name__, kind)
                sim.run()
        assert len(transports) > 10 and len(list(net._nics)) > 30


class TestEventBudget:
    def run_script(self, idle_clients):
        cluster = GroupServiceCluster(seed=11)
        cluster.start()
        cluster.wait_operational()
        for i in range(idle_clients):
            cluster.add_client(f"idle{i}")
        client = cluster.add_client("worker")
        root = cluster.root_capability
        holder = {}

        def setup():
            holder["target"] = yield from client.create_dir()

        cluster.run_process(setup())
        before = cluster.sim._sequence

        def script():
            for n in range(20):
                yield from append_delete_once(
                    client, root, f"row{n}", holder["target"]
                )

        cluster.run_process(script())
        assert cluster.replicas_consistent()
        return cluster.sim._sequence - before, cluster.sim.now

    def test_idle_machines_on_the_segment_cost_no_events(self):
        """A 3-replica cluster doing 20 append/delete pairs schedules
        the same events whether 0 or 32 idle client machines share the
        segment: heartbeats, bc/commit frames and locates reach the
        group and the servers, not the segment."""
        alone = self.run_script(idle_clients=0)
        crowded = self.run_script(idle_clients=32)
        assert crowded == alone

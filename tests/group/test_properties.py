"""Property-based tests of the group protocol's core invariants.

These drive randomized scenarios (seeded through hypothesis) and check
the guarantees the directory service is built on:

* **total order** — all members deliver the same message sequence,
  under concurrent senders, packet loss, and crash/reset cycles;
* **no loss of committed messages** — once SendToGroup returns, every
  surviving member eventually delivers the message;
* **per-sender FIFO** inside the total order.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.errors import GroupFailure, GroupResetFailed  # noqa: F401 (both used)
from repro.group import GroupMember, GroupTimings
from repro.net import Network
from repro.net.policy import Drop, Duplicate, LinkFilter
from repro.rpc import Transport
from repro.sim import Simulator

ADDRESSES = ("a", "b", "c")


def build(seed, loss=0.0, resilience=2):
    sim = Simulator(seed=seed)
    network = Network(sim)
    if loss:
        network.add_policy(Drop("loss", probability=loss))
    transports = {x: Transport(sim, network.attach(x)) for x in ADDRESSES}
    members = {x: GroupMember(t, "g") for x, t in transports.items()}
    members["a"].create(resilience)
    joined = ["a"]

    def reset(addr):
        try:
            yield from members[addr].reset()
        except GroupResetFailed:
            pass

    def join(addr):
        while True:
            try:
                yield from members[addr].join()
                if addr not in joined:
                    joined.append(addr)
                return
            except GroupFailure:
                # Join broadcasts can be lost — and under heavy loss
                # the EXISTING group may have failure-detected itself
                # before we got in. A real member's app thread would
                # reset it; play that caretaker role here.
                for other in list(joined):
                    if members[other].kernel.state == "failed":
                        yield from reset(other)
                continue

    for addr in ADDRESSES[1:]:
        sim.run_until_complete(sim.spawn(join(addr)), max_events=3_000_000)

    # A member whose copy of a join's grp.view was lost stays in the
    # view before it, and fails the group on the first frame of the new
    # one. Start the tests from one view of all three: a member out of
    # step with the newest view drops out and joins again, as the
    # paper's recovery (Fig. 6) does.
    while True:
        newest = max(ADDRESSES, key=lambda x: members[x].kernel.incarnation)
        lead = members[newest].kernel
        if lead.state == "failed":
            sim.run_until_complete(sim.spawn(reset(newest)), max_events=3_000_000)
            continue
        behind = [
            x for x in ADDRESSES
            if members[x].kernel.state == "failed"
            or (members[x].kernel.incarnation, members[x].kernel.view)
            != (lead.incarnation, lead.view)
        ]
        if not behind:
            return sim, network, transports, members
        for addr in behind:
            members[addr].kernel.go_idle()
            sim.run_until_complete(sim.spawn(join(addr)), max_events=3_000_000)


def common_prefix_equal(sequences):
    shortest = min(len(s) for s in sequences)
    head = [s[:shortest] for s in sequences]
    return all(h == head[0] for h in head), shortest


class TestTotalOrderProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_messages=st.integers(min_value=1, max_value=8),
        senders=st.lists(st.sampled_from(ADDRESSES), min_size=1, max_size=3,
                         unique=True),
    )
    def test_all_members_agree_on_order(self, seed, n_messages, senders):
        sim, _, _, members = build(seed)
        delivered = {x: [] for x in ADDRESSES}

        def sender(addr):
            for i in range(n_messages):
                yield from members[addr].send_to_group((addr, i))

        def receiver(addr):
            expected = n_messages * len(senders)
            while len(delivered[addr]) < expected:
                record = yield from members[addr].receive()
                delivered[addr].append(record.payload)

        for addr in ADDRESSES:
            sim.spawn(receiver(addr))
        for addr in senders:
            sim.spawn(sender(addr))
        sim.run(until=60_000.0)
        sequences = [delivered[x] for x in ADDRESSES]
        assert all(len(s) == n_messages * len(senders) for s in sequences)
        assert sequences[0] == sequences[1] == sequences[2]
        # Per-sender FIFO.
        for addr in senders:
            mine = [p for p in sequences[0] if p[0] == addr]
            assert mine == [(addr, i) for i in range(n_messages)]

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.sampled_from([0.02, 0.08, 0.15]),
    )
    # Seeds on which one member lost its copy of the last join's
    # grp.view, and build() returned with it in the view before.
    @example(seed=16, loss=0.02)
    @example(seed=49, loss=0.02)
    @example(seed=147, loss=0.02)
    @example(seed=240, loss=0.02)
    @example(seed=242, loss=0.02)
    @example(seed=294, loss=0.02)
    @example(seed=321, loss=0.02)
    def test_order_agrees_under_packet_loss(self, seed, loss):
        sim, _, _, members = build(seed, loss=loss)
        delivered = {x: [] for x in ADDRESSES}

        def sender(addr, count):
            for i in range(count):
                try:
                    yield from members[addr].send_to_group((addr, i))
                except GroupFailure:
                    return

        def receiver(addr):
            while True:
                try:
                    record = yield from members[addr].receive()
                except GroupFailure:
                    return
                delivered[addr].append(record.payload)

        for addr in ADDRESSES:
            sim.spawn(receiver(addr))
        sim.spawn(sender("a", 6))
        sim.spawn(sender("b", 6))
        sim.run(until=30_000.0)
        equal, shortest = common_prefix_equal(list(delivered.values()))
        # Safety always holds: members never disagree on the order.
        assert equal
        # Liveness is only guaranteed at modest loss; at 15% the
        # heartbeat failure detector may (correctly, per its spec)
        # declare the group failed before anything commits, and these
        # receivers do not run the application-level reset loop.
        if loss <= 0.05:
            assert shortest >= 1

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crash_target=st.sampled_from(ADDRESSES),
    )
    def test_committed_messages_survive_any_single_crash(self, seed, crash_target):
        """r = 2: whoever crashes, messages whose send completed are
        delivered by both survivors after the reset."""
        sim, _, transports, members = build(seed, resilience=2)
        survivors = [x for x in ADDRESSES if x != crash_target]
        sent = []
        outcome = {x: [] for x in survivors}

        def driver():
            for i in range(3):
                seqno = yield from members["a" if crash_target != "a" else "b"]\
                    .send_to_group(f"m{i}")
                sent.append(seqno)
            members[crash_target].crash()
            transports[crash_target].shutdown()
            yield sim.sleep(400.0)  # failure detection
            # One survivor rebuilds; the other adopts.
            try:
                yield from members[survivors[0]].reset()
            except GroupResetFailed:
                pass
            for addr in survivors:
                while len(outcome[addr]) < len(sent):
                    try:
                        record = yield from members[addr].receive()
                    except GroupFailure:
                        yield from members[addr].reset()
                        continue
                    outcome[addr].append(record.payload)

        process = sim.spawn(driver())
        sim.run(until=60_000.0)
        assert process.resolved and process.exception is None
        expected = [f"m{i}" for i in range(3)]
        for addr in survivors:
            assert outcome[addr] == expected


class TestOneRecordPerSeqno:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_every_copy_of_a_record_is_held_counted_and_delivered_once(self, seed):
        """A record reaches a member by multicast, by retransmission and
        in a reset vote tail, and every multicast arrives twice. However
        many copies arrive, each seqno is held as one record (the
        sequencer's own object, on every member), counted once in
        ``group.bc_rx``, delivered once, with one ``sequenced_ids``
        entry."""
        sim, network, transports, members = build(seed, resilience=1)
        sim.obs.tracer.enable()
        kernels = {x: members[x].kernel for x in ADDRESSES}
        twice = network.add_policy(Duplicate("twice", LinkFilter(kind="grp.*.bc")))

        def send(first, last):
            for i in range(first, last):
                yield from members["a"].send_to_group(("m", i))

        # Seqno 3 misses c; c notices the gap at 4 and has both resent.
        sim.run_until_complete(sim.spawn(send(0, 3)))
        network.add_policy(Drop("gap", LinkFilter(dst="c", kind="grp.*.bc"), max_drops=1))
        sim.run_until_complete(sim.spawn(send(3, 5)))
        sim.run(until=sim.now + 20.0)
        assert kernels["c"].received == 4
        assert sim.obs.registry.counter("a", "group.retrans_served").value >= 1
        # Seqno 5 misses c too, and c cannot ask for it: c holds 6 above
        # its gap, b holds both, then the sequencer dies.
        network.add_policy(Drop("gap2", LinkFilter(dst="c", kind="grp.*.bc"), max_drops=1))
        network.add_policy(Drop("mute", LinkFilter(src="c", kind="grp.*.retrans")))
        sim.run_until_complete(sim.spawn(send(5, 7)))
        sim.run(until=sim.now + 20.0)
        members["a"].crash()
        transports["a"].shutdown()
        sim.run(until=sim.now + 400.0)
        assert kernels["c"].received == 4 and 6 in kernels["c"].history
        assert kernels["b"].received == 6

        # c (the stronger key) coordinates: b's vote tail 5..6 overlaps
        # the 6 c already holds.
        for process in [sim.spawn(members[x].reset()) for x in ("b", "c")]:
            sim.run_until_complete(process)
        assert kernels["c"].view_log[-1]["trigger"] == "reset"
        sim.run(until=sim.now + 50.0)
        for x in ("b", "c"):
            got = [r.payload for r in members[x].receive_ready()]
            assert got == [("m", i) for i in range(7)]
            assert sorted(kernels[x].sequenced_ids.values()) == list(range(7))
        events = sim.obs.tracer.events()
        for x in ("b", "c"):
            for name, counter in (("grp.bc.rx", "group.bc_rx"), ("grp.deliver", "group.delivered")):
                seqnos = Counter(e.args["seqno"] for e in events if e.node == x and e.name == name)
                assert set(seqnos.values()) == {1}
                assert sum(seqnos.values()) == sim.obs.registry.counter(x, counter).value
        for seqno in range(7):
            assert kernels["b"].history[seqno] is kernels["c"].history[seqno]
        assert twice.matched > 0

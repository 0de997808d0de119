"""The Fig. 5 initiator wait: ``wait_applied`` parks one entry per
caller on its target seqno, ``notify_progress`` resumes only the
callers whose target the application reached (in registration order),
and ``fail_group`` fails the rest."""

from repro.cluster import GroupServiceCluster
from repro.errors import GroupFailure
from repro.group import GroupMember

from tests.helpers import TestBed

#: Registration order of the eight waiters' targets: within each batch
#: one notify releases below, registration order is not target order.
TARGETS = [5, 3, 7, 1, 2, 6, 0, 4]


def parked_waiters():
    """A one-member group with eight processes parked in wait_applied."""
    bed = TestBed(["a"])
    member = GroupMember(bed["a"].transport, "g")
    member.create(resilience=0)
    progress = {"applied": -1}
    resumed, failed = [], []

    def waiter(target):
        try:
            yield from member.wait_applied(target, lambda: progress["applied"])
        except GroupFailure:
            failed.append(target)
            return
        resumed.append(target)

    for target in TARGETS:
        bed.sim.spawn(waiter(target), f"waiter-{target}")
    bed.run(until=1.0)
    return bed, member, progress, resumed, failed


def assert_every_entry_has_a_live_owner(kernel):
    """Each parked entry is pending and is what one live process waits on."""
    for _, fut in kernel.apply_waiters:
        assert not fut.resolved
        [settled] = fut._callbacks
        process = settled.__self__
        assert not process.resolved and process._waiting_on is fut


class TestResumeOnlyTheSatisfied:
    def test_each_notify_resumes_exactly_the_satisfied_in_registration_order(self):
        bed, member, progress, resumed, _ = parked_waiters()
        kernel = member.kernel
        assert [target for target, _ in kernel.apply_waiters] == TARGETS
        for applied in (1, 1, 4, 6, 7):
            progress["applied"] = applied
            due = [t for t in TARGETS if t <= applied and t not in resumed]
            before = bed.sim._sequence
            member.notify_progress()
            # One posted wakeup per newly satisfied waiter, none for the rest.
            assert bed.sim._sequence - before == len(due)
            assert [t for t, _ in kernel.apply_waiters] == [
                t for t in TARGETS if t > applied
            ]
            seen = len(resumed)
            bed.run(until=bed.sim.now + 1.0)
            assert resumed[seen:] == due  # registration order
        assert resumed == [1, 0, 3, 2, 4, 5, 6, 7]
        assert kernel.apply_waiters == []

    def test_wakeups_take_sequence_numbers_in_registration_order(self):
        """Resolve order is event order: one notify that reaches every
        target posts the wakeups with ascending sequence numbers in
        registration order, not target order; a notify that reaches
        none posts nothing and keeps every entry."""
        bed, member, progress, resumed, _ = parked_waiters()
        sim = bed.sim
        processes = {p._resume: p.name for p in sim.alive_processes()}

        progress["applied"] = min(TARGETS) - 1
        before = sim._sequence
        member.notify_progress()
        assert sim._sequence == before
        assert [t for t, _ in member.kernel.apply_waiters] == TARGETS

        progress["applied"] = max(TARGETS)
        member.notify_progress()
        posted = sorted(
            (seq, processes[wake]) for _, seq, _, wake in sim._heap if seq >= before
        )
        assert [name for _, name in posted] == [f"waiter-{t}" for t in TARGETS]
        assert member.kernel.apply_waiters == []
        bed.run(until=sim.now + 1.0)
        assert resumed == TARGETS

    def test_a_reached_target_does_not_park(self):
        bed, member, progress, _, _ = parked_waiters()
        progress["applied"] = 3

        def late():
            yield from member.wait_applied(3, lambda: progress["applied"])
            return "through"

        process = bed.sim.spawn(late())
        bed.run(until=bed.sim.now + 1.0)
        assert process.value == "through"
        assert len(member.kernel.apply_waiters) == len(TARGETS)


class TestFailureWakesEveryone:
    def test_fail_group_makes_every_parked_waiter_raise(self):
        bed, member, _, resumed, failed = parked_waiters()
        member.kernel.fail_group("test failure")
        assert member.kernel.apply_waiters == []
        bed.run(until=bed.sim.now + 1.0)
        assert resumed == []
        assert failed == TARGETS

    def test_a_waiter_on_a_failed_group_raises_at_once(self):
        bed, member, _, _, _ = parked_waiters()
        member.kernel.fail_group("test failure")
        bed.run(until=bed.sim.now + 1.0)

        def late():
            yield from member.wait_applied(9, lambda: -1)

        process = bed.sim.spawn(late())
        bed.run(until=bed.sim.now + 1.0)
        assert isinstance(process.exception, GroupFailure)
        assert member.kernel.apply_waiters == []


class TestNoEntryOutlivesItsProcess:
    """A killed waiter takes its entry along. End to end: crash the
    sequencer while writers are parked on it, let the survivors reset,
    and check every kernel's waiter list throughout."""

    def test_a_killed_waiter_takes_its_entry_with_it(self):
        bed, member, _, _, _ = parked_waiters()
        [victim] = [p for p in bed.sim.alive_processes() if p.name == "waiter-6"]
        victim.kill("crash")
        assert [t for t, _ in member.kernel.apply_waiters] == [
            t for t in TARGETS if t != 6
        ]

    def test_crash_and_reset_under_writers(self):
        cluster = GroupServiceCluster(seed=0, server_threads=8)
        cluster.start()
        cluster.wait_operational()
        sim = cluster.sim
        root = cluster.root_capability
        stop = {"at": None}

        def writer(i):
            client = cluster.add_client(f"w{i}", retry_safe=True)
            n = 0
            while stop["at"] is None or sim.now < stop["at"]:
                yield from client.append_row(root, f"w{i}-{n}", (root,))
                n += 1

        writers = [sim.spawn(writer(i), f"w{i}") for i in range(8)]
        cluster.run(until=sim.now + 1_500.0)
        [victim] = [
            i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
        ]
        kernel = cluster.servers[victim].member.kernel
        for _ in range(1_000):
            if kernel.apply_waiters:
                break
            cluster.run(until=sim.now + 0.5)
        assert kernel.apply_waiters, "no writer ever parked on the victim"
        cluster.crash_server(victim)
        assert kernel.apply_waiters == []

        survivors = [s for s in cluster.servers if s.alive]
        resets = [
            cluster.obs.registry.counter(str(s.me), "dir.resets")
            for s in survivors
        ]
        before = [counter.value for counter in resets]
        stop["at"] = sim.now + 4_000.0
        while sim.now < stop["at"]:
            cluster.run(until=sim.now + 20.0)
            for server in survivors:
                assert_every_entry_has_a_live_owner(server.member.kernel)
        assert all(c.value > b for c, b in zip(resets, before))
        for process in writers:
            sim.run_until_complete(process)
        cluster.run(until=sim.now + 500.0)
        for server in survivors:
            assert server.member.kernel.apply_waiters == []

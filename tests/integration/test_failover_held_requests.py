"""A crash the clients do not sit out.

When a replica dies and the survivors keep a majority, the requests in
flight at the survivors are *held* across the group reset and carried
on afterwards (a write whose send died is resubmitted under its old
message id), and the requests that were inside the dead machine are
given up on as soon as its kernel fails to answer an enquiry. No
client is handed ``ServiceDown`` or ``NoMajority``, none waits out its
10 s reply timeout, and nothing is applied twice. Only a reset that
ends *without* a majority refuses (tests/integration/
test_resource_hygiene.py checks that one, and what it leaves behind).
"""

import dataclasses

import pytest

from repro.cluster import GroupServiceCluster, ReplicatedBulletCluster
from repro.errors import AlreadyExists, NotFound
from repro.group import GroupTimings
from repro.net.policy import Drop, LinkFilter
from repro.verify import HistoryRecorder, check_linearizability

from tests.helpers import counter_total, pin_to_server


def record_trans_errors(client, seen):
    """Note every exception the RPC layer hands this directory client
    (a retry-safe client swallows some of them and resends)."""
    trans = client.rpc.trans

    def spying(*args, **kwargs):
        try:
            reply = yield from trans(*args, **kwargs)
        except Exception as exc:
            seen.append(exc)
            raise
        return reply

    client.rpc.trans = spying


def row_names(server, obj):
    return list(server.state.directories[obj].names())


def append_rows(cluster):
    """Directory writers: ``(write one name, the names a replica holds)``."""
    root = cluster.root_capability

    def write(client, name):
        yield from client.append_row(root, name, (root,))

    return write, lambda server: row_names(server, 1)


def create_files(cluster):
    """The same for the file service: one file per name, holding it."""

    def write(client, name):
        yield from client.create(name.encode())

    def names(server):
        files = server.state.directories
        return [files[obj].data.decode() for obj in sorted(files) if obj != 1]

    return write, names


class TestSequencerCrashUnderWriters:
    @pytest.mark.parametrize(
        "cluster_class, n_writers, workload, seed",
        [
            pytest.param(GroupServiceCluster, 8, append_rows, 0, id="0"),
            pytest.param(GroupServiceCluster, 8, append_rows, 3, id="3"),
            pytest.param(GroupServiceCluster, 8, append_rows, 17, id="17"),
            pytest.param(ReplicatedBulletCluster, 4, create_files, 0, id="files"),
        ],
    )
    def test_no_client_sees_the_crash(self, cluster_class, n_writers, workload, seed):
        cluster = cluster_class(seed=seed, server_threads=8)
        cluster.start()
        cluster.wait_operational()
        sim = cluster.sim
        write, names_held = workload(cluster)
        acked, durations, surfaced = [], [], []
        stop = {"at": None}

        [victim] = [
            i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
        ]

        def writer(i):
            client = cluster.add_client(f"w{i}", retry_safe=True)
            # Where the locate race puts the writers is the seed's
            # business; one inside the victim and one on a survivor is
            # what the two counters below are about.
            if i < 2:
                pin_to_server(client, cluster, (victim + i) % 3)
            record_trans_errors(client, surfaced)
            n = 0
            while stop["at"] is None or sim.now < stop["at"]:
                name = f"w{i}-{n}"
                started = sim.now
                yield from write(client, name)
                durations.append(sim.now - started)
                acked.append(name)
                n += 1

        writers = [sim.spawn(writer(i), f"w{i}") for i in range(n_writers)]
        cluster.run(until=sim.now + 1_500.0)
        assert cluster.servers[victim].member.is_sequencer
        cluster.crash_server(victim)
        stop["at"] = sim.now + 4_000.0
        for process in writers:
            sim.run_until_complete(process)
        cluster.run(until=sim.now + 500.0)

        # Nobody waited out a reply timeout; nobody was handed an error.
        assert max(durations) < 2_000.0
        assert surfaced == []
        # The survivors held what they had in hand and sent it again.
        assert counter_total(cluster.sim, "dir.held") >= 1
        assert counter_total(cluster.sim, "dir.refused") == 0
        # The writers inside the dead machine found out by asking.
        assert counter_total(cluster.sim, "rpc.enquiry_failed") >= 1
        # Every acknowledged write exactly once, on every survivor.
        assert len(acked) == len(set(acked)) > n_writers * 10
        survivors = [s for s in cluster.servers if s.alive]
        assert len(survivors) == 2
        for server in survivors:
            names = names_held(server)
            assert len(names) == len(set(names))
            assert set(acked) <= set(names)
            # A row nobody was told about may exist (its writer's
            # server died holding the request, and the resend found
            # the session record) — but never a second copy.
        assert cluster.replicas_consistent()


class TestPlainClientPinnedToASurvivor:
    """The E13 set-up: a client *without* sessions, pinned to a
    survivor, appends right after a member crash. The replica holds
    the request across the reset, so the one attempt succeeds."""

    @pytest.mark.parametrize("heartbeat_timeout_ms", [60.0, 120.0])
    def test_append_after_a_member_crash_succeeds_once(self, heartbeat_timeout_ms):
        timings = GroupTimings(
            heartbeat_interval_ms=max(10.0, heartbeat_timeout_ms / 5.0),
            heartbeat_timeout_ms=heartbeat_timeout_ms,
        )
        cluster = GroupServiceCluster(seed=0, group_timings=timings)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("probe")
        root = cluster.root_capability

        def probe():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "canary", (sub,))
            pin_to_server(client, cluster, 0)
            cluster.crash_server(2)
            started = cluster.sim.now
            yield from client.append_row(root, "after-crash", (sub,))
            return cluster.sim.now - started

        took = cluster.run_process(probe())
        # Detection, one reset round, the commit block, one update.
        assert heartbeat_timeout_ms < took < heartbeat_timeout_ms + 250.0
        assert client.rpc.transactions == 3  # one trans per operation
        assert client.rpc._c_retries.value == 0
        assert counter_total(cluster.sim, "dir.refused") == 0
        # The send died with the view (the dead member's ack never
        # came), the sequencer survived holding the message, and the
        # resubmission under the same id was answered from its table.
        assert counter_total(cluster.sim, "dir.held") == 1
        assert counter_total(cluster.sim, "dir.resubmitted") == 1
        assert counter_total(cluster.sim, "group.sequenced") == 3
        for server in cluster.servers[:2]:
            assert row_names(server, 1).count("after-crash") == 1
        assert cluster.replicas_consistent()

    def test_append_the_dead_sequencer_never_saw_is_sequenced_afresh(self):
        """The other resubmission: the request for sequencing went to a
        machine that was already dead, so no survivor holds the
        message and the new sequencer numbers it for the first time."""
        cluster = GroupServiceCluster(seed=4)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("probe")
        root = cluster.root_capability
        [sequencer] = [
            i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
        ]
        survivor = (sequencer + 1) % 3

        def probe():
            yield from client.append_row(root, "canary", (root,))
            pin_to_server(client, cluster, survivor)
            sequenced = counter_total(cluster.sim, "group.sequenced")
            cluster.crash_server(sequencer)
            started = cluster.sim.now
            yield from client.append_row(root, "after-crash", (root,))
            return cluster.sim.now - started, sequenced

        took, sequenced = cluster.run_process(probe())
        assert took < GroupTimings().heartbeat_timeout_ms + 250.0
        assert client.rpc._c_retries.value == 0
        assert counter_total(cluster.sim, "dir.resubmitted") == 1
        assert counter_total(cluster.sim, "dir.refused") == 0
        assert counter_total(cluster.sim, "group.sequenced") == sequenced + 1
        for server in cluster.servers:
            if server.alive:
                assert row_names(server, 1).count("after-crash") == 1
        assert cluster.replicas_consistent()

    def test_read_held_across_the_reset_is_answered(self):
        cluster = GroupServiceCluster(seed=2)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("reader")
        root = cluster.root_capability
        server = cluster.servers[0]

        def work():
            yield from client.append_row(root, "there", (root,))
            pin_to_server(client, cluster, 0)
            cluster.crash_server(2)
            # Wait for the survivor to be mid-reset, then read.
            while server.operational:
                yield cluster.sim.sleep(1.0)
            assert not server.has_majority()
            found = yield from client.lookup(root, "there")
            return found

        assert cluster.run_process(work()) == root
        assert counter_total(cluster.sim, "dir.held") >= 1
        assert counter_total(cluster.sim, "dir.refused") == 0


class TestCacheBarrierHeld:
    """A write that is applied and persisted but still waiting for the
    cache write barrier when the group resets: the reset keeps the
    majority, so the barrier is resumed (under the view-change fence),
    not abandoned with ``NoMajority``."""

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_reset_mid_barrier(self, seed):
        cluster = GroupServiceCluster(
            seed=seed, server_threads=8, cache_coherence=True
        )
        cluster.start()
        cluster.wait_operational()
        sim, root = cluster.sim, cluster.root_capability
        history = HistoryRecorder()
        surfaced, durations = [], []
        stop = {"at": None}
        parked = {}  # server index -> when its oldest barrier wait began

        def spy_on_barrier(index, coherence):
            wait_clean = coherence.wait_clean

            def spying(target):
                parked.setdefault(index, sim.now)
                try:
                    yield from wait_clean(target)
                finally:
                    parked.pop(index, None)

            coherence.wait_clean = spying

        for index, server in enumerate(cluster.servers):
            spy_on_barrier(index, server.coherence)
        [victim] = [
            i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
        ]

        def writer(i):
            tag = f"c{i}"
            client = cluster.add_client(tag, retry_safe=True, cache_size=32)
            if i == 0:
                # The locate race may put every client on the victim;
                # a barrier can only be seen parked on a survivor.
                pin_to_server(client, cluster, (victim + 1) % 3)
            record_trans_errors(client, surfaced)
            rng = sim.rng.stream(f"test.client.{tag}")
            n = 0
            while stop["at"] is None or sim.now < stop["at"]:
                name = f"shared-{rng.randrange(4)}"
                kind = rng.choice(["append", "delete", "lookup", "lookup"])
                n += 1
                started = sim.now
                try:
                    if kind == "append":
                        value = dataclasses.replace(
                            root, check=(i + 1) * 1_000_000 + n
                        )
                        yield from client.append_row(root, name, (value,))
                    elif kind == "delete":
                        value = None
                        yield from client.delete_row(root, name)
                    else:
                        value = yield from client.lookup(root, name)
                except (AlreadyExists, NotFound):
                    continue  # a deterministic reply, not a failure
                finally:
                    durations.append(sim.now - started)
                history.record(
                    tag, kind, (1, name), value, started, sim.now,
                    source="cache"
                    if kind == "lookup" and client.last_lookup_from_cache
                    else "server",
                )

        writers = [sim.spawn(writer(i), f"c{i}") for i in range(4)]
        cluster.run(until=sim.now + 1_500.0)
        assert cluster.servers[victim].member.is_sequencer
        # The sequencer stops hearing invalidation acks, so its clean
        # seqno stalls and the survivors' writes park in the barrier
        # waiting for it. Crash it once one has been parked a while.
        cluster.network.add_policy(
            Drop(
                "deaf-sequencer",
                LinkFilter(
                    dst=(str(cluster.sites[victim].dir_address),),
                    kind="cache.invack",
                ),
            )
        )
        deadline = sim.now + 2_000.0
        while sim.now < deadline and not any(
            index != victim and sim.now - since > 20.0
            for index, since in parked.items()
        ):
            cluster.run(until=sim.now + 1.0)
        assert any(index != victim for index in parked), "nothing parked"
        cluster.crash_server(victim)
        stop["at"] = sim.now + 5_000.0
        for process in writers:
            sim.run_until_complete(process)
        cluster.run(until=sim.now + 500.0)

        # No client was handed the reset; the parked write was held.
        assert [
            exc for exc in surfaced
            if not isinstance(exc, (AlreadyExists, NotFound))
        ] == []
        assert counter_total(sim, "dir.refused") == 0
        assert counter_total(sim, "dir.held") >= 1
        # The fence is the longest anyone waits (lease + slack).
        assert max(durations) < cluster.config.cache_lease_ms + 1_500.0
        reader = cluster.add_client("final")

        def final_reads():
            for k in range(4):
                started = sim.now
                got = yield from reader.lookup(root, f"shared-{k}")
                history.record(
                    "final", "lookup", (1, f"shared-{k}"), got, started, sim.now
                )

        cluster.run_process(final_reads())
        assert history.cache_served_reads() > 0
        assert check_linearizability(history) == []
        assert cluster.replicas_consistent()

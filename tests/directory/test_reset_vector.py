"""The configuration-vector write of a reset, beside the group thread.

When a reset keeps the majority, each survivor writes the new view's
configuration vector to its commit block (Fig. 5). The write is issued
at the verdict and runs beside the group thread, which goes back to
applying the held and resubmitted records meanwhile; every reply
waits until the write has landed (docs/PROTOCOL.md, "Group failure").
These tests pin down the window that opens:

* no reply leaves in the new view before the survivor's vector is on
  its disk, while applying does overlap the write;
* a survivor killed with the write in flight leaves nothing behind,
  reboots, and no acknowledged write is lost; one whose disk fails
  under the write fences itself;
* two resets in a row leave the later view's vector on disk.
"""

import pytest

from repro.cluster import GroupServiceCluster, NvramServiceCluster
from repro.directory.admin import COMMIT_BLOCK, CommitBlock
from repro.errors import Interrupted


#: A seed whose crash catches records sequenced and not yet applied at
#: both survivors, so the reset finds work to overlap with the write
#: (on most seeds the held writes are applied already and only wait).
SEED = 7


def writers_then_crash(cluster_class=GroupServiceCluster, seed=SEED):
    """Eight retry-safe writers and two readers for 1.5 s, then the
    sequencer's crash.

    Returns ``(cluster, victim, acked, stop)``: *acked* collects the
    names whose append was acknowledged, and setting ``stop["at"]``
    ends the writers' loops at that simulated time."""
    cluster = cluster_class(seed=seed, server_threads=8)
    cluster.start()
    cluster.wait_operational()
    sim, root = cluster.sim, cluster.root_capability
    acked, stop = [], {"at": None}

    def writer(i):
        client = cluster.add_client(f"w{i}", retry_safe=True)
        n = 0
        while stop["at"] is None or sim.now < stop["at"]:
            name = f"w{i}-{n}"
            try:
                yield from client.append_row(root, name, (root,))
            except Exception:
                yield sim.sleep(100.0)  # nothing acknowledged; go on
            else:
                acked.append(name)
            n += 1

    def reader(i):
        client = cluster.add_client(f"r{i}", retry_safe=True)
        while stop["at"] is None or sim.now < stop["at"]:
            try:
                yield from client.lookup(root, "w0-0")
            except Exception:
                pass
            yield sim.sleep(10.0)

    for i in range(8):
        sim.spawn(writer(i), f"w{i}")
    for i in range(2):
        sim.spawn(reader(i), f"r{i}")
    cluster.run(until=sim.now + 1_500.0)
    [victim] = [
        i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
    ]
    cluster.crash_server(victim)
    return cluster, victim, acked, stop


def record_vector_writes(server, log):
    """Append ``(issued at, landed at, vector)`` to *log* for every
    configuration-vector write *server* makes from now on."""
    write = server._write_vector
    sim = server.sim

    def recording(config_vector):
        issued = sim.now
        yield from write(config_vector)
        log.append((issued, sim.now, config_vector))

    server._write_vector = recording


def vector_on_disk(cluster, index):
    raw = cluster.sites[index].partition.peek_block(COMMIT_BLOCK)
    return CommitBlock.from_bytes(raw, cluster.config.n_servers).config_vector


def crash_and_watch(cluster_class, seed):
    """Writers, the sequencer's crash, then 3.5 s traced. Returns
    ``(cluster, victim, {survivor: its vector writes}, trace events)``."""
    cluster, victim, _, stop = writers_then_crash(cluster_class, seed)
    sim = cluster.sim
    cluster.enable_tracing()
    logs = {i: [] for i in range(3) if i != victim}
    for i, log in logs.items():
        record_vector_writes(cluster.servers[i], log)
    stop["at"] = sim.now + 3_000.0
    cluster.run(until=sim.now + 3_500.0)
    return cluster, victim, logs, list(cluster.obs.tracer.events())


class TestRepliesWaitForTheVector:
    @pytest.mark.parametrize(
        "cluster_class, seed",
        [
            # The held writes were applied in the old view: only the
            # reply path stands between them and the client.
            pytest.param(GroupServiceCluster, 0, id="held-applied"),
            # Records applied in the new view: the cut's blocks queue
            # behind the vector on the arm.
            pytest.param(GroupServiceCluster, SEED, id="applied-new"),
            # The cut never touches the disk: nothing but the reply
            # path orders a reply after the vector.
            pytest.param(NvramServiceCluster, 0, id="nvram"),
        ],
    )
    def test_no_reply_in_the_new_view_before_the_vector_is_durable(
        self, cluster_class, seed
    ):
        cluster, victim, logs, events = crash_and_watch(cluster_class, seed)
        for i, log in logs.items():
            node = str(cluster.servers[i].me)
            [(issued, landed, vector)] = log
            assert vector == tuple(k != victim for k in range(3))
            assert landed > issued
            replies = [
                e.ts for e in events
                if e.node == node
                and e.name in ("dir.write.reply", "dir.read.reply")
            ]
            assert not [t for t in replies if issued <= t < landed]
            assert [t for t in replies if t >= landed], "nothing replied after"

    def test_the_group_thread_applies_while_the_vector_is_written(self):
        cluster, _, logs, events = crash_and_watch(GroupServiceCluster, SEED)
        for i, [(issued, landed, _)] in logs.items():
            node = str(cluster.servers[i].me)
            assert [
                e for e in events
                if e.node == node and e.name == "dir.apply.start"
                and issued <= e.ts < landed
            ]


def catch_mid_write(cluster, victim):
    """Run until a survivor has its vector write in flight and writers
    waiting on it; return that survivor's index."""

    def caught(server):
        vector = server._vector_write
        return (
            vector is not None and not vector.resolved
            and server._reply_slots and server.member.kernel.apply_waiters
        )

    for _ in range(4_000):
        for i in range(3):
            if i != victim and caught(cluster.servers[i]):
                return i
        cluster.run(until=cluster.sim.now + 0.5)
    raise AssertionError("no survivor was caught mid-write")


class TestKilledWithTheVectorInFlight:
    def test_leaves_nothing_behind_and_loses_no_acknowledged_write(self):
        cluster, victim, acked, stop = writers_then_crash()
        sim = cluster.sim
        in_flight = catch_mid_write(cluster, victim)
        server = cluster.servers[in_flight]
        vector = server._vector_write
        cluster.crash_server(in_flight)
        assert isinstance(vector.exception, Interrupted)
        # Deferred Bullet deletes (``.gc``) are the store's, not the
        # server's: they finish or fail on their own.
        assert [
            p.name for p in sim.alive_processes()
            if p.name.startswith(f"dir.{in_flight}.")
            and not p.name.endswith(".gc")
        ] == []
        assert server._reply_slots == {}
        assert server.member.kernel.apply_waiters == []
        # The write never landed: the disk still holds the old view.
        assert vector_on_disk(cluster, in_flight) == (True, True, True)

        cluster.run(until=sim.now + 500.0)
        cluster.restart_server(in_flight)
        cluster.restart_server(victim)
        cluster.wait_operational(timeout_ms=60_000.0)
        stop["at"] = sim.now
        cluster.run(until=sim.now + 3_000.0)
        assert len(cluster.operational_servers()) == 3
        assert cluster.replicas_consistent()
        assert acked
        for s in cluster.servers:
            held = set(s.state.directories[1].names())
            assert [name for name in acked if name not in held] == []

    def test_a_failed_write_fences_the_replica(self):
        # An idle group: no cut follows the reset to hit the dead disk,
        # so only the vector write itself can notice.
        cluster = GroupServiceCluster(seed=SEED)
        cluster.start()
        cluster.wait_operational()
        sim = cluster.sim
        [victim] = [
            i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
        ]
        cluster.crash_server(victim)
        server = cluster.servers[(victim + 1) % 3]
        for _ in range(4_000):
            vector = server._vector_write
            if vector is not None and not vector.resolved:
                break
            cluster.run(until=sim.now + 0.5)
        assert not server._vector_write.resolved
        cluster.sites[server.index].disk.fail()
        cluster.run(until=sim.now + 500.0)
        assert not server.alive
        node = str(server.me)
        assert cluster.obs.registry.counter(node, "dir.fenced").value == 1


class TestTwoResetsInARow:
    def test_the_later_view_s_vector_is_on_disk(self):
        # Five idle servers, so a second crash still leaves a majority
        # and every group thread is back in ReceiveFromGroup at once: a
        # detector that names the second victim makes the second reset
        # land while the first one's vector write is still in flight.
        cluster = GroupServiceCluster(n_servers=5, seed=31, resilience=4)
        cluster.start()
        cluster.wait_operational()
        sim = cluster.sim
        [first] = [
            i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
        ]
        cluster.crash_server(first)
        others = [i for i in range(5) if i != first]
        logs = {i: [] for i in others}
        for i in others:
            record_vector_writes(cluster.servers[i], logs[i])
        watcher = cluster.servers[others[0]]
        for _ in range(10_000):
            vector = watcher._vector_write
            if vector is not None and not vector.resolved:
                break
            cluster.run(until=sim.now + 0.5)
        second = others[-1]
        cluster.crash_server(second)
        watcher.member.kernel.fail_group(
            "second crash", announce=True,
            suspect=cluster.config.server_addresses[second],
        )
        cluster.run(until=sim.now + 3_000.0)
        earlier = tuple(k != first for k in range(5))
        later = tuple(k not in (first, second) for k in range(5))
        overlapped = 0
        for i in others[:-1]:
            assert [v for _, _, v in logs[i]] == [earlier, later]
            (_, landed, _), (issued, _, _) = logs[i]
            overlapped += issued < landed
            assert vector_on_disk(cluster, i) == later
        assert overlapped, "no second write was issued with the first in flight"

"""Fault-tolerance scenarios for the group directory service:
crashes, partitions, restarts, and the Fig. 6 recovery protocol."""

import pytest

from repro.cluster import GroupServiceCluster
from repro.errors import DirectoryError, NoMajority, ReproError


@pytest.fixture
def cluster():
    c = GroupServiceCluster(seed=13)
    c.start()
    c.wait_operational()
    return c


def settle(cluster, ms=2500.0):
    cluster.run(until=cluster.sim.now + ms)


class TestSingleCrash:
    def test_service_survives_one_server_crash(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def before():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "pre", (sub,))

        cluster.run_process(before())
        cluster.crash_server(2)
        settle(cluster)  # detection + reset + commit-block write

        def after():
            found = yield from client.lookup(root, "pre")
            assert found is not None
            sub = yield from client.create_dir()
            yield from client.append_row(root, "post", (sub,))
            rows = yield from client.list_dir(root)
            return sorted(row.name for row in rows)

        assert cluster.run_process(after()) == ["post", "pre"]
        up = cluster.operational_servers()
        assert len(up) == 2
        assert cluster.replicas_consistent()

    def test_sequencer_crash_also_survivable(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability
        # Server 0 created the group, so it sequences.
        cluster.crash_server(0)
        settle(cluster)

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "after-seq-crash", (sub,))
            found = yield from client.lookup(root, "after-seq-crash")
            return found is not None

        assert cluster.run_process(work()) is True
        assert cluster.replicas_consistent()

    def test_crashed_server_recovers_and_catches_up(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability
        cluster.crash_server(2)
        settle(cluster)

        def during():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "while-down", (sub,))

        cluster.run_process(during())
        cluster.restart_server(2)
        settle(cluster, 5000.0)
        server = cluster.servers[2]
        assert server.operational
        assert cluster.replicas_consistent()
        # The restarted replica has the update it missed.
        assert "while-down" in server.state.directories[1].names()

    def test_two_crashes_stop_service(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability
        cluster.crash_server(1)
        cluster.crash_server(2)
        settle(cluster)

        def work():
            try:
                yield from client.lookup(root, "x")
            except ReproError as exc:
                return type(exc).__name__
            return "served"

        # Reads must be refused: one server is a minority.
        assert cluster.run_process(work()) != "served"


class TestPartitions:
    def test_minority_side_refuses_even_reads(self, cluster):
        """Section 3.1's scenario: reads on the minority side would
        let a client see a directory it successfully deleted."""
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def seed_data():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "foo", (sub,))

        cluster.run_process(seed_data())
        cluster.partition_network([0, 1], [2])
        settle(cluster)
        minority = cluster.servers[2]
        assert not minority.has_majority()

        # A client stuck on the minority side is refused.
        lone = cluster.add_client("lonely")
        cluster.network.partitions.split(
            [
                [cluster.sites[0].dir_address, cluster.sites[0].bullet_address,
                 cluster.sites[1].dir_address, cluster.sites[1].bullet_address],
                [cluster.sites[2].dir_address, cluster.sites[2].bullet_address,
                 f"{cluster.name}.client.lonely"],
            ]
        )

        def read_on_minority():
            try:
                yield from lone.lookup(root, "foo")
            except ReproError as exc:
                return type(exc).__name__
            return "served"

        assert cluster.run_process(read_on_minority()) != "served"

    def test_majority_side_keeps_serving(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability
        cluster.partition_network([0, 1], [2])
        settle(cluster)

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "during-partition", (sub,))
            found = yield from client.lookup(root, "during-partition")
            return found is not None

        assert cluster.run_process(work()) is True

    def test_heal_and_rejoin_after_partition(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability
        cluster.partition_network([0, 1], [2])
        settle(cluster)

        def during():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "partition-write", (sub,))

        cluster.run_process(during())
        cluster.heal_network()
        settle(cluster, 8000.0)
        # The isolated server rejoins via recovery and catches up.
        assert cluster.servers[2].operational
        assert cluster.replicas_consistent()
        assert "partition-write" in cluster.servers[2].state.directories[1].names()


class TestFullRestart:
    def test_total_stop_and_restart_recovers_state(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def before():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "durable", (sub,))

        cluster.run_process(before())
        settle(cluster, 1000.0)  # replicas finish applying
        for i in range(3):
            cluster.crash_server(i)
        settle(cluster, 500.0)
        for i in range(3):
            cluster.restart_server(i)
        cluster.wait_operational(timeout_ms=60_000.0)
        assert cluster.replicas_consistent()

        reader = cluster.add_client("reader")

        def after():
            found = yield from reader.lookup(root, "durable")
            return found is not None

        assert cluster.run_process(after()) is True

    def test_partial_restart_blocks_until_last_failed_server_returns(self, cluster):
        """The paper's key recovery scenario: servers 1+2 continue
        after 3 dies; later 1+2 die too. Server 1 + a restarted 3 must
        NOT form a service (server 2 may hold the latest update); the
        service resumes only once 2 is back."""
        client = cluster.add_client("c1")
        root = cluster.root_capability
        cluster.crash_server(2)  # "server 3" dies first
        settle(cluster)

        def during():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "latest", (sub,))

        cluster.run_process(during())
        settle(cluster, 1000.0)
        # Now the remaining two die.
        cluster.crash_server(0)
        cluster.crash_server(1)
        settle(cluster, 500.0)
        # Restart 0 and 2 (but NOT 1 — a member of the last set).
        cluster.restart_server(0)
        cluster.restart_server(2)
        settle(cluster, 6000.0)
        assert not cluster.servers[0].operational
        assert not cluster.servers[2].operational
        # Server 1 returns: now recovery can complete.
        cluster.restart_server(1)
        cluster.wait_operational(timeout_ms=60_000.0)
        assert cluster.replicas_consistent()

        reader = cluster.add_client("reader")

        def after():
            found = yield from reader.lookup(root, "latest")
            return found is not None

        assert cluster.run_process(after()) is True

    def test_last_set_pair_recovers_without_third(self, cluster):
        """Converse scenario: 3 crashed first, then 1 and 2. Servers
        1 and 2 restart — their config vectors show 3 crashed earlier,
        so they recover WITHOUT waiting for 3."""
        client = cluster.add_client("c1")
        root = cluster.root_capability
        cluster.crash_server(2)
        settle(cluster)

        def during():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "pair-write", (sub,))

        cluster.run_process(during())
        settle(cluster, 1000.0)
        cluster.crash_server(0)
        cluster.crash_server(1)
        settle(cluster, 500.0)
        cluster.restart_server(0)
        cluster.restart_server(1)
        cluster.wait_operational(timeout_ms=60_000.0, quorum=2)
        assert cluster.servers[0].operational
        assert cluster.servers[1].operational

        reader = cluster.add_client("reader")

        def after():
            found = yield from reader.lookup(root, "pair-write")
            return found is not None

        assert cluster.run_process(after()) is True


class TestApplyLoopDies:
    """A group thread that dies of anything takes its replica down
    with it. Left running, the kernel keeps acknowledging and
    heart-beating for a member that applies nothing: the group never
    resets and every request parks for good."""

    def test_any_exception_fences_the_replica(self):
        cluster = GroupServiceCluster(seed=5, server_threads=8)
        cluster.start()
        cluster.wait_operational()
        cluster.enable_tracing()
        sim, root = cluster.sim, cluster.root_capability
        victim = cluster.servers[1]
        apply, applied = victim.state.apply, []

        def apply_with_a_typo(op):
            applied.append(op)
            if len(applied) == 3:
                raise KeyError("typo")
            return apply(op)

        victim.state.apply = apply_with_a_typo
        acked = []

        def writer(i):
            client = cluster.add_client(f"w{i}", retry_safe=True)
            for n in range(6):
                yield from client.append_row(root, f"w{i}-{n}", (root,))
                acked.append(f"w{i}-{n}")

        writers = [sim.spawn(writer(i), f"w{i}") for i in range(4)]
        for process in writers:
            sim.run_until_complete(process)
        settle(cluster, 500.0)

        assert len(acked) == 24  # every client op completed
        assert not victim.alive
        [fence] = [
            e for e in cluster.obs.tracer.events() if e.name == "dir.fence"
        ]
        assert fence.node == str(victim.me)
        assert "KeyError('typo')" in fence.args["reason"]
        survivors = [s for s in cluster.servers if s.alive]
        assert len(survivors) == 2
        for server in survivors:
            assert server.operational
            assert len(server.member.info().view) == 2
            assert set(acked) <= set(server.state.directories[1].names())
        assert cluster.replicas_consistent()

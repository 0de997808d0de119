"""Partitions striking at the worst times: during recovery itself.

Fig. 6's loop exists precisely because the world can change while a
server recovers: groups may form on both sides of a partition, and
neither minority may proceed until connectivity (or servers) return.
"""

import pytest

from repro.cluster import GroupServiceCluster
from repro.errors import ReproError


def populate(cluster, n, tag="d"):
    client = cluster.add_client(f"loader-{tag}")
    root = cluster.root_capability

    def work():
        for i in range(n):
            sub = yield from client.create_dir()
            yield from client.append_row(root, f"{tag}{i}", (sub,))

    cluster.run_process(work())
    cluster.run(until=cluster.sim.now + 1_500.0)


class TestPartitionDuringRecovery:
    def test_total_restart_under_partition_blocks_then_completes(self):
        """All three crash simultaneously; a partition separates {0}
        from {1,2} while they restart. Because the crash was
        simultaneous, every server is in the *last set* — even the
        majority pair {1,2} must NOT proceed (server 0 may hold the
        latest update). Nobody serves until the heal; then all three
        recover together. This is Skeen's condition doing its job."""
        cluster = GroupServiceCluster(seed=79)
        cluster.start()
        cluster.wait_operational()
        populate(cluster, 3)
        for i in range(3):
            cluster.crash_server(i)
        cluster.run(until=cluster.sim.now + 500.0)
        # Partition first, then restart everyone.
        cluster.partition_network([1, 2], [0])
        for i in range(3):
            cluster.restart_server(i)
        cluster.run(until=cluster.sim.now + 20_000.0)
        # The majority pair has a group but may not serve: the last
        # set {0,1,2} is not a subset of {1,2}.
        assert not any(s.operational for s in cluster.servers)
        cluster.heal_network()
        deadline = cluster.sim.now + 60_000.0
        while (
            not all(s.operational for s in cluster.servers)
            and cluster.sim.now < deadline
        ):
            cluster.run(until=cluster.sim.now + 200.0)
        assert all(s.operational for s in cluster.servers)
        assert cluster.replicas_consistent()

    def test_flapping_partition_during_catchup(self):
        """A restarted server's recovery survives a partition that
        forms and heals mid-protocol (retry loop, not a wedge)."""
        cluster = GroupServiceCluster(seed=83)
        cluster.start()
        cluster.wait_operational()
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 2_500.0)
        populate(cluster, 12, "missed")
        cluster.restart_server(2)
        # Let recovery start, then cut server 2 off briefly, twice.
        for _ in range(2):
            cluster.run(until=cluster.sim.now + 700.0)
            cluster.partition_network([0, 1], [2])
            cluster.run(until=cluster.sim.now + 1_500.0)
            cluster.heal_network()
        deadline = cluster.sim.now + 120_000.0
        while not cluster.servers[2].operational and cluster.sim.now < deadline:
            cluster.run(until=cluster.sim.now + 200.0)
        assert cluster.servers[2].operational
        assert cluster.replicas_consistent()
        names = cluster.servers[2].state.directories[1].names()
        assert sum(1 for n in names if n.startswith("missed")) == 12

    def test_service_keeps_running_while_one_server_recovers(self):
        """Recovery of one replica must not degrade the other two:
        client traffic flows throughout."""
        cluster = GroupServiceCluster(seed=89)
        cluster.start()
        cluster.wait_operational()
        populate(cluster, 20, "bulk")
        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 2_500.0)
        client = cluster.add_client("steady")
        root = cluster.root_capability
        served = {"n": 0}

        def steady_reader():
            while served["n"] < 40:
                found = yield from client.lookup(root, "bulk0")
                assert found is not None
                served["n"] += 1
                yield cluster.sim.sleep(25.0)

        reader = cluster.sim.spawn(steady_reader(), "steady")
        cluster.restart_server(1)
        cluster.run(until=cluster.sim.now + 30_000.0)
        assert reader.resolved and reader.exception is None
        assert cluster.servers[1].operational
        assert cluster.replicas_consistent()

    def test_a_rejoining_replica_hands_no_client_an_error(self):
        """While Fig. 6 runs the service port is shut: a client that
        locates during the rejoin gets no HEREIS from the rebooting
        replica and so is never handed its "no majority" — it used to
        be, whenever the idle newcomer won the HEREIS race."""
        cluster = GroupServiceCluster(seed=89)
        cluster.start()
        cluster.wait_operational()
        populate(cluster, 20, "bulk")
        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 2_500.0)
        sim, root = cluster.sim, cluster.root_capability
        rejoining = str(cluster.sites[1].dir_address)
        tracer = cluster.enable_tracing()
        server = cluster.restart_server(1)
        errors, served = [], []

        def fresh_reader(i):
            client = cluster.add_client(f"fresh{i}")  # empty port cache
            try:
                served.append((yield from client.lookup(root, "bulk0")))
            except ReproError as exc:
                errors.append(exc)

        readers = []
        while not server.operational:
            readers.append(sim.spawn(fresh_reader(len(readers)), "fresh"))
            cluster.run(until=sim.now + 40.0)
        operational_at = sim.now
        for reader in readers:
            sim.run_until_complete(reader)

        assert len(readers) > 20  # the rejoin took its second or so
        assert errors == []
        assert len(served) == len(readers) and None not in served
        # Not one frame from the rejoining replica's service port to a
        # client: no HEREIS, no reply. (Its recovery port answers its
        # peers all along; a stale port cache would earn a NOTHERE.)
        to_clients = {
            event.args["kind"]
            for event in tracer.events()
            if event.name == "net.send"
            and event.node == rejoining
            and event.ts < operational_at - 40.0
            and ".client." in event.args["dst"]
        }
        assert to_clients <= {"rpc.nothere"}
        assert cluster.replicas_consistent()

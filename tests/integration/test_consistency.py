"""One-copy serializability scenarios (section 2's requirement).

The chaos tests check client histories for per-key linearizability;
these tests pin the *cross-client* guarantees directly: conflicting writes through different
servers serialize in one global order, reads never see two different
histories, and every replica ends identical.
"""

import pytest

from repro.cluster import GroupServiceCluster
from repro.errors import AlreadyExists, NotFound, ReproError
from tests.helpers import pin_to_server


@pytest.fixture
def cluster():
    c = GroupServiceCluster(seed=19)
    c.start()
    c.wait_operational()
    return c


class TestConflictingWrites:
    def test_same_name_appends_one_winner(self, cluster):
        """Two clients race to append the same name via different
        servers: exactly one wins everywhere."""
        root = cluster.root_capability
        c0 = cluster.add_client("w0")
        c1 = cluster.add_client("w1")
        pin_to_server(c0, cluster, 0)
        pin_to_server(c1, cluster, 1)
        outcomes = {}

        def racer(client, tag, value_cap):
            try:
                yield from client.append_row(root, "contested", (value_cap,))
                outcomes[tag] = "won"
            except AlreadyExists:
                outcomes[tag] = "lost"

        def setup_and_race():
            v0 = yield from c0.create_dir()
            v1 = yield from c1.create_dir()
            cluster.sim.spawn(racer(c0, "c0", v0), "r0")
            cluster.sim.spawn(racer(c1, "c1", v1), "r1")
            yield cluster.sim.sleep(5_000.0)

        cluster.run_process(setup_and_race())
        assert sorted(outcomes.values()) == ["lost", "won"]
        assert cluster.replicas_consistent()

    def test_delete_vs_append_serialize(self, cluster):
        """A delete racing an append of the same name: any outcome is
        fine as long as all replicas agree and errors are consistent."""
        root = cluster.root_capability
        setup = cluster.add_client("setup")

        def seed_data():
            sub = yield from setup.create_dir()
            yield from setup.append_row(root, "flappy", (sub,))
            return sub

        sub = cluster.run_process(seed_data())
        deleter = cluster.add_client("deleter")
        appender = cluster.add_client("appender")
        pin_to_server(deleter, cluster, 1)
        pin_to_server(appender, cluster, 2)

        def race():
            d = cluster.sim.spawn(_delete(), "d")
            a = cluster.sim.spawn(_append(), "a")
            yield d
            yield a

        def _delete():
            try:
                yield from deleter.delete_row(root, "flappy")
            except NotFound:
                pass

        def _append():
            try:
                yield from appender.append_row(root, "flappy", (sub,))
            except AlreadyExists:
                pass

        cluster.run_process(race())
        cluster.run(until=cluster.sim.now + 1_000.0)
        assert cluster.replicas_consistent()
        # All replicas agree whether "flappy" exists.
        presence = {
            "flappy" in s.state.directories[1].names()
            for s in cluster.operational_servers()
        }
        assert len(presence) == 1

    def test_object_numbers_never_collide(self, cluster):
        """Concurrent create_dir through all three servers: every
        capability distinct, all replicas agree on all of them."""
        clients = []
        for i in range(3):
            client = cluster.add_client(f"cr{i}")
            pin_to_server(client, cluster, i)
            clients.append(client)
        created = []

        def creator(client):
            for _ in range(4):
                cap = yield from client.create_dir()
                created.append(cap)

        processes = [
            cluster.sim.spawn(creator(c), f"creator{i}")
            for i, c in enumerate(clients)
        ]
        cluster.run(until=cluster.sim.now + 30_000.0)
        assert all(p.resolved for p in processes)
        assert len(created) == 12
        assert len({cap.object_number for cap in created}) == 12
        assert cluster.replicas_consistent()


class TestReadConsistency:
    def test_monotonic_reads_across_servers(self, cluster):
        """A client whose reads bounce across servers never observes a
        value older than one it already saw (the totally-ordered apply
        plus the Fig. 5 read rule give this for free)."""
        root = cluster.root_capability
        writer = cluster.add_client("writer")
        reader = cluster.add_client("reader")
        observed = []

        def write_versions():
            target = yield from writer.create_dir()
            for version in range(5):
                yield from writer.append_row(root, f"v{version}", (target,))
                yield cluster.sim.sleep(40.0)

        def read_loop():
            for i in range(30):
                pin_to_server(reader, cluster, i % 3)
                try:
                    rows = yield from reader.list_dir(root)
                except ReproError:
                    continue
                observed.append(len(rows))
                yield cluster.sim.sleep(15.0)

        w = cluster.sim.spawn(write_versions(), "w")
        r = cluster.sim.spawn(read_loop(), "r")
        cluster.run(until=cluster.sim.now + 20_000.0)
        assert w.resolved and r.resolved
        # The writer only appends, so the row count only grows; a
        # reader hopping between replicas must never see it shrink.
        assert observed == sorted(observed)
        assert observed[-1] == 5

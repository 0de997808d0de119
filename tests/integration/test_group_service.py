"""End-to-end tests of the group directory service (normal operation)."""

import pytest

from repro.amoeba import Rights, restrict
from repro.bench.harness import PAPER_SERVER, build_deployment
from repro.cluster import GroupServiceCluster
from repro.errors import (
    AlreadyExists,
    CapabilityError,
    NoMajority,
    NotEmpty,
    NotFound,
)


@pytest.fixture
def cluster():
    c = GroupServiceCluster(seed=7)
    c.start()
    c.wait_operational()
    return c


class TestBasicOperations:
    def test_create_append_lookup_delete(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "project", (sub,))
            found = yield from client.lookup(root, "project")
            assert found == sub
            yield from client.delete_row(root, "project")
            missing = yield from client.lookup(root, "project")
            assert missing is None

        cluster.run_process(work())
        assert cluster.replicas_consistent()

    def test_list_dir(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            a = yield from client.create_dir()
            b = yield from client.create_dir()
            yield from client.append_row(root, "a", (a,))
            yield from client.append_row(root, "b", (b,))
            rows = yield from client.list_dir(root)
            return [row.name for row in rows]

        assert cluster.run_process(work()) == ["a", "b"]

    def test_duplicate_append_returns_error(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "dup", (sub,))
            try:
                yield from client.append_row(root, "dup", (sub,))
            except AlreadyExists:
                return "refused"

        assert cluster.run_process(work()) == "refused"
        # A refused op persists nothing, so the initiator answers right
        # after its own apply; give the other two their few ms.
        cluster.run(until=cluster.sim.now + 20.0)
        assert cluster.replicas_consistent()

    def test_delete_nonempty_dir_refused(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(sub, "x", (root,))
            try:
                yield from client.delete_dir(sub)
            except NotEmpty:
                return "refused"

        assert cluster.run_process(work()) == "refused"

    def test_replace_set_atomic_across_directories(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            d1 = yield from client.create_dir()
            d2 = yield from client.create_dir()
            yield from client.append_row(d1, "x", (root,))
            yield from client.append_row(d2, "y", (root,))
            yield from client.replace_set([(d1, "x", (d2,)), (d2, "y", (d1,))])
            got_x = yield from client.lookup(d1, "x")
            got_y = yield from client.lookup(d2, "y")
            assert (got_x, got_y) == (d2, d1)
            # One failing item must roll back the whole set.
            try:
                yield from client.replace_set([(d1, "x", (root,)), (d1, "nope", (root,))])
            except NotFound:
                pass
            still = yield from client.lookup(d1, "x")
            assert still == d2
            return "ok"

        assert cluster.run_process(work()) == "ok"
        assert cluster.replicas_consistent()

    def test_restricted_capability_enforced_end_to_end(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            read_only = restrict(sub, Rights.READ | Rights.COL_1)
            rows = yield from client.list_dir(read_only)
            assert rows == []
            try:
                yield from client.append_row(read_only, "x", (root,))
            except CapabilityError:
                return "denied"

        assert cluster.run_process(work()) == "denied"

    def test_chmod_row_end_to_end(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            d = yield from client.create_dir()
            f1 = yield from client.create_dir()
            f2 = yield from client.create_dir()
            yield from client.append_row(d, "f", (f1, None, None))
            yield from client.chmod_row(d, "f", 0b100, (None, None, f2))
            rows = yield from client.list_dir(d)
            return rows[0].capabilities

        caps = cluster.run_process(work())
        assert caps[2] is not None and caps[0] is not None


class TestReadYourWrites:
    def test_write_then_read_via_other_server(self, cluster):
        """The paper's motivating scenario for the read path: a delete
        processed by one server must be visible to a read at another
        server immediately (Fig. 5's buffered-messages check)."""
        client = cluster.add_client("c1")
        root = cluster.root_capability
        kernel = client.rpc._kernel

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "tmp", (sub,))
            # Force the follow-up requests onto specific servers.
            servers = list(cluster.config.server_addresses)
            kernel.port_cache[cluster.config.port] = [servers[0]]
            yield from client.delete_row(root, "tmp")
            kernel.port_cache[cluster.config.port] = [servers[1]]
            found = yield from client.lookup(root, "tmp")
            assert found is None
            kernel.port_cache[cluster.config.port] = [servers[2]]
            found = yield from client.lookup(root, "tmp")
            assert found is None
            return "consistent"

        assert cluster.run_process(work()) == "consistent"

    def test_reads_hit_any_server_without_divergence(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability
        kernel = client.rpc._kernel

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "stable", (sub,))
            results = []
            for server in cluster.config.server_addresses:
                kernel.port_cache[cluster.config.port] = [server]
                cap = yield from client.lookup(root, "stable")
                results.append(cap)
            return results

        results = cluster.run_process(work())
        assert len(set(results)) == 1


class TestCosts:
    def test_lookup_latency_near_five_ms(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            yield from client.lookup(root, "warmup")  # locate etc.
            start = cluster.sim.now
            yield from client.lookup(root, "warmup")
            return cluster.sim.now - start

        elapsed = cluster.run_process(work())
        assert 3.0 < elapsed < 8.0

    def test_append_delete_pair_near_paper(self):
        """Fig. 7 first row: 184 ms for the triplicated group service
        — the paper's server, two random writes per update."""
        cluster = build_deployment("group", seed=7, **PAPER_SERVER).cluster
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()  # warm locate and cache
            start = cluster.sim.now
            yield from client.append_row(root, "t", (sub,))
            yield from client.delete_row(root, "t")
            return cluster.sim.now - start

        elapsed = cluster.run_process(work())
        assert 160.0 < elapsed < 215.0

    def test_reads_do_no_disk_ops(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "r", (sub,))
            before = sum(site.disk.total_ops for site in cluster.sites)
            for _ in range(5):
                yield from client.lookup(root, "r")
            after = sum(site.disk.total_ops for site in cluster.sites)
            return after - before

        assert cluster.run_process(work()) == 0

    def test_update_writes_to_every_replica_disk(self, cluster):
        """Active replication: all three sites see disk activity for
        one update (vs. the RPC service's lazy second copy)."""
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield bed_sleep()  # allow replicas to finish applying

        def bed_sleep():
            return cluster.sim.sleep(500.0)

        before = [site.disk.total_ops for site in cluster.sites]
        cluster.run_process(work())
        after = [site.disk.total_ops for site in cluster.sites]
        assert all(b > a for a, b in zip(before, after))


class TestConcurrentClients:
    def test_interleaved_writers_stay_consistent(self, cluster):
        root = cluster.root_capability
        clients = [cluster.add_client(f"w{i}") for i in range(3)]
        done = []

        def writer(client, tag):
            for i in range(4):
                sub = yield from client.create_dir()
                yield from client.append_row(root, f"{tag}-{i}", (sub,))
            done.append(tag)

        for i, client in enumerate(clients):
            cluster.sim.spawn(writer(client, f"c{i}"), f"writer{i}")
        cluster.run(until=cluster.sim.now + 30_000.0)
        assert sorted(done) == ["c0", "c1", "c2"]
        assert cluster.replicas_consistent()

        reader = cluster.add_client("reader")

        def check():
            rows = yield from reader.list_dir(root)
            return sorted(row.name for row in rows)

        names = cluster.run_process(check())
        assert names == sorted(f"c{i}-{j}" for i in range(3) for j in range(4))

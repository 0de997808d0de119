"""Restart behaviour of the RPC (duplicated) directory service."""

import pytest

from repro.cluster import RpcServiceCluster


@pytest.fixture
def cluster():
    c = RpcServiceCluster(seed=73)
    c.start()
    c.wait_operational()
    return c


class TestRpcRestart:
    def test_restarted_server_refreshes_from_peer(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability

        def before():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "pre", (sub,))

        cluster.run_process(before())
        cluster.settle(2_000.0)
        cluster.crash_server(1)

        def during():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "while-down", (sub,))

        cluster.run_process(during())
        cluster.restart_server(1)
        cluster.wait_operational()
        cluster.settle(2_000.0)
        names = cluster.servers[1].state.directories[1].names()
        assert sorted(names) == ["pre", "while-down"]
        assert cluster.replicas_content_consistent()

    def test_the_pair_soldiers_on_alone_and_the_cluster_says_so(self, cluster):
        """With one replica down the survivor serves reads and writes,
        so ``wait_operational`` must not demand the dead one."""
        client = cluster.add_client("c")
        root = cluster.root_capability
        cluster.crash_server(1)
        cluster.wait_operational()

        def alone():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "alone", (sub,))
            found = yield from client.lookup(root, "alone")
            return found == sub

        assert cluster.run_process(alone()) is True
        cluster.restart_server(1)
        cluster.wait_operational()
        cluster.settle()
        assert cluster.replicas_content_consistent()

    def test_restart_with_dead_peer_uses_own_disk(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability

        def before():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "durable", (sub,))

        cluster.run_process(before())
        cluster.settle(2_000.0)  # both replicas + disks current
        cluster.crash_server(0)
        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 500.0)
        cluster.restart_server(0)
        # Peer stays dead: server 0 must come up from its own disk.
        deadline = cluster.sim.now + 30_000.0
        while not cluster.servers[0].operational and cluster.sim.now < deadline:
            cluster.run(until=cluster.sim.now + 100.0)
        assert cluster.servers[0].operational

        def after():
            found = yield from client.lookup(root, "durable")
            return found is not None

        assert cluster.run_process(after()) is True

    def test_writes_resume_after_peer_returns(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability
        cluster.crash_server(1)

        def solo():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "solo-write", (sub,))

        cluster.run_process(solo())
        assert not cluster.servers[0].peer_reachable
        cluster.restart_server(1)
        cluster.wait_operational()
        cluster.settle(2_000.0)

        def duo():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "duo-write", (sub,))
            yield cluster.sim.sleep(2_000.0)

        cluster.run_process(duo())
        # The returning peer's intent acceptance re-marks it reachable,
        # and it caught up on the solo-era write via its boot refresh.
        names1 = cluster.servers[1].state.directories[1].names()
        assert "solo-write" in names1
        assert "duo-write" in names1

    def test_restart_leaves_no_orphan_bullet_files(self, cluster):
        """The boot refresh replaces every directory the peer changed
        while we were down; each replaced Bullet file must be deleted,
        so the file count ends equal to the object table's size."""
        client = cluster.add_client("c")
        root = cluster.root_capability

        def before():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "pre", (sub,))
            return sub

        sub = cluster.run_process(before())
        cluster.settle(2_000.0)
        cluster.crash_server(1)

        def during():
            for k in range(7):
                target = root if k % 2 else sub
                yield from client.append_row(target, f"while-down{k}", (sub,))

        cluster.run_process(during())
        server = cluster.restart_server(1)
        cluster.wait_operational()
        cluster.settle(2_000.0)
        assert cluster.replicas_content_consistent()
        for site in cluster.sites:
            assert site.bullet.file_count == len(site.server.admin.entries)
        assert len(server.admin.entries) == 2

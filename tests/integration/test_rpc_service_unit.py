"""Focused tests of RPC-directory-server internals."""

import pytest

from repro.cluster import RpcServiceCluster
from repro.directory.rpc_server import _next_in_class

from tests.helpers import counter_total


class TestAllocationClasses:
    @pytest.mark.parametrize(
        "minimum,index,expected",
        [(2, 0, 2), (2, 1, 3), (3, 0, 4), (3, 1, 3), (10, 1, 11), (0, 0, 2)],
    )
    def test_next_in_class(self, minimum, index, expected):
        assert _next_in_class(minimum, index) == expected

    def test_alloc_advances_after_boot_from_peer(self):
        """A restarted server must not reuse object numbers the peer
        already handed out in its parity class."""
        cluster = RpcServiceCluster(seed=7)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        servers = list(cluster.config.server_addresses)
        kernel = client.rpc._kernel

        def phase1():
            kernel.port_cache[cluster.config.port] = [servers[0]]
            caps = []
            for _ in range(3):
                caps.append((yield from client.create_dir()))
            return caps

        first = cluster.run_process(phase1())
        cluster.settle(2_000.0)
        cluster.crash_server(0)
        cluster.run(until=cluster.sim.now + 1_000.0)
        # Reboot server 0; it refreshes its state from server 1.
        site = cluster.sites[0]
        site.dir_transport.restart()
        from repro.directory.admin import AdminPartition
        from repro.directory.rpc_server import RpcDirectoryServer

        site.server = RpcDirectoryServer(
            cluster.config, 0, site.dir_transport, site.bullet.port,
            AdminPartition(site.partition, 0, 2),
        )
        site.server.start()
        cluster.wait_operational()

        def phase2():
            kernel.port_cache[cluster.config.port] = [servers[0]]
            cap = yield from client.create_dir()
            return cap

        new_cap = cluster.run_process(phase2())
        old_numbers = {c.object_number for c in first}
        assert new_cap.object_number not in old_numbers
        assert new_cap.object_number % 2 == 0  # still server 0's class


class TestIntentProtocol:
    def test_intent_traffic_on_private_port(self):
        cluster = RpcServiceCluster(seed=8)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "x", (sub,))
            yield cluster.sim.sleep(1_000.0)

        cluster.run_process(work())
        kinds = cluster.network.stats.snapshot()
        # Intent RPCs ride the standard RPC kinds; the dir.writes
        # counters show who initiated and the peer's lazy apply ran.
        assert counter_total(cluster.sim, "dir.writes") == 2
        assert kinds.get("rpc.request", 0) >= 4  # 2 client + 2 intents

    def test_peer_marked_unreachable_after_crash(self):
        cluster = RpcServiceCluster(seed=9)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        root = cluster.root_capability
        servers = list(cluster.config.server_addresses)
        client.rpc._kernel.port_cache[cluster.config.port] = [servers[0]]
        cluster.crash_server(1)

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "solo", (sub,))
            return "served"

        assert cluster.run_process(work()) == "served"
        assert not cluster.servers[0].peer_reachable

    def test_lazy_queue_drains_in_order(self):
        cluster = RpcServiceCluster(seed=10)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        root = cluster.root_capability
        servers = list(cluster.config.server_addresses)
        client.rpc._kernel.port_cache[cluster.config.port] = [servers[0]]

        def work():
            sub = yield from client.create_dir()
            for i in range(3):
                yield from client.append_row(root, f"o{i}", (sub,))

        cluster.run_process(work())
        cluster.settle(3_000.0)
        # The peer applied everything, in order.
        assert len(cluster.servers[1]._lazy_queue) == 0
        names = cluster.servers[1].state.directories[1].names()
        assert names == ["o0", "o1", "o2"]

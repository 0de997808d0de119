"""Additional Bullet server coverage: cache misses and concurrency."""

import pytest

from repro.rpc import RpcClient
from repro.storage import BulletClient, BulletServer, Disk

from tests.helpers import TestBed, disk_ops


def make(seed=0):
    bed = TestBed(["client", "bullet"], seed=seed)
    disk = Disk(bed.sim, "d")
    server = BulletServer(bed["bullet"].transport, disk, "x")
    client = BulletClient(RpcClient(bed["client"].transport), server.port)
    return bed, disk, server, client


class TestCacheModes:
    def test_uncached_server_reads_from_disk_every_time(self):
        bed, disk, server, client = make()

        def work():
            cap = yield from client.create(b"data")
            before = disk_ops(disk)["random"]
            for _ in range(2):
                server._cache.clear()  # force a miss
                yield from client.read(cap)
            return disk_ops(disk)["random"] - before

        assert bed.run_until(bed.sim.spawn(work())) == 2

    def test_cached_reads_faster_than_uncached(self):
        def read_time(cached):
            bed, _, server, client = make()
            out = {}

            def work():
                cap = yield from client.create(b"data")
                if not cached:
                    server._cache.clear()
                start = bed.sim.now
                yield from client.read(cap)
                out["t"] = bed.sim.now - start

            bed.run_until(bed.sim.spawn(work()))
            return out["t"]

        assert read_time(True) < read_time(False)

    def test_size_served_from_disk_when_uncached(self):
        bed, disk, server, client = make()

        def work():
            cap = yield from client.create(b"12345678")
            server._cache.clear()  # force a miss
            n = yield from client.size(cap)
            return n

        assert bed.run_until(bed.sim.spawn(work())) == 8


class TestConcurrency:
    def test_interleaved_clients_share_one_disk_arm(self):
        bed = TestBed(["c1", "c2", "bullet"])
        disk = Disk(bed.sim, "d")
        server = BulletServer(bed["bullet"].transport, disk, "x")
        clients = [
            BulletClient(RpcClient(bed[name].transport), server.port)
            for name in ("c1", "c2")
        ]
        done = []

        def worker(client, tag):
            for i in range(3):
                cap = yield from client.create(bytes(f"{tag}{i}", "ascii"))
                data = yield from client.read(cap)
                assert data == bytes(f"{tag}{i}", "ascii")
            done.append(tag)

        for i, client in enumerate(clients):
            bed.sim.spawn(worker(client, f"w{i}"))
        bed.run(until=bed.sim.now + 10_000.0)
        assert sorted(done) == ["w0", "w1"]
        assert server.file_count == 6

    def test_object_numbers_unique_under_concurrency(self):
        bed = TestBed(["c1", "c2", "bullet"])
        disk = Disk(bed.sim, "d")
        server = BulletServer(bed["bullet"].transport, disk, "x")
        caps = []

        def worker(name):
            client = BulletClient(RpcClient(bed[name].transport), server.port)
            for _ in range(5):
                cap = yield from client.create(b"z")
                caps.append(cap)

        bed.sim.spawn(worker("c1"))
        bed.sim.spawn(worker("c2"))
        bed.run(until=bed.sim.now + 10_000.0)
        assert len(caps) == 10
        assert len({c.object_number for c in caps}) == 10

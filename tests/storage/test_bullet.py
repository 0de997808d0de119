"""Unit tests for the Bullet file server."""

import pytest

from repro.amoeba import Rights, restrict
from repro.errors import CapabilityError, NoSuchFile
from repro.rpc import RpcClient
from repro.sim import Simulator
from repro.storage import BulletClient, BulletServer, Disk

from tests.helpers import TestBed


def make_bullet(seed=0):
    bed = TestBed(["client", "bullet"], seed=seed)
    disk = Disk(bed.sim, "disk0")
    server = BulletServer(bed["bullet"].transport, disk, "b0")
    client = BulletClient(RpcClient(bed["client"].transport), server.port)
    return bed, disk, server, client


class TestCreateReadDelete:
    def test_roundtrip(self):
        bed, _, _, client = make_bullet()

        def work():
            cap = yield from client.create(b"file body")
            data = yield from client.read(cap)
            return cap, data

        cap, data = bed.run_until(bed.sim.spawn(work()))
        assert data == b"file body"
        assert cap.is_owner

    def test_size(self):
        bed, _, _, client = make_bullet()

        def work():
            cap = yield from client.create(b"12345")
            n = yield from client.size(cap)
            return n

        assert bed.run_until(bed.sim.spawn(work())) == 5

    def test_delete_removes_file(self):
        bed, _, server, client = make_bullet()

        def work():
            cap = yield from client.create(b"gone soon")
            yield from client.delete(cap)
            try:
                yield from client.read(cap)
            except NoSuchFile:
                return "deleted"

        assert bed.run_until(bed.sim.spawn(work())) == "deleted"
        assert server.file_count == 0

    def test_distinct_files_get_distinct_caps(self):
        bed, _, _, client = make_bullet()

        def work():
            a = yield from client.create(b"a")
            b = yield from client.create(b"b")
            return a, b

        a, b = bed.run_until(bed.sim.spawn(work()))
        assert a.object_number != b.object_number
        assert a.check != b.check


class TestCapabilityEnforcement:
    def test_read_only_cap_can_read_but_not_delete(self):
        bed, _, _, client = make_bullet()

        def work():
            cap = yield from client.create(b"protected")
            weak = restrict(cap, Rights.READ)
            data = yield from client.read(weak)
            try:
                yield from client.delete(weak)
            except CapabilityError:
                return data, "denied"

        data, verdict = bed.run_until(bed.sim.spawn(work()))
        assert data == b"protected"
        assert verdict == "denied"

    def test_forged_check_rejected(self):
        bed, _, _, client = make_bullet()
        from dataclasses import replace

        def work():
            cap = yield from client.create(b"x")
            forged = replace(cap, check=cap.check ^ 1)
            try:
                yield from client.read(forged)
            except CapabilityError:
                return "rejected"

        assert bed.run_until(bed.sim.spawn(work())) == "rejected"

    def test_wrong_port_capability_rejected(self):
        bed, _, _, client = make_bullet()
        from repro.amoeba.capability import owner_capability, Port

        def work():
            stray = owner_capability(Port.for_service("bullet.other"), 1, 7)
            try:
                yield from client.read(stray)
            except CapabilityError:
                return "rejected"

        assert bed.run_until(bed.sim.spawn(work())) == "rejected"


class TestTiming:
    def test_create_costs_about_twenty_ms(self):
        """Calibration: a small-file create (RPC + two sequential
        writes) lands near the paper's ~20-22 ms."""
        bed, _, _, client = make_bullet()

        def work():
            yield from client.create(b"tiny")  # includes locate
            start = bed.sim.now
            yield from client.create(b"tiny")
            return bed.sim.now - start

        elapsed = bed.run_until(bed.sim.spawn(work()))
        assert 15.0 < elapsed < 30.0

    def test_cached_read_does_no_disk_ops(self):
        bed, disk, _, client = make_bullet()

        def work():
            cap = yield from client.create(b"cache me")
            before = disk.total_ops
            yield from client.read(cap)
            return disk.total_ops - before

        assert bed.run_until(bed.sim.spawn(work())) == 0

    def test_uncached_read_hits_disk(self):
        bed, disk, server, client = make_bullet()

        def work():
            cap = yield from client.create(b"evicted")
            server._cache.clear()  # simulate cache pressure
            before = disk.total_ops
            yield from client.read(cap)
            return disk.total_ops - before

        assert bed.run_until(bed.sim.spawn(work())) == 1


class TestCrashRecovery:
    def test_files_survive_server_crash(self):
        bed = TestBed(["client", "bullet"])
        disk = Disk(bed.sim, "disk0")
        server = BulletServer(bed["bullet"].transport, disk, "b0")
        rpc = RpcClient(bed["client"].transport)
        client = BulletClient(rpc, server.port)
        outcome = {}

        def work():
            cap = yield from client.create(b"durable")
            server.crash()
            bed["bullet"].transport.restart()
            BulletServer(bed["bullet"].transport, disk, "b0")
            data = yield from client.read(cap)
            outcome["data"] = data

        bed.run_until(bed.sim.spawn(work()))
        assert outcome["data"] == b"durable"

    def test_restarted_server_does_not_reuse_object_numbers(self):
        bed = TestBed(["client", "bullet"])
        disk = Disk(bed.sim, "disk0")
        server = BulletServer(bed["bullet"].transport, disk, "b0")
        rpc = RpcClient(bed["client"].transport)
        client = BulletClient(rpc, server.port)

        def work():
            first = yield from client.create(b"one")
            server.crash()
            bed["bullet"].transport.restart()
            BulletServer(bed["bullet"].transport, disk, "b0")
            second = yield from client.create(b"two")
            return first, second

        first, second = bed.run_until(bed.sim.spawn(work()))
        assert second.object_number > first.object_number

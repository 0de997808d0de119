"""End-to-end tests of the replicated Bullet file service (§5 vision).

The service is a ``FileState`` on the directory server's skeleton, so
what is asserted below about storage goes through that skeleton's
surfaces: the replica's object table (``server.admin.entries``) and
its site's Bullet server.

Run as a script for the full delete-during-flush sweep (75 instants,
2 ms apart; tier-1 runs an 8-instant subset)::

    PYTHONPATH=src python -m tests.storage.test_replicated_bullet
"""

import sys

import pytest

from repro.amoeba import Rights, restrict
from repro.cluster import ReplicatedBulletCluster
from repro.errors import CapabilityError, DirectoryError, NoSuchFile

from tests.helpers import count, pin_to_server


def make_cluster(nvram=False, seed=2, name=None):
    cluster = ReplicatedBulletCluster(
        seed=seed, nvram=nvram, name=name or ("rbn" if nvram else "rbd")
    )
    cluster.start()
    cluster.wait_operational()
    return cluster


def stored_bytes(site, obj):
    """What the site's disk holds for file *obj*: the Bullet file its
    replica's object-table entry names (None without an entry)."""
    entry = site.server.admin.entries.get(obj)
    if entry is None:
        return None
    key = site.bullet._extent_key(entry[0].object_number)
    return site.disk.peek_extent(key)[1] if site.disk.has_extent(key) else None


def disk_ops(cluster):
    return [site.disk.total_ops for site in cluster.sites]


class TestBasicOperation:
    def test_create_read_delete_roundtrip(self):
        cluster = make_cluster()
        client = cluster.add_client("c1")

        def work():
            cap = yield from client.create(b"replicated!")
            data = yield from client.read(cap)
            assert data == b"replicated!"
            n = yield from client.size(cap)
            assert n == 11
            yield from client.delete(cap)
            try:
                yield from client.read(cap)
            except NoSuchFile:
                return "gone"

        assert cluster.run_process(work()) == "gone"

    def test_all_replicas_store_the_file(self):
        cluster = make_cluster()
        client = cluster.add_client("c1")

        def work():
            cap = yield from client.create(b"everywhere")
            yield cluster.sim.sleep(500.0)
            return cap

        cap = cluster.run_process(work())
        assert cluster.replicas_consistent()
        for site in cluster.sites:
            assert site.server.state.directories[cap.object_number].data == (
                b"everywhere"
            )
            assert stored_bytes(site, cap.object_number) == b"everywhere"

    def test_identical_capability_from_any_initiator(self):
        """All replicas mint the same capability because the check
        travels in the broadcast."""
        cluster = make_cluster()
        client = cluster.add_client("c1")

        def work():
            cap = yield from client.create(b"x")
            yield cluster.sim.sleep(300.0)
            return cap

        cap = cluster.run_process(work())
        checks = {s.state.checks[cap.object_number] for s in cluster.servers}
        assert checks == {cap.check}

    def test_rights_enforced(self):
        cluster = make_cluster()
        client = cluster.add_client("c1")

        def work():
            cap = yield from client.create(b"locked")
            weak = restrict(cap, Rights.READ)
            data = yield from client.read(weak)
            assert data == b"locked"
            try:
                yield from client.delete(weak)
            except CapabilityError:
                return "denied"

        assert cluster.run_process(work()) == "denied"

    def test_directory_operations_are_refused_not_applied(self):
        """The skeleton would route a row operation to the state; a
        file has no rows, and the refusal must be the deterministic
        kind (a reply), not a dead group thread."""
        cluster = make_cluster()
        client = cluster.add_client("c1")

        def work():
            cap = yield from client.create(b"not a directory")
            for attempt in (
                client.append_row(cap, "row", (cap,)),
                client.create_dir(),
                client.list_dir(cap),
            ):
                with pytest.raises(DirectoryError):
                    yield from attempt
            data = yield from client.read(cap)
            return data

        assert cluster.run_process(work()) == b"not a directory"
        assert cluster.replicas_consistent()


class TestFaultTolerance:
    def test_survives_replica_crash(self):
        cluster = make_cluster(seed=5)
        client = cluster.add_client("c1")

        def before():
            cap = yield from client.create(b"precious")
            return cap

        cap = cluster.run_process(before())
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 2_500.0)

        def after():
            data = yield from client.read(cap)
            new = yield from client.create(b"post-crash")
            return data, new

        data, new_cap = cluster.run_process(after())
        assert data == b"precious"
        assert new_cap.object_number > cap.object_number

    def test_no_unreplicated_window(self):
        """Unlike lazy replication: when create returns, the file is on
        EVERY live replica's disk (r = 2 made the message stable and
        each replica stores before the initiator replies... the client
        can immediately read via any replica)."""
        cluster = make_cluster(seed=6)
        client = cluster.add_client("c1")

        def work():
            cap = yield from client.create(b"durable-now")
            # Force the read onto each specific replica.
            results = []
            for index in range(3):
                pin_to_server(client, cluster, index)
                data = yield from client.read(cap)
                results.append(data)
            return results

        results = cluster.run_process(work())
        assert results == [b"durable-now"] * 3

    def test_restarted_replica_catches_up(self):
        cluster = make_cluster(seed=7)
        client = cluster.add_client("c1")

        def before():
            cap = yield from client.create(b"old")
            return cap

        old_cap = cluster.run_process(before())
        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 2_500.0)

        def during():
            cap = yield from client.create(b"while-down")
            return cap

        new_cap = cluster.run_process(during())
        cluster.restart_server(1)
        cluster.run(until=cluster.sim.now + 8_000.0)
        server = cluster.servers[1]
        assert server.operational
        assert old_cap.object_number in server.state.directories
        assert server.state.directories[new_cap.object_number].data == b"while-down"
        assert stored_bytes(cluster.sites[1], new_cap.object_number) == b"while-down"

    @pytest.mark.parametrize("nvram", [False, True], ids=["disk", "nvram"])
    def test_staggered_full_restart_keeps_the_acknowledged_file(self, nvram):
        """Replica 0 misses a create, everybody goes down, and replica
        0 is the first back up. A stale replica alone must never turn
        operational (Skeen's last-set rule): the old private catch-up
        copied the first reachable peer — replica 0 — and *discarded*
        whatever that peer lacked, so the acknowledged file ended on
        0 of 3 disks."""
        cluster = make_cluster(nvram=nvram, seed=3)
        client = cluster.add_client("c1")
        cluster.crash_server(0)
        cluster.run(until=cluster.sim.now + 2_500.0)

        def create():
            cap = yield from client.create(b"acknowledged")
            return cap

        cap = cluster.run_process(create())
        cluster.crash_server(1)
        cluster.crash_server(2)
        for index in range(3):
            cluster.run(until=cluster.sim.now + 1_000.0)
            cluster.restart_server(index)
        cluster.wait_operational(timeout_ms=60_000.0)
        assert len(cluster.operational_servers()) == 3

        def read_back():
            data = yield from client.read(cap)
            return data

        assert cluster.run_process(read_back()) == b"acknowledged"
        cluster.run(until=cluster.sim.now + 2_000.0)  # NVRAM: the idle flush
        for site in cluster.sites:
            assert stored_bytes(site, cap.object_number) == b"acknowledged"
        assert cluster.replicas_consistent()


    @pytest.mark.parametrize("nvram", [False, True], ids=["disk", "nvram"])
    def test_file_larger_than_the_nvram_board_survives_a_power_cut(self, nvram):
        """30 KB cannot fit the 24 KB board even when it is empty, so
        the record bypasses it: a flush under a floor raised to the
        create writes it to disk before the client hears back (the
        append-flush-retry loop used to spin for ever at one simulated
        instant — the host hung). The lights go out on all three
        machines the instant the acknowledgement arrives."""
        cluster = make_cluster(nvram=nvram, seed=0)
        client = cluster.add_client("c1")
        data = bytes(range(250)) * 120

        def create():
            cap = yield from client.create(data)
            return cap

        cap = cluster.run_process(create())
        for index in range(3):
            cluster.crash_server(index)
        cluster.run(until=cluster.sim.now + 500.0)
        for index in range(3):
            cluster.restart_server(index)
        cluster.wait_operational(timeout_ms=60_000.0)
        assert len(cluster.operational_servers()) == 3

        def read_from(index):
            reader = cluster.add_client(f"r{index}")
            pin_to_server(reader, cluster, index)
            got = yield from reader.read(cap)
            return got

        for index in range(3):
            assert cluster.run_process(read_from(index)) == data
        cluster.run(until=cluster.sim.now + 2_000.0)  # NVRAM: the idle flush
        for site in cluster.sites:
            assert stored_bytes(site, cap.object_number) == data
        assert cluster.replicas_consistent()


class TestNvramMode:
    def test_create_much_faster_with_nvram(self):
        def create_latency(nvram):
            cluster = make_cluster(nvram=nvram, seed=8)
            client = cluster.add_client("c1")
            out = {}

            def work():
                yield from client.create(b"warm")
                start = cluster.sim.now
                yield from client.create(b"bench")
                out["t"] = cluster.sim.now - start

            cluster.run_process(work())
            return out["t"]

        disk_t = create_latency(False)
        nvram_t = create_latency(True)
        assert nvram_t < disk_t * 0.6

    def test_nvram_create_defers_disk(self):
        cluster = make_cluster(nvram=True, seed=9)
        client = cluster.add_client("c1")

        def work():
            before = disk_ops(cluster)
            yield from client.create(b"logged")
            return [b - a for a, b in zip(before, disk_ops(cluster))]

        assert cluster.run_process(work()) == [0, 0, 0]

    def test_tmp_file_annihilation_at_file_level(self):
        """The log matches a delete against its still-logged create by
        the operation's class; a *subclassed* create (a file's) must
        annihilate like a directory's."""
        cluster = make_cluster(nvram=True, seed=10)
        client = cluster.add_client("c1")

        def work():
            before = disk_ops(cluster)
            cap = yield from client.create(b"temporary")
            yield from client.delete(cap)
            yield cluster.sim.sleep(1_000.0)  # flusher runs
            return [b - a for a, b in zip(before, disk_ops(cluster))]

        assert cluster.run_process(work()) == [0, 0, 0]
        assert all(count(site.nvram, "nvram.annihilations") >= 1 for site in cluster.sites)

    def test_flushed_files_reach_disk(self):
        cluster = make_cluster(nvram=True, seed=11)
        client = cluster.add_client("c1")

        def work():
            cap = yield from client.create(b"keep me")
            yield cluster.sim.sleep(2_000.0)
            return cap

        cap = cluster.run_process(work())
        for site in cluster.sites:
            assert len(site.nvram) == 0
            assert stored_bytes(site, cap.object_number) == b"keep me"


# ----------------------------------------------------------------------
# a delete that lands while the flusher is writing its create out
# ----------------------------------------------------------------------

#: Delete instants, measured from the create's acknowledgement. The
#: flush the trial asks for starts at the flusher's next poll (+33 ms
#: on this seed) and ends near +89 ms: the sweep covers before,
#: inside and after. The old flusher resurrected at +86 … +94 ms.
SWEEP_MS = range(0, 150, 2)
MINI_SWEEP_MS = (0, 30, 44, 58, 72, 88, 92, 148)


def delete_during_flush_trial(delete_after_ms):
    """Create a file, have its flush requested, delete it
    *delete_after_ms* later, let everything settle, reboot all three
    replicas. Returns the replicas (by index) that hold the deleted
    file afterwards — in the table, or as an orphan on the disk."""
    cluster = make_cluster(nvram=True, seed=4, name="dfl")
    sim = cluster.sim
    client = cluster.add_client("c1")

    def work():
        cap = yield from client.create(bytes(512))
        for server in cluster.servers:
            server._flush_requested = True
        yield sim.sleep(delete_after_ms)
        yield from client.delete(cap)
        return cap

    cap = cluster.run_process(work())
    cluster.run(until=sim.now + 2_000.0)
    for index in range(3):
        cluster.restart_server(index)
    cluster.wait_operational(timeout_ms=60_000.0)
    cluster.run(until=sim.now + 1_000.0)  # deferred file deletes drain

    def read_back():
        try:
            yield from client.read(cap)
        except NoSuchFile:
            return False
        return True

    assert cluster.run_process(read_back()) is False
    return [
        site.index
        for site in cluster.sites
        if cap.object_number in site.server.state.directories
        or cap.object_number in site.server.admin.entries
        or site.bullet.file_count != len(site.server.admin.entries)
    ]


@pytest.mark.parametrize("delete_after_ms", MINI_SWEEP_MS)
def test_delete_during_flush_never_resurrects_the_file(delete_after_ms):
    """The old private flusher annihilated the board record of a file
    it was in the middle of writing out, not the write: the deleted
    file was back in all three tables after a reboot (5 of 75
    instants). The one NvramLog refuses to annihilate what a flush may
    have imaged."""
    assert delete_during_flush_trial(delete_after_ms) == []


if __name__ == "__main__":
    bad = 0
    for at in SWEEP_MS:
        holders = delete_during_flush_trial(at)
        bad += bool(holders)
        print(f"+{at:3d} ms  resurrected on {holders}")
    print(f"{bad} of {len(SWEEP_MS)} delete instants resurrected the file")
    sys.exit(1 if bad else 0)

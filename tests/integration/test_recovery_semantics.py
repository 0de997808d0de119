"""Recovery-protocol semantics beyond the basic scenarios:
the recovering flag, donor selection, and repeated crash cycles."""

import pytest

from repro.cluster import (
    GroupServiceCluster,
    NvramServiceCluster,
    ReplicatedBulletCluster,
)
from repro.directory.store import DirectoryStore

from tests.helpers import disk_ops


def populate(cluster, n, tag="d"):
    client = cluster.add_client(f"loader-{tag}")
    root = cluster.root_capability

    def work():
        for i in range(n):
            sub = yield from client.create_dir()
            yield from client.append_row(root, f"{tag}{i}", (sub,))

    cluster.run_process(work())
    cluster.run(until=cluster.sim.now + 1_500.0)


class TestRecoveringFlag:
    def test_crash_during_state_transfer_detected_at_next_boot(self):
        """The paper's reason for the flag: a server that dies in the
        middle of installing a snapshot has a MIXTURE of old and new
        directories on disk; at its next boot it must claim sequence
        number zero and recover fully from the others."""
        cluster = GroupServiceCluster(seed=29)
        cluster.start()
        cluster.wait_operational()
        populate(cluster, 5, "before")
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 2_500.0)
        populate(cluster, 30, "missed")  # big transfer -> long install
        server = cluster.restart_server(2)
        # Run until the install begins, then crash mid-transfer.
        deadline = cluster.sim.now + 60_000.0
        while not server._installing and cluster.sim.now < deadline:
            cluster.run(until=cluster.sim.now + 10.0)
        assert server._installing, "state transfer never started"
        cluster.run(until=cluster.sim.now + 200.0)  # a few dirs written
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 1_000.0)
        # The commit block on disk says: recovering.
        assert cluster.sites[2].partition.peek_block(0)[15] == 1

        # Next boot: the server must treat its own state as worthless...
        server = cluster.restart_server(2)
        cluster.run(until=cluster.sim.now + 100.0)
        # (boot_seqno is captured right after the admin load)
        deadline = cluster.sim.now + 60_000.0
        while not server.operational and cluster.sim.now < deadline:
            cluster.run(until=cluster.sim.now + 50.0)
        assert server.operational
        assert server.boot_seqno == 0
        # ...and still end up fully consistent via the donors.
        assert cluster.replicas_consistent()
        names = server.state.directories[1].names()
        assert sum(1 for n in names if n.startswith("missed")) == 30

    def test_flag_cleared_after_successful_recovery(self):
        cluster = GroupServiceCluster(seed=31)
        cluster.start()
        cluster.wait_operational()
        populate(cluster, 3)
        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 2_500.0)
        populate(cluster, 3, "more")
        cluster.restart_server(1)
        cluster.run(until=cluster.sim.now + 15_000.0)
        assert cluster.servers[1].operational
        assert not cluster.servers[1].admin.commit.recovering
        assert cluster.sites[1].partition.peek_block(0)[15] == 0


class TestDonorSelection:
    def test_donor_is_freshest_not_first(self):
        """After a total stop, the server with the highest sequence
        number feeds the others — even if it restarts last."""
        cluster = GroupServiceCluster(seed=37)
        cluster.start()
        cluster.wait_operational()
        populate(cluster, 4)
        # Stop 0 first; {1,2} take two more updates; then stop them.
        cluster.crash_server(0)
        cluster.run(until=cluster.sim.now + 2_500.0)
        populate(cluster, 2, "late")
        cluster.crash_server(1)
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 500.0)
        # Restart stale 0 first, fresh 1 and 2 afterwards.
        cluster.restart_server(0)
        cluster.run(until=cluster.sim.now + 1_000.0)
        cluster.restart_server(1)
        cluster.restart_server(2)
        cluster.wait_operational(timeout_ms=90_000.0)
        assert cluster.replicas_consistent()
        names = cluster.servers[0].state.directories[1].names()
        assert "late0" in names and "late1" in names


class TestTheDonorLoadsItsDiskOnce:
    """At boot the donor is asked for its state by a peer's
    ``get_state`` and by its own recovery at about the same moment.
    Each used to start a ``store.load()`` of its own: two passes over
    the same disk on every seed, three with two transfers queued."""

    #: (cluster, kwargs, when ``wait_operational`` returned with the
    #: double load, seed 0)
    CASES = {
        "group": (GroupServiceCluster, {"server_threads": 8}, 3_520.0),
        "nvram": (NvramServiceCluster, {}, 4_480.0),
        "rbullet": (ReplicatedBulletCluster, {}, 4_180.0),
    }

    @pytest.mark.parametrize("kind", CASES)
    def test_one_load_per_replica_and_an_earlier_boot(self, kind, monkeypatch):
        cluster_class, kwargs, with_two_loads = self.CASES[kind]
        loads = []
        load = DirectoryStore.load

        def counted(store):
            loads.append(store._node)
            return load(store)

        monkeypatch.setattr(DirectoryStore, "load", counted)
        cluster = cluster_class(seed=0, **kwargs)
        cluster.start()
        cluster.wait_operational()
        assert len(loads) == len(set(loads)) == 1  # the donor, once
        # One pass over the disk (~0.8 s) sooner, and the transfer is
        # back under the second after which a client would enquire.
        assert cluster.sim.now < with_two_loads - 500.0
        assert "rpc.enquiry" not in cluster.network.stats.frames_by_kind


class TestRepeatedCycles:
    def test_three_crash_restart_cycles_stay_consistent(self):
        cluster = GroupServiceCluster(seed=41)
        cluster.start()
        cluster.wait_operational()
        victims = (2, 0, 1)
        for round_no, victim in enumerate(victims):
            populate(cluster, 2, f"r{round_no}")
            cluster.crash_server(victim)
            cluster.run(until=cluster.sim.now + 2_500.0)
            populate(cluster, 2, f"r{round_no}x")
            cluster.restart_server(victim)
            deadline = cluster.sim.now + 60_000.0
            while (
                not cluster.servers[victim].operational
                and cluster.sim.now < deadline
            ):
                cluster.run(until=cluster.sim.now + 100.0)
            assert cluster.servers[victim].operational
        assert cluster.replicas_consistent()
        names = cluster.servers[0].state.directories[1].names()
        assert len(names) == 12
        # Every state transfer deleted the Bullet files it replaced.
        cluster.run(until=cluster.sim.now + 2_000.0)
        for site in cluster.sites:
            assert site.bullet.file_count == len(site.server.admin.entries)


class TestInstallIsOneWriteOut:
    def test_one_pass_no_orphans(self):
        """A rejoining replica hands everything its disk lacks — three
        changed directories, one deleted, four clients' session records
        — to ONE write-out: between the two single-block writes of the
        recovering flag and the seal there is exactly one batch pass
        (the classic install made ten random writes for the same
        snapshot), and every Bullet file it replaced or dropped is
        deleted afterwards."""
        cluster = GroupServiceCluster(seed=43)
        cluster.start()
        cluster.wait_operational()
        sim, root = cluster.sim, cluster.root_capability
        setup = cluster.add_client("setup")

        def before():
            subs = []
            for k in range(3):
                sub = yield from setup.create_dir()
                yield from setup.append_row(root, f"sub{k}", (sub,))
                subs.append(sub)
            doomed = yield from setup.create_dir()
            yield sim.sleep(500.0)
            return subs, doomed

        subs, doomed = cluster.run_process(before())
        cluster.crash_server(2)
        cluster.run(until=sim.now + 2_500.0)

        def while_it_is_down():
            for k in range(4):
                client = cluster.add_client(f"s{k}", retry_safe=True)
                yield from client.append_row(subs[k % 3], f"row{k}", ())
            yield from setup.delete_dir(doomed)
            yield sim.sleep(500.0)

        cluster.run_process(while_it_is_down())
        disk = cluster.sites[2].disk
        ops = disk_ops(disk)
        server = cluster.restart_server(2)
        cluster.wait_operational(timeout_ms=60_000.0)
        assert server.operational and cluster.replicas_consistent()
        assert disk_ops(disk)["batch"] - ops["batch"] == 1
        assert disk_ops(disk)["random"] - ops["random"] == 3  # load, flag, seal
        assert doomed.object_number not in server.admin.entries
        assert set(server.admin.session_entries) >= {
            f"{cluster.name}.client.s{k}" for k in range(4)
        }
        cluster.run(until=sim.now + 2_000.0)  # deferred deletes
        for site in cluster.sites:
            assert site.bullet.file_count == len(site.server.admin.entries)

"""Resource hygiene: the services must not leak storage over time.

Every directory update creates a new Bullet file; Fig. 5's 'remove old
Bullet files' step must keep the population bounded, and the NVRAM
board must never grow without bound either.
"""

import pytest

from repro.cluster import (
    GroupServiceCluster,
    NvramServiceCluster,
    ReplicatedBulletCluster,
    RpcServiceCluster,
)
from repro.errors import NoMajority, ReproError, ServiceDown
from repro.group import GroupTimings
from repro.group.timings import RESET_BACKOFF_MAX_MS, RESET_ROUNDS, RESET_VOTE_WINDOW_MS

from tests.helpers import count, counter_total, pin_to_server


class TestBulletGarbageCollection:
    def test_file_population_stays_bounded(self):
        cluster = GroupServiceCluster(seed=53)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        root = cluster.root_capability

        def churn():
            target = yield from client.create_dir()
            for i in range(20):
                yield from client.append_row(root, f"n{i}", (target,))
                yield from client.delete_row(root, f"n{i}")
            yield cluster.sim.sleep(3_000.0)  # GC drains

        cluster.run_process(churn())
        for site in cluster.sites:
            # Live directories: root + the target dir -> at most a
            # handful of files, NOT ~40 stale versions.
            assert site.bullet.file_count <= 4, (
                f"site {site.index} leaked bullet files: "
                f"{site.bullet.file_count}"
            )

    def test_object_table_blocks_recycled(self):
        cluster = GroupServiceCluster(seed=59)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        root = cluster.root_capability

        def churn():
            for i in range(15):
                cap = yield from client.create_dir()
                yield from client.delete_dir(cap)
            yield cluster.sim.sleep(1_000.0)

        cluster.run_process(churn())
        for server in cluster.servers:
            # Only long-lived entries remain; every other object-table
            # block (the partition minus the session-record region)
            # has been recycled.
            assert len(server.admin.entries) <= 2
            table_blocks = server.admin._session_area_start - 2
            assert len(server.admin._free_blocks) >= table_blocks - 2


class TestNvramBounds:
    def test_board_never_overflows_under_sustained_writes(self):
        cluster = NvramServiceCluster(seed=61, name="bound", nvram_bytes=2048)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        root = cluster.root_capability

        def churn():
            target = yield from client.create_dir()
            for i in range(40):
                yield from client.append_row(root, f"x{i}", (target,))
            rows = yield from client.list_dir(root)
            return len(rows)

        assert cluster.run_process(churn()) == 40
        for site in cluster.sites:
            assert site.nvram.used_bytes <= site.nvram.capacity_bytes
            assert count(site.nvram, "nvram.flushes") >= 2  # pressure flushes ran


def _five_appends(cluster):
    client = cluster.add_client("c")
    root = cluster.root_capability

    def work():
        target = yield from client.create_dir()
        for i in range(5):
            yield from client.append_row(root, f"after{i}", (target,))

    cluster.run_process(work())
    cluster.run(until=cluster.sim.now + 1_000.0)  # the RPC pair replicates lazily
    return cluster.replicas_consistent()


def _five_files(cluster):
    client = cluster.add_client("c")

    def work():
        for i in range(5):
            yield from client.create(b"after%d" % i)

    cluster.run_process(work())
    return cluster.replicas_consistent()


class TestRestartIsAReboot:
    """``restart_server`` on a replica nobody crashed first used to
    leave the replaced server object running beside its successor: its
    threads, and a second transport pump on the same NIC."""

    #: (cluster class, replica, its process-name prefix, threads that
    #: outlive boot besides the ``server_threads`` listeners, workload +
    #: check). Replica 0 is the sequencer: it returns before the
    #: survivors have noticed it gone.
    CASES = {
        "group": (GroupServiceCluster, 0, "dir.0.", 2, _five_appends),
        "rpc": (RpcServiceCluster, 0, "rpcdir.0.", 3, _five_appends),
        "rbullet": (ReplicatedBulletCluster, 0, "dir.0.", 2, _five_files),
    }

    @pytest.mark.parametrize("kind", CASES)
    def test_restart_without_a_crash_leaves_no_zombie(self, kind):
        cluster_class, index, prefix, long_lived, work_and_check = self.CASES[kind]
        cluster = cluster_class(seed=1)
        cluster.start()
        cluster.wait_operational()
        replaced = cluster.servers[index]
        cluster.restart_server(index)
        cluster.wait_operational()
        assert work_and_check(cluster)
        assert replaced.alive is False
        assert cluster.servers[index] is not replaced
        names = [p.name for p in cluster.sim.alive_processes()]
        assert (
            sum(name.startswith(prefix) for name in names)
            == long_lived + cluster.config.server_threads
        )
        # One live sink on the machine, and it routes to the successor:
        # the replaced server's kernels are out of the handler table.
        transport = cluster.sites[index].dir_transport
        assert transport.nic.up
        owners = {
            getattr(handler, "__self__", None)
            for handler in transport._handlers.values()
        }
        old_kernels = {replaced.rpc_server._kernel}
        if hasattr(replaced, "member"):
            old_kernels.add(replaced.member.kernel)
        assert owners and not owners & old_kernels
        assert cluster.servers[index].rpc_server._kernel in owners


class TestHeldRequestsLeaveNothingBehind:
    """Two of three replicas die: the survivor holds its requests for
    the reset's verdict, which is "no majority"."""

    def test_held_requests_are_refused_within_the_resets_bound(self):
        cluster = GroupServiceCluster(seed=5, server_threads=4)
        cluster.start()
        cluster.wait_operational()
        sim, root = cluster.sim, cluster.root_capability
        survivor = cluster.servers[0]
        outcomes = []
        clients = []

        def writer(i):
            client = cluster.add_client(f"w{i}")
            clients.append(client)
            pin_to_server(client, cluster, 0)
            started = sim.now
            try:
                yield from client.append_row(root, f"doomed{i}", (root,))
            except ReproError as exc:
                outcomes.append((exc, sim.now - started))
            else:
                outcomes.append((None, sim.now - started))

        crashed_at = sim.now
        cluster.crash_server(1)
        cluster.crash_server(2)
        writers = [sim.spawn(writer(i), f"w{i}") for i in range(3)]
        for process in writers:
            sim.run_until_complete(process)

        # Refused, as Fig. 5 says — and by the reset's verdict, not by
        # a client-side timeout: detection plus at most the
        # arbitration rounds a reset may take.
        timings = GroupTimings()
        bound = timings.heartbeat_timeout_ms + timings.heartbeat_interval_ms + RESET_ROUNDS * (
            2 * RESET_VOTE_WINDOW_MS + RESET_BACKOFF_MAX_MS
        )
        assert len(outcomes) == 3
        for exc, took in outcomes:
            assert isinstance(exc, (ServiceDown, NoMajority)), exc
            assert took < bound
        assert sim.now - crashed_at < bound + 50.0
        assert counter_total(sim, "dir.held") == 3

        # Nothing is left behind: every server thread is back in
        # getreq (none parked on the reset), no apply result waits for
        # a writer that is gone, no send is pending in the group kernel,
        # and no RPC kernel holds a transaction or a wait for a reply.
        cluster.run(until=sim.now + 3_000.0)
        assert not survivor.operational
        assert survivor._reply_slots == {}
        assert survivor.member.kernel.pending_sends == {}
        assert not survivor.rpc_server._kernel._in_progress
        for kernel in [survivor.rpc_server._kernel] + [c.rpc._kernel for c in clients]:
            assert not kernel._pending and not kernel._deadlines
        assert not survivor._resetting
        waiting = [f for f in survivor.rpc_server._waiting if not f.resolved]
        assert len(waiting) == cluster.config.server_threads
        threads = [
            p for p in sim.alive_processes() if p.name.startswith("dir.0.srv")
        ]
        assert len(threads) == cluster.config.server_threads

"""End-to-end tests of the group+NVRAM directory service."""

import pytest

from repro.cluster import NvramServiceCluster

from tests.helpers import count


@pytest.fixture
def cluster():
    c = NvramServiceCluster(seed=9, name="nvr")
    c.start()
    c.wait_operational()
    return c


class TestFastPath:
    def test_update_does_no_disk_ops_in_critical_path(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            before = [site.disk.total_ops for site in cluster.sites]
            yield from client.append_row(root, "fast", (sub,))
            after = [site.disk.total_ops for site in cluster.sites]
            return [b - a for a, b in zip(before, after)]

        deltas = cluster.run_process(work())
        assert deltas == [0, 0, 0]

    def test_append_delete_pair_much_faster_than_disk(self, cluster):
        """Fig. 7 fourth column: ~27 ms (6.8x faster than plain group)."""
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            start = cluster.sim.now
            yield from client.append_row(root, "t", (sub,))
            yield from client.delete_row(root, "t")
            return cluster.sim.now - start

        elapsed = cluster.run_process(work())
        assert 18.0 < elapsed < 40.0

    def test_tmp_annihilation_saves_all_disk_ops(self, cluster):
        """The /tmp optimization: append then delete while the append
        is still logged — neither ever reaches the disk."""
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield cluster.sim.sleep(2000.0)  # let the flusher drain
            disk_before = [site.disk.total_ops for site in cluster.sites]
            yield from client.append_row(root, "tmpfile", (sub,))
            yield from client.delete_row(root, "tmpfile")
            yield cluster.sim.sleep(2000.0)  # idle flush happens here
            disk_after = [site.disk.total_ops for site in cluster.sites]
            return [b - a for a, b in zip(disk_before, disk_after)]

        deltas = cluster.run_process(work())
        assert deltas == [0, 0, 0]
        for site in cluster.sites:
            assert count(site.nvram, "nvram.annihilations") >= 1

    def test_idle_flush_applies_log_to_disk(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "durable", (sub,))
            yield cluster.sim.sleep(3000.0)  # idle -> flush
            return [len(site.nvram) for site in cluster.sites]

        lengths = cluster.run_process(work())
        assert lengths == [0, 0, 0]
        for server in cluster.servers:
            entry = server.admin.entries.get(1)
            assert entry is not None  # root reached the disk

    def test_full_board_forces_flush_and_keeps_serving(self):
        cluster = NvramServiceCluster(
            seed=11, name="tiny", nvram_bytes=1200  # a few records only
        )
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def work():
            subs = []
            for i in range(12):
                sub = yield from client.create_dir()
                yield from client.append_row(root, f"n{i}", (sub,))
                subs.append(sub)
            rows = yield from client.list_dir(root)
            return len(rows)

        assert cluster.run_process(work()) == 12
        for site in cluster.sites:
            assert count(site.nvram, "nvram.flushes") >= 1


class TestNvramRecovery:
    def test_logged_updates_survive_crash_and_recovery(self, cluster):
        """An update that only reached NVRAM (never the disk) must
        survive a full-service crash: the board is a reliable medium."""
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def before():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "only-in-nvram", (sub,))

        cluster.run_process(before())
        # Crash all three servers IMMEDIATELY — before any idle flush.
        boards = [len(site.nvram) for site in cluster.sites]
        assert any(n > 0 for n in boards)
        for i in range(3):
            cluster.crash_server(i)
        cluster.run(until=cluster.sim.now + 500.0)
        for i in range(3):
            cluster.restart_server(i)
        cluster.wait_operational(timeout_ms=60_000.0)

        reader = cluster.add_client("reader")

        def after():
            found = yield from reader.lookup(root, "only-in-nvram")
            return found is not None

        assert cluster.run_process(after()) is True
        assert cluster.replicas_consistent()

    def test_crash_mid_flush_loses_nothing(self, cluster):
        """Regression: records leave the board only AFTER their disk
        writes complete, so a crash in the middle of a flush must not
        lose an acknowledged update."""
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def seed_data():
            for i in range(4):
                sub = yield from client.create_dir()
                yield from client.append_row(root, f"k{i}", (sub,))

        cluster.run_process(seed_data())
        # Force a flush on every server and crash them all while the
        # flush's disk writes are in progress (a few ms in).
        for server in cluster.servers:
            server._flush_requested = True
        cluster.run(until=cluster.sim.now + 60.0)  # flusher poll + start
        for i in range(3):
            cluster.crash_server(i)
        cluster.run(until=cluster.sim.now + 500.0)
        for i in range(3):
            cluster.restart_server(i)
        cluster.wait_operational(timeout_ms=60_000.0)

        reader = cluster.add_client("reader")

        def after():
            results = []
            for i in range(4):
                found = yield from reader.lookup(root, f"k{i}")
                results.append(found is not None)
            return results

        assert cluster.run_process(after()) == [True] * 4
        assert cluster.replicas_consistent()

    def test_failed_flush_forgets_nothing(self):
        """A flush whose write-out fails (its Bullet server is away for
        a moment) has committed nothing, so what it set out to write
        must stay dirty: the next flush claims the whole floor and
        clears every record at or below it off the board — written
        out or not. And the flusher must outlive the failure."""
        cluster = NvramServiceCluster(seed=9, name="nvf", nvram_bytes=2048)
        cluster.start()
        cluster.wait_operational()
        sim = cluster.sim
        client = cluster.add_client("c1")
        site = cluster.sites[2]

        def first():
            quiet = yield from client.create_dir()
            busy = yield from client.create_dir()
            yield sim.sleep(1_000.0)  # idle flush: both have entries
            yield from client.append_row(quiet, "acknowledged", ())
            return quiet, busy

        quiet, busy = cluster.run_process(first())
        site.crash_bullet_server()
        site.server._flush_requested = True
        cluster.run(until=sim.now + 400.0)  # the flush gives up locating
        assert len(site.nvram) == 1
        site.restart_bullet_server()
        flushes = count(site.nvram, "nvram.flushes")

        def second():
            # Updates elsewhere until the small board has been flushed.
            k = 0
            while count(site.nvram, "nvram.flushes") == flushes:
                yield from client.append_row(busy, f"later{k}", ())
                k += 1
            yield sim.sleep(1_000.0)

        cluster.run_process(second())
        for i in range(3):
            cluster.crash_server(i)
        cluster.run(until=sim.now + 500.0)
        for i in range(3):
            cluster.restart_server(i)
        cluster.wait_operational(timeout_ms=60_000.0)
        reader = cluster.add_client("reader")

        def after():
            rows = yield from reader.list_dir(quiet)
            return [row.name for row in rows]

        assert cluster.run_process(after()) == ["acknowledged"]
        assert cluster.replicas_consistent()
        assert any(
            p.name == "dir.2.flusher" for p in sim.alive_processes()
        )

    def test_single_crash_and_catchup_with_nvram(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 2500.0)

        def during():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "while-down", (sub,))

        cluster.run_process(during())
        cluster.restart_server(2)
        cluster.run(until=cluster.sim.now + 8000.0)
        assert cluster.servers[2].operational
        assert "while-down" in cluster.servers[2].state.directories[1].names()


class TestBatteryBlip:
    """Crash-restart with a corrupt trailing log record: an
    integrity-checked board detects the damage at replay and drops the
    record (detected loss); a legacy board replays it silently."""

    def _seed_unflushed_update(self, cluster):
        client = cluster.add_client("c1")
        root = cluster.root_capability

        def before():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "only-in-nvram", (sub,))

        cluster.run_process(before())
        assert any(len(site.nvram) > 0 for site in cluster.sites)
        return root

    def _crash_restart_all(self, cluster):
        for i in range(3):
            cluster.crash_server(i)
        cluster.run(until=cluster.sim.now + 500.0)
        for i in range(3):
            cluster.restart_server(i)
        cluster.wait_operational(timeout_ms=60_000.0)

    def test_one_blipped_board_heals_from_peers(self):
        cluster = NvramServiceCluster(seed=9, name="blip", integrity=True)
        cluster.start()
        cluster.wait_operational()
        root = self._seed_unflushed_update(cluster)

        # Battery blip on ONE board, then a full-machine crash before
        # any flush: server 2's damaged trailing record is excluded
        # from its recovery seqno, so an intact peer becomes the donor
        # and the acknowledged update survives.
        assert cluster.sites[2].nvram.blip(1) == 1
        self._crash_restart_all(cluster)

        reader = cluster.add_client("reader")

        def after():
            found = yield from reader.lookup(root, "only-in-nvram")
            return found is not None

        assert cluster.run_process(after()) is True
        assert cluster.replicas_consistent()

    def test_all_boards_blipped_is_detected_loss_not_garbage(self):
        cluster = NvramServiceCluster(seed=9, name="blip", integrity=True)
        cluster.start()
        cluster.wait_operational()
        root = self._seed_unflushed_update(cluster)

        # Every copy of the trailing record is damaged: no donor can
        # make up for it. The donor's replay must DETECT the damage and
        # skip the record — the update is lost, but loudly, and the
        # replicas still agree.
        for site in cluster.sites:
            assert site.nvram.blip(1) == 1
        self._crash_restart_all(cluster)

        reader = cluster.add_client("reader")

        def after():
            found = yield from reader.lookup(root, "only-in-nvram")
            return found is not None

        assert cluster.run_process(after()) is False  # detected loss
        assert cluster.replicas_consistent()
        registry = cluster.sim.obs.registry
        detected = sum(c.value for _, c in registry.find_counters("nvram.corrupt_records"))
        served = sum(c.value for _, c in registry.find_counters("nvram.corrupt_replayed"))
        assert detected >= 1
        assert served == 0  # nothing corrupt was ever applied

    def test_legacy_boards_replay_blipped_records_silently(self):
        cluster = NvramServiceCluster(seed=9, name="legacy")
        cluster.start()
        cluster.wait_operational()
        self._seed_unflushed_update(cluster)

        for site in cluster.sites:
            assert site.nvram.blip(1) == 1
        self._crash_restart_all(cluster)

        registry = cluster.sim.obs.registry
        served = sum(c.value for _, c in registry.find_counters("nvram.corrupt_replayed"))
        assert served >= 1  # the durability invariant's evidence

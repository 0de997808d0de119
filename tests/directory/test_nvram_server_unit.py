"""Focused tests of the NVRAM directory server's log management."""

import pytest

from repro.cluster import NvramServiceCluster

from tests.helpers import count


@pytest.fixture
def cluster():
    c = NvramServiceCluster(seed=43, name="nvu")
    c.start()
    c.wait_operational()
    return c


def run_ops(cluster, client, ops):
    """ops: list of ("append"|"delete"|"chmod", name)."""
    root = cluster.root_capability

    def work():
        target = yield from client.create_dir()
        for kind, name in ops:
            if kind == "append":
                yield from client.append_row(root, name, (target,))
            elif kind == "delete":
                yield from client.delete_row(root, name)
            elif kind == "chmod":
                yield from client.chmod_row(root, name, 0b001, (target,))

    cluster.run_process(work())


class TestAnnihilationRules:
    def test_append_chmod_delete_all_cancel(self, cluster):
        """A chmod sandwiched between append and delete of the same
        name cancels with them: the whole history nets to nothing."""
        client = cluster.add_client("c")
        run_ops(
            cluster, client,
            [("append", "tmp"), ("chmod", "tmp"), ("delete", "tmp")],
        )
        board = cluster.sites[0].nvram
        keys = [r.key for r in board.snapshot()]
        assert (1, "tmp") not in keys  # every 'tmp' record annihilated

    def test_delete_of_flushed_row_is_logged(self, cluster):
        """If the append already reached the disk (flushed), the later
        delete MUST be logged — nothing to annihilate against."""
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            target = yield from client.create_dir()
            yield from client.append_row(root, "persistent", (target,))
            yield cluster.sim.sleep(2_000.0)  # idle flush
            assert all(len(site.nvram) == 0 for site in cluster.sites)
            yield from client.delete_row(root, "persistent")

        cluster.run_process(work())
        board = cluster.sites[0].nvram
        ops = [(r.key, r.op) for r in board.snapshot()]
        assert ((1, "persistent"), "DeleteRow") in ops

    def test_create_then_delete_dir_cancels_everything(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            yield cluster.sim.sleep(2_000.0)  # flush boot-time noise
            before = [site.disk.total_ops for site in cluster.sites]
            sub = yield from client.create_dir()
            yield from client.append_row(sub, "inner", (sub,))
            yield from client.delete_dir(sub, force=True)
            yield cluster.sim.sleep(2_000.0)
            after = [site.disk.total_ops for site in cluster.sites]
            return [b - a for a, b in zip(before, after)]

        deltas = cluster.run_process(work())
        assert deltas == [0, 0, 0]  # the short-lived dir never hit disk

    def test_annihilation_only_for_unflushed_appends(self, cluster):
        """Mixed case: one name flushed, one still logged; deleting
        both annihilates only the logged one."""
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            target = yield from client.create_dir()
            yield from client.append_row(root, "old", (target,))
            yield cluster.sim.sleep(2_000.0)  # 'old' reaches disk
            yield from client.append_row(root, "fresh", (target,))
            yield from client.delete_row(root, "fresh")  # annihilates
            yield from client.delete_row(root, "old")  # must log

        cluster.run_process(work())
        board = cluster.sites[0].nvram
        keys_ops = [(r.key, r.op) for r in board.snapshot()]
        assert ((1, "old"), "DeleteRow") in keys_ops
        assert all(key != (1, "fresh") for key, _ in keys_ops)

    @pytest.mark.parametrize("delay_ms", [210, 230, 250, 270, 300, 320])
    def test_delete_during_flush_is_not_undone_by_a_restart(
        self, cluster, delay_ms
    ):
        """A delete that arrives while the idle flush is writing out
        its append finds the record still on the board — but the flush
        has already imaged the row, so cancelling the pair would leave
        the row on disk with nothing logged to remove it. The delete
        must be logged (and the directory flushed again)."""
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            target = yield from client.create_dir()
            yield cluster.sim.sleep(2_000.0)  # flush the set-up
            yield from client.append_row(root, "ghost", (target,))
            yield cluster.sim.sleep(delay_ms)
            yield from client.delete_row(root, "ghost")
            yield cluster.sim.sleep(2_000.0)  # every flush finishes

        cluster.run_process(work())
        for i in range(3):
            cluster.crash_server(i)
        cluster.run(until=cluster.sim.now + 500.0)
        for i in range(3):
            cluster.restart_server(i)
        cluster.wait_operational(timeout_ms=60_000.0)
        reader = cluster.add_client("reader")

        def after():
            return (yield from reader.lookup(root, "ghost"))

        assert cluster.run_process(after()) is None
        assert cluster.replicas_consistent()


class TestFlushAccounting:
    def test_flush_stats_separate_from_annihilations(self, cluster):
        client = cluster.add_client("c")
        run_ops(cluster, client, [("append", "keep1"), ("append", "keep2")])
        cluster.run(until=cluster.sim.now + 3_000.0)  # idle flush
        board = cluster.sites[0].nvram
        assert count(board, "nvram.flushes") >= 1
        assert count(board, "nvram.flushed_records") >= 2
        assert count(board, "nvram.annihilations") == 0

    def test_board_empty_after_idle_flush(self, cluster):
        client = cluster.add_client("c")
        run_ops(cluster, client, [("append", "a"), ("append", "b")])
        cluster.run(until=cluster.sim.now + 3_000.0)
        assert all(len(site.nvram) == 0 for site in cluster.sites)
        assert all(site.nvram.used_bytes == 0 for site in cluster.sites)

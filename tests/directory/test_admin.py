"""Unit tests for the commit block and object table (Fig. 4)."""

import pytest

from repro.amoeba.capability import Port, owner_capability
from repro.directory.admin import AdminPartition, CommitBlock
from repro.sim import Simulator
from repro.storage import Disk, RawPartition

from tests.helpers import disk_ops


def make_admin(blocks=64):
    sim = Simulator(seed=0)
    disk = Disk(sim, "d", blocks=blocks)
    partition = RawPartition(disk, 0, blocks)
    return sim, disk, AdminPartition(partition, server_index=0, n_servers=3)


def run(sim, gen):
    return sim.run_until_complete(sim.spawn(gen))


def bullet_cap(obj=1):
    return owner_capability(Port.for_service("bullet.t"), obj, 12345)


class TestCommitBlock:
    def test_encoding_roundtrip(self):
        block = CommitBlock((True, False, True), seqno=77, recovering=True,
                            next_object=42)
        decoded = CommitBlock.from_bytes(block.to_bytes(), 3)
        assert decoded == block

    def test_virgin_disk_reads_all_up(self):
        decoded = CommitBlock.from_bytes(b"", 3)
        assert decoded.config_vector == (True, True, True)
        assert decoded.seqno == 0
        assert not decoded.recovering

    def test_write_and_load(self):
        sim, disk, admin = make_admin()

        def work():
            yield from admin.write_commit_block(
                config_vector=(True, True, False), seqno=5, recovering=True
            )

        run(sim, work())
        fresh = AdminPartition(RawPartition(disk, 0, 64), 0, 3)

        def load():
            commit = yield from fresh.load()
            return commit

        commit = run(sim, load())
        assert commit.config_vector == (True, True, False)
        assert commit.seqno == 5
        assert commit.recovering

    def test_next_object_is_monotonic(self):
        sim, _, admin = make_admin()

        def work():
            yield from admin.write_commit_block(next_object=10)
            yield from admin.write_commit_block(next_object=4)  # must not regress

        run(sim, work())
        assert admin.commit.next_object == 10


class TestObjectTable:
    def test_store_and_reload_entries(self):
        sim, disk, admin = make_admin()

        def work():
            yield from admin.store_entry(7, bullet_cap(7), seqno=3, check=999)
            yield from admin.store_entry(9, bullet_cap(9), seqno=4, check=888)

        run(sim, work())
        fresh = AdminPartition(RawPartition(disk, 0, 64), 0, 3)

        def load():
            yield from fresh.load()

        run(sim, load())
        assert set(fresh.entries) == {7, 9}
        assert fresh.entries[7][1] == 3
        assert fresh.entry_checks == {7: 999, 9: 888}

    def test_store_entry_costs_two_random_writes(self):
        sim, disk, admin = make_admin()

        def work():
            yield from admin.store_entry(1, bullet_cap(), seqno=1, check=1)

        run(sim, work())
        assert disk_ops(disk)["random"] == 2  # shadow + home block

    def test_update_reuses_block(self):
        sim, disk, admin = make_admin()

        def work():
            yield from admin.store_entry(1, bullet_cap(), seqno=1, check=1)
            free_before = len(admin._free_blocks)
            yield from admin.store_entry(1, bullet_cap(), seqno=2, check=1)
            return free_before

        free_before = run(sim, work())
        assert len(admin._free_blocks) == free_before
        assert admin.entries[1][1] == 2

    def test_remove_entry_updates_commit_seqno(self):
        sim, disk, admin = make_admin()

        def work():
            yield from admin.store_entry(3, bullet_cap(3), seqno=5, check=1)
            yield from admin.remove_entry(3, commit_seqno=6, next_object=4)

        run(sim, work())
        assert 3 not in admin.entries
        assert admin.commit.seqno == 6
        assert admin.commit.next_object == 4

    def test_table_full_raises(self):
        sim, _, admin = make_admin(blocks=4)  # commit + shadow + 2 entries

        def work():
            yield from admin.store_entry(1, bullet_cap(1), 1, 1)
            yield from admin.store_entry(2, bullet_cap(2), 1, 1)
            yield from admin.store_entry(3, bullet_cap(3), 1, 1)

        process = sim.spawn(work())
        sim.run()
        from repro.errors import StorageError

        assert isinstance(process.exception, StorageError)


class TestHighestSeqno:
    def test_max_over_entries_and_commit(self):
        sim, _, admin = make_admin()

        def work():
            yield from admin.store_entry(1, bullet_cap(1), seqno=5, check=1)
            yield from admin.write_commit_block(seqno=9)

        run(sim, work())
        assert admin.highest_seqno() == 9

    def test_recovering_flag_zeroes_claim(self):
        sim, _, admin = make_admin()

        def work():
            yield from admin.store_entry(1, bullet_cap(1), seqno=5, check=1)
            yield from admin.write_commit_block(recovering=True)

        run(sim, work())
        assert admin.highest_seqno() == 0
        assert admin.highest_seqno(ignore_recovering=True) == 5

    def test_empty_table(self):
        _, _, admin = make_admin()
        assert admin.highest_seqno() == 0

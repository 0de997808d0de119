"""Unit tests for the disk model and raw partitions."""

import pytest

from repro.errors import CorruptBlock, DiskFailure, StorageError
from repro.sim import Simulator
from repro.storage import Disk, RawPartition

from tests.helpers import disk_ops


def make_disk(**kwargs):
    sim = Simulator(seed=0)
    return sim, Disk(sim, "d0", **kwargs)


def run(sim, gen):
    return sim.run_until_complete(sim.spawn(gen))


class TestBlockStore:
    def test_write_read_roundtrip(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(3, b"hello")
            data = yield from disk.read_block(3)
            return data

        assert run(sim, work()) == b"hello"

    def test_unwritten_block_reads_empty(self):
        sim, disk = make_disk()

        def work():
            data = yield from disk.read_block(7)
            return data

        assert run(sim, work()) == b""

    def test_out_of_range_rejected(self):
        sim, disk = make_disk(blocks=10)

        def work():
            yield from disk.write_block(10, b"x")

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, StorageError)

    def test_oversized_block_rejected(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(0, b"x" * 2048)

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, StorageError)

    def test_random_write_costs_tens_of_ms(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(0, b"x" * 1024)

        run(sim, work())
        assert 25.0 < sim.now < 45.0

    def test_cached_write_is_cheap(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(0, b"x", kind="cached")

        run(sim, work())
        assert sim.now < 5.0

    def test_sequential_cheaper_than_random(self):
        def time_for(kind):
            sim, disk = make_disk()

            def work():
                yield from disk.write_block(0, b"x" * 1024, kind=kind)

            run(sim, work())
            return sim.now

        assert time_for("sequential") < time_for("random")

    def test_ops_are_serialized_fifo(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(0, b"a")

        sim.spawn(work())
        sim.spawn(work())
        sim.run()
        # Two serialized random ops take twice one op's time.
        single = disk.latency.random_ms(1024)
        assert sim.now == pytest.approx(2 * single, rel=0.01)

    def test_op_counters(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(0, b"a")
            yield from disk.write_block(1, b"b", kind="cached")
            yield from disk.read_block(0)

        run(sim, work())
        assert disk_ops(disk) == {"random": 2, "sequential": 0, "cached": 1, "batch": 0}
        assert disk.total_ops == 3

    def test_peek_is_zero_time(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(2, b"z")

        run(sim, work())
        before = sim.now
        assert disk.peek_block(2) == b"z"
        assert sim.now == before


class TestWriteBlocks:
    def test_batch_prices_one_seek_plus_sequential_transfer(self):
        sim, disk = make_disk()
        writes = [(i, bytes([i]) * 1024) for i in range(8)]

        def work():
            yield from disk.write_blocks(writes)

        run(sim, work())
        lat = disk.latency
        expected = lat.seek_ms + lat.rotation_ms + 8 * 1024 / 1024.0 * lat.per_kb_ms
        assert sim.now == pytest.approx(expected, rel=0.001)
        # Far cheaper than eight separate random writes.
        assert sim.now < 8 * lat.random_ms(1024) / 3

    def test_batch_contents_and_counters(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_blocks([(0, b"a"), (5, b"b")])

        run(sim, work())
        assert disk.peek_block(0) == b"a"
        assert disk.peek_block(5) == b"b"
        assert disk_ops(disk)["batch"] == 1
        assert disk.total_ops == 1

    def test_empty_batch_is_free(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_blocks([])

        run(sim, work())
        assert sim.now == 0.0
        assert disk.total_ops == 0

    def test_batch_validates_before_writing_anything(self):
        sim, disk = make_disk(blocks=10)

        def work():
            yield from disk.write_blocks([(0, b"good"), (10, b"bad")])

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, StorageError)
        assert disk.peek_block(0) == b""  # nothing was written

    def test_partition_batch_translates_blocks(self):
        sim, disk = make_disk()
        part = RawPartition(disk, start=50, length=10)

        def work():
            yield from part.write_blocks([(0, b"commit"), (3, b"entry")])

        run(sim, work())
        assert disk.peek_block(50) == b"commit"
        assert disk.peek_block(53) == b"entry"


class TestQueueAccounting:
    """The arm-contention wait is measured separately from service
    time (regression: it used to be invisible — timing started only
    after ``Semaphore.acquire``)."""

    def test_queue_wait_not_counted_as_service_time(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(0, b"a")

        sim.spawn(work())
        sim.spawn(work())
        sim.run()
        single = disk.latency.random_ms(1024)
        op_ms = sim.obs.registry.histogram("d0", "disk.op_ms")
        queue_ms = sim.obs.registry.histogram("d0", "disk.queue_ms")
        # Both ops report pure service time...
        assert op_ms.count == 2
        assert max(op_ms._values) == pytest.approx(single, rel=0.001)
        # ...and the second op's wait shows up as queue time.
        assert queue_ms.count == 2
        assert sorted(queue_ms._values)[0] == pytest.approx(0.0, abs=1e-9)
        assert sorted(queue_ms._values)[1] == pytest.approx(single, rel=0.001)

    def test_uncontended_op_has_zero_queue_time(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(0, b"a")

        run(sim, work())
        queue_ms = sim.obs.registry.histogram("d0", "disk.queue_ms")
        assert queue_ms.count == 1
        assert queue_ms.sum == 0.0

    def test_trace_event_carries_queue_field(self):
        sim, disk = make_disk()
        sim.obs.tracer.enable()

        def work():
            yield from disk.write_block(0, b"a")

        sim.spawn(work())
        sim.spawn(work())
        sim.run()
        events = [
            e for e in sim.obs.tracer.events() if e.name == "disk.random"
        ]
        assert len(events) == 2
        queues = sorted(e.args["queue"] for e in events)
        assert queues[0] == 0.0
        assert queues[1] == pytest.approx(disk.latency.random_ms(1024), rel=0.001)


class TestExtentStore:
    def test_extent_roundtrip(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_extent("f1", b"contents", 8)
            data = yield from disk.read_extent("f1", 8)
            return data

        assert run(sim, work()) == b"contents"

    def test_missing_extent_raises(self):
        sim, disk = make_disk()

        def work():
            yield from disk.read_extent("ghost", 8)

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, StorageError)

    def test_delete_extent(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_extent("f", b"x", 1)
            yield from disk.delete_extent("f")

        run(sim, work())
        assert not disk.has_extent("f")

    def test_extent_keys_scan(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_extent(("bullet", "a", 1), b"x", 1)
            yield from disk.write_extent(("bullet", "a", 2), b"y", 1)

        run(sim, work())
        assert sorted(disk.extent_keys()) == [("bullet", "a", 1), ("bullet", "a", 2)]


class TestHeadCrash:
    def test_fail_loses_everything(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(0, b"precious")
            yield from disk.write_extent("f", b"also precious", 13)

        run(sim, work())
        disk.fail()
        with pytest.raises(DiskFailure):
            disk.peek_block(0)
        with pytest.raises(DiskFailure):
            disk.extent_keys()

    def test_access_after_fail_raises(self):
        sim, disk = make_disk()
        disk.fail()

        def work():
            yield from disk.read_block(0)

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, DiskFailure)


def counter(sim, metric):
    return sim.obs.registry.counter("d0", metric)


class TestMidBatchHeadCrash:
    """Regression: a head crash during a batch's service window must
    fail the caller — the batch's blocks were never persisted, so
    reporting success would let the caller update its RAM mirrors."""

    def test_head_crash_mid_batch_fails_the_writer(self):
        sim, disk = make_disk()
        writes = [(i, bytes([i]) * 1024) for i in range(8)]

        def work():
            yield from disk.write_blocks(writes)

        process = sim.spawn(work())
        sim.schedule(5.0, disk.fail)  # inside the batch's service time
        sim.run()
        assert isinstance(process.exception, DiskFailure)
        assert counter(sim, "disk.write_errors").value == 1
        # The queue wait was real and is still observed.
        assert sim.obs.registry.histogram("d0", "disk.queue_ms").count == 1
        # Nothing from the batch was acknowledged as persisted.
        assert disk_ops(disk)["batch"] == 0

    def test_head_crash_mid_read_counts_read_error(self):
        sim, disk = make_disk()

        def work():
            yield from disk.read_block(0)

        process = sim.spawn(work())
        sim.schedule(5.0, disk.fail)
        sim.run()
        assert isinstance(process.exception, DiskFailure)
        assert counter(sim, "disk.read_errors").value == 1
        assert counter(sim, "disk.write_errors").value == 0


class TestBitRot:
    def test_integrity_on_rot_is_detected_on_read(self):
        sim, disk = make_disk(integrity=True)

        def work():
            yield from disk.write_block(3, b"payload")

        run(sim, work())
        hit = disk.inject_bit_rot(sim.rng.stream("rot"), 1)
        assert hit == [3]

        def read():
            yield from disk.read_block(3)

        process = sim.spawn(read())
        sim.run()
        assert isinstance(process.exception, CorruptBlock)
        assert counter(sim, "disk.corrupt_detected").value == 1
        assert counter(sim, "disk.corrupt_served").value == 0

    def test_integrity_on_rot_is_detected_on_peek(self):
        sim, disk = make_disk(integrity=True)

        def work():
            yield from disk.write_block(3, b"payload")

        run(sim, work())
        disk.inject_bit_rot(sim.rng.stream("rot"), 1)
        with pytest.raises(CorruptBlock):
            disk.peek_block(3)
        assert counter(sim, "disk.corrupt_detected").value == 1

    def test_integrity_off_rot_is_served_and_counted(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(3, b"payload")
            data = yield from disk.read_block(3)
            return data

        def setup():
            yield from disk.write_block(3, b"payload")

        run(sim, setup())
        disk.inject_bit_rot(sim.rng.stream("rot"), 1)

        def read():
            data = yield from disk.read_block(3)
            return data

        # The payload is intact (legacy layout stays byte-identical);
        # only the taint accounting records what was silently served.
        assert run(sim, read()) == b"payload"
        assert counter(sim, "disk.corrupt_served").value == 1
        assert counter(sim, "disk.corrupt_detected").value == 0

    def test_rot_respects_region(self):
        sim, disk = make_disk(integrity=True)

        def work():
            yield from disk.write_block(3, b"outside")
            yield from disk.write_block(30, b"inside")

        run(sim, work())
        hit = disk.inject_bit_rot(sim.rng.stream("rot"), 5, region=(20, 40))
        assert hit == [30]

    def test_rewrite_clears_the_taint(self):
        sim, disk = make_disk(integrity=True)

        def work():
            yield from disk.write_block(3, b"old")

        run(sim, work())
        disk.inject_bit_rot(sim.rng.stream("rot"), 1)
        assert disk.tainted_blocks() == [3]

        def repair():
            yield from disk.write_block(3, b"new")
            data = yield from disk.read_block(3)
            return data

        assert run(sim, repair()) == b"new"
        assert disk.tainted_blocks() == []


class TestTornWrite:
    def test_torn_batch_keeps_prefix_and_reports_success(self):
        sim, disk = make_disk()
        disk.arm_fault("torn_write", keep_blocks=1)

        def work():
            yield from disk.write_blocks([(0, b"a"), (1, b"b"), (2, b"c")])
            return "acked"

        assert run(sim, work()) == "acked"
        assert disk.peek_block(0) == b"a"
        assert disk.peek_block(1) == b""  # silently never persisted
        assert disk.peek_block(2) == b""

    def test_torn_write_ignores_single_block_writes(self):
        sim, disk = make_disk()
        disk.arm_fault("torn_write", keep_blocks=0)

        def work():
            yield from disk.write_block(0, b"solo")
            yield from disk.write_blocks([(1, b"x"), (2, b"y")])

        run(sim, work())
        assert disk.peek_block(0) == b"solo"  # did not consume the arm
        assert disk.peek_block(1) == b""  # keep_blocks=0, but a torn
        assert disk.peek_block(2) == b""  # batch always loses its tail

    def test_torn_write_respects_region(self):
        sim, disk = make_disk()
        disk.arm_fault("torn_write", keep_blocks=0, region=(100, 200))

        def work():
            yield from disk.write_blocks([(0, b"a"), (1, b"b")])
            yield from disk.write_blocks([(100, b"c"), (101, b"d")])

        run(sim, work())
        assert disk.peek_block(0) == b"a"  # outside region: untouched
        assert disk.peek_block(1) == b"b"
        assert disk.peek_block(100) == b""  # in-region batch is torn
        assert disk.peek_block(101) == b""


class TestLostAndMisdirectedWrites:
    def test_lost_write_reports_success_without_persisting(self):
        sim, disk = make_disk()
        disk.arm_fault("lost_writes", count=1)

        def work():
            yield from disk.write_block(5, b"vanishes")
            yield from disk.write_block(6, b"lands")

        run(sim, work())
        assert disk.peek_block(5) == b""
        assert disk.peek_block(6) == b"lands"

    def test_lost_write_region_scoping(self):
        sim, disk = make_disk()
        disk.arm_fault("lost_writes", count=1, region=(50, 60))

        def work():
            yield from disk.write_block(5, b"outside")  # must not consume
            yield from disk.write_block(55, b"inside")

        run(sim, work())
        assert disk.peek_block(5) == b"outside"
        assert disk.peek_block(55) == b""

    def test_misdirected_write_detected_by_identity(self):
        sim, disk = make_disk(integrity=True)
        disk.arm_fault("misdirected_writes", count=1)

        def work():
            yield from disk.write_block(5, b"strays")

        run(sim, work())

        def read_target():
            data = yield from disk.read_block(5)
            return data

        assert run(sim, read_target()) == b""  # never landed at 5

        def read_neighbor():
            yield from disk.read_block(6)

        # The envelope self-identifies as block 5, so reading block 6
        # fails the identity check rather than serving foreign bytes.
        process = sim.spawn(read_neighbor())
        sim.run()
        assert isinstance(process.exception, CorruptBlock)
        assert counter(sim, "disk.corrupt_detected").value == 1

    def test_misdirected_write_without_integrity_taints_neighbor(self):
        sim, disk = make_disk()
        disk.arm_fault("misdirected_writes", count=1)

        def work():
            yield from disk.write_block(5, b"strays")
            data = yield from disk.read_block(6)
            return data

        assert run(sim, work()) == b"strays"  # silently served
        assert counter(sim, "disk.corrupt_served").value == 1


class TestCrashPoint:
    def test_crash_point_cuts_batch_at_block_boundary(self):
        sim, disk = make_disk()
        hook_fired = []
        disk.arm_fault("crash_point", hook=lambda: hook_fired.append(sim.now), cut_after=2)

        def work():
            yield from disk.write_blocks([(0, b"a"), (1, b"b"), (2, b"c")])

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, DiskFailure)
        assert disk.peek_block(0) == b"a"  # the persisted prefix
        assert disk.peek_block(1) == b"b"
        assert disk.peek_block(2) == b""  # the cut tail
        assert hook_fired  # the machine was power-cut
        assert counter(sim, "disk.write_errors").value == 1

    def test_crash_point_fires_on_single_block_write(self):
        sim, disk = make_disk()
        disk.arm_fault("crash_point", hook=lambda: None, cut_after=0)

        def work():
            yield from disk.write_block(7, b"torn")

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, DiskFailure)
        assert disk.peek_block(7) == b""

    def test_crash_point_respects_region(self):
        sim, disk = make_disk()
        disk.arm_fault("crash_point", hook=lambda: None, cut_after=0, region=(100, 200))

        def work():
            yield from disk.write_block(7, b"safe")
            yield from disk.write_block(150, b"boom")

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, DiskFailure)
        assert disk.peek_block(7) == b"safe"  # out-of-region write landed
        assert disk.peek_block(150) == b""


class TestArmedQueue:
    """One queue of armed write faults, consumed in arming order."""

    def test_lost_write_is_taken_before_a_misdirected_one(self):
        sim, disk = make_disk()
        disk.arm_fault("misdirected_writes", count=1)
        disk.arm_fault("lost_writes", count=1)

        def work():
            yield from disk.write_block(5, b"vanishes")
            yield from disk.write_block(8, b"strays")

        run(sim, work())
        assert disk.peek_block(5) == b""
        assert disk.peek_block(8) == b""
        assert disk.peek_block(9) == b"strays"
        assert disk._armed == []

    def test_a_second_crash_point_replaces_the_first(self):
        sim, disk = make_disk()
        disk.arm_fault("crash_point", cut_after=0, region=(100, 200))
        disk.arm_fault("crash_point", cut_after=0, region=(300, 400))

        def work():
            yield from disk.write_block(150, b"lands")
            yield from disk.write_block(350, b"boom")

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, DiskFailure)
        assert disk.peek_block(150) == b"lands"
        assert disk.peek_block(350) == b""

    def test_head_crash_clears_the_queue(self):
        sim, disk = make_disk()
        disk.arm_fault("torn_write")
        disk.arm_fault("lost_writes", count=2)
        disk.fail()
        assert disk._armed == []

    def test_unknown_kind_is_refused(self):
        sim, disk = make_disk()
        with pytest.raises(StorageError):
            disk.arm_fault("torn")


class TestExtentRot:
    def test_integrity_on_extent_rot_raises(self):
        sim, disk = make_disk(integrity=True)

        def work():
            yield from disk.write_extent("f1", b"contents", 8)

        run(sim, work())
        hit = disk.corrupt_extent(sim.rng.stream("rot"), 1)
        assert hit == ["f1"]
        assert disk.extent_corrupt("f1")

        def read():
            yield from disk.read_extent("f1", 8)

        process = sim.spawn(read())
        sim.run()
        assert isinstance(process.exception, CorruptBlock)
        assert counter(sim, "disk.corrupt_detected").value == 1

    def test_integrity_off_extent_rot_is_served_and_counted(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_extent("f1", b"contents", 8)
            data = yield from disk.read_extent("f1", 8)
            return data

        def setup():
            yield from disk.write_extent("f1", b"contents", 8)

        run(sim, setup())
        disk.corrupt_extent(sim.rng.stream("rot"), 1)

        def read():
            data = yield from disk.read_extent("f1", 8)
            return data

        assert run(sim, read()) == b"contents"
        assert counter(sim, "disk.corrupt_served").value == 1

    def test_rewrite_clears_extent_taint(self):
        sim, disk = make_disk(integrity=True)

        def work():
            yield from disk.write_extent("f1", b"old", 3)

        run(sim, work())
        disk.corrupt_extent(sim.rng.stream("rot"), 1)

        def repair():
            yield from disk.write_extent("f1", b"new", 3)
            data = yield from disk.read_extent("f1", 3)
            return data

        assert run(sim, repair()) == b"new"
        assert not disk.extent_corrupt("f1")

    def test_peek_extent_never_raises_integrity_errors(self):
        # Bullet boot-time recovery scans extents with peeks; a corrupt
        # extent must not brick the scan — reads fail loudly instead.
        sim, disk = make_disk(integrity=True)

        def work():
            yield from disk.write_extent("f1", b"contents", 8)

        run(sim, work())
        disk.corrupt_extent(sim.rng.stream("rot"), 1)
        assert disk.peek_extent("f1") == b"contents"
        assert "f1" in disk.extent_keys()


class TestRawPartition:
    def test_translation(self):
        sim, disk = make_disk()
        part = RawPartition(disk, start=100, length=10)

        def work():
            yield from part.write_block(0, b"commit")

        run(sim, work())
        assert disk.peek_block(100) == b"commit"
        assert part.peek_block(0) == b"commit"

    def test_partition_bounds(self):
        sim, disk = make_disk()
        part = RawPartition(disk, start=0, length=5)

        def work():
            yield from part.read_block(5)

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, StorageError)

    def test_partition_must_fit_disk(self):
        sim, disk = make_disk(blocks=100)
        with pytest.raises(StorageError):
            RawPartition(disk, start=90, length=20)

    def test_partitions_share_the_arm(self):
        sim, disk = make_disk()
        p1 = RawPartition(disk, 0, 10)
        p2 = RawPartition(disk, 10, 10)

        def work(part):
            yield from part.write_block(0, b"x")

        sim.spawn(work(p1))
        sim.spawn(work(p2))
        sim.run()
        single = disk.latency.random_ms(1024)
        assert sim.now == pytest.approx(2 * single, rel=0.01)


class TestQueueDepthSymmetry:
    """Audit: the arm meter's ``disk.arm.queue_depth`` must return to
    zero on every exit path — normal completion, a head crash racing
    in-flight ops, and a requester killed while queued — or the
    capacity attributor inherits a permanent phantom queue."""

    def depth(self, sim):
        return sim.obs.registry.gauge("d0", "disk.arm.queue_depth").value

    def test_normal_completion_rebalances(self):
        sim, disk = make_disk()

        def work():
            yield from disk.write_block(1, b"a")
            yield from disk.read_block(1)

        run(sim, work())
        assert self.depth(sim) == 0.0

    def test_head_crash_with_queued_ops_rebalances(self):
        sim, disk = make_disk()
        outcomes = []

        def writer(i):
            try:
                yield from disk.write_block(i, b"x" * 64)
                outcomes.append("ok")
            except DiskFailure:
                outcomes.append("failed")

        def nemesis():
            yield sim.sleep(5.0)  # mid-service for op 0, others queued
            disk.fail()

        for i in range(4):
            sim.spawn(writer(i), f"w{i}")
        sim.spawn(nemesis())
        sim.run()
        assert "failed" in outcomes and len(outcomes) == 4
        assert self.depth(sim) == 0.0

    def test_killed_waiter_leaves_both_gauges(self):
        sim, disk = make_disk()

        def holder():
            yield from disk.write_block(0, b"y" * 512)

        def victim():
            yield from disk.write_block(1, b"z" * 512)

        sim.spawn(holder(), "holder")
        victim_proc = sim.spawn(victim(), "victim")

        def killer():
            yield sim.sleep(1.0)  # victim is queued behind the holder
            assert self.depth(sim) == 2.0
            victim_proc.kill("machine crashed")
            assert self.depth(sim) == 1.0

        sim.spawn(killer())
        sim.run()
        assert self.depth(sim) == 0.0

    def test_failed_disk_rejects_without_touching_gauges(self):
        sim, disk = make_disk()
        disk.fail()

        def work():
            try:
                yield from disk.write_block(0, b"q")
            except DiskFailure:
                return "refused"

        assert run(sim, work()) == "refused"
        assert self.depth(sim) == 0.0

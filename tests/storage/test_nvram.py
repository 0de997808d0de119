"""Unit tests for the NVRAM log."""

import pytest

from repro.errors import NvramFull
from repro.sim import Simulator
from repro.storage import Nvram, NvramRecord
from repro.storage.nvram import RECORD_OVERHEAD

from tests.helpers import count


def make_nvram(capacity=1024):
    sim = Simulator(seed=0)
    return sim, Nvram(sim, capacity_bytes=capacity)


def run(sim, gen):
    return sim.run_until_complete(sim.spawn(gen))


def record(key, op="append", size=64, payload=None):
    return NvramRecord(key=key, op=op, payload=payload, size=size)


class TestAppend:
    def test_append_charges_write_time(self):
        sim, nvram = make_nvram()

        def work():
            yield from nvram.append(record("k"))

        run(sim, work())
        assert sim.now == pytest.approx(3.0)
        assert len(nvram) == 1

    def test_seqnos_are_monotonic(self):
        sim, nvram = make_nvram()

        def work():
            for i in range(3):
                yield from nvram.append(record(f"k{i}"))

        run(sim, work())
        seqnos = [r.seqno for r in nvram.snapshot()]
        assert seqnos == sorted(seqnos)
        assert len(set(seqnos)) == 3

    def test_capacity_enforced(self):
        sim, nvram = make_nvram(capacity=2 * (64 + RECORD_OVERHEAD))

        def work():
            yield from nvram.append(record("a"))
            yield from nvram.append(record("b"))
            yield from nvram.append(record("c"))

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, NvramFull)
        assert len(nvram) == 2

    def test_would_fit(self):
        _, nvram = make_nvram(capacity=200)
        assert nvram.would_fit(200 - RECORD_OVERHEAD)
        assert not nvram.would_fit(200)

    def test_exact_capacity_record_fits(self):
        """Boundary: a record that fills the board to the last byte is
        accepted, and would_fit() agrees with append() exactly."""
        payload = 256 - RECORD_OVERHEAD
        sim, nvram = make_nvram(capacity=256)
        assert nvram.would_fit(payload)

        def work():
            yield from nvram.append(record("exact", size=payload))

        run(sim, work())
        assert nvram.free_bytes == 0
        assert not nvram.would_fit(0)  # even an empty payload has overhead

    def test_one_byte_over_capacity_rejected(self):
        payload = 256 - RECORD_OVERHEAD + 1
        sim, nvram = make_nvram(capacity=256)
        assert not nvram.would_fit(payload)

        def work():
            yield from nvram.append(record("over", size=payload))

        process = sim.spawn(work())
        sim.run()
        assert isinstance(process.exception, NvramFull)
        assert len(nvram) == 0
        assert nvram.used_bytes == 0

    def test_annihilation_frees_room_for_the_next_record(self):
        """The /tmp optimization interacts with the capacity check: an
        annihilated pair returns its bytes, so a record that would not
        have fit now does."""
        size = 64
        capacity = 2 * (size + RECORD_OVERHEAD)
        sim, nvram = make_nvram(capacity=capacity)

        def fill():
            yield from nvram.append(record(("d", "tmp"), op="append", size=size))
            yield from nvram.append(record(("d", "keep"), op="append", size=size))

        run(sim, fill())
        assert not nvram.would_fit(size)
        removed = nvram.annihilate(lambda r: r.key == ("d", "tmp"))
        assert len(removed) == 1
        assert nvram.would_fit(size)

        def refill():
            yield from nvram.append(record(("d", "new"), op="append", size=size))

        run(sim, refill())
        assert [r.key for r in nvram.snapshot()] == [("d", "keep"), ("d", "new")]

    def test_used_and_free_bytes(self):
        sim, nvram = make_nvram(capacity=1024)

        def work():
            yield from nvram.append(record("a", size=100))

        run(sim, work())
        assert nvram.used_bytes == 100 + RECORD_OVERHEAD
        assert nvram.free_bytes == 1024 - 100 - RECORD_OVERHEAD


class TestAnnihilation:
    def test_append_delete_pair_annihilates(self):
        """The /tmp optimization: both records vanish, no disk I/O."""
        sim, nvram = make_nvram()

        def work():
            yield from nvram.append(record(("d1", "tmpfile"), op="append"))

        run(sim, work())
        removed = nvram.annihilate(lambda r: r.key == ("d1", "tmpfile"))
        assert len(removed) == 1
        assert len(nvram) == 0
        assert nvram.used_bytes == 0
        assert count(nvram, "nvram.annihilations") == 1

    def test_annihilate_only_matching_keys(self):
        sim, nvram = make_nvram()

        def work():
            yield from nvram.append(record("keep"))
            yield from nvram.append(record("drop"))

        run(sim, work())
        nvram.annihilate(lambda r: r.key == "drop")
        assert [r.key for r in nvram.snapshot()] == ["keep"]

    def test_annihilate_nothing_is_noop(self):
        _, nvram = make_nvram()
        assert nvram.annihilate(lambda r: True) == []
        assert count(nvram, "nvram.annihilations") == 0

    def test_pending_for_key(self):
        sim, nvram = make_nvram()

        def work():
            yield from nvram.append(record("a", op="append"))
            yield from nvram.append(record("b", op="append"))
            yield from nvram.append(record("a", op="chmod"))

        run(sim, work())
        pending = nvram.pending_for_key("a")
        assert [r.op for r in pending] == ["append", "chmod"]


class TestFlush:
    def test_remove_flushed_is_one_flush(self):
        sim, nvram = make_nvram()

        def work():
            for key in ("a", "b", "c"):
                yield from nvram.append(record(key))

        run(sim, work())
        flushed = nvram.remove_flushed(lambda r: r.key != "c")
        assert [r.key for r in flushed] == ["a", "b"]
        assert [r.key for r in nvram.snapshot()] == ["c"]
        assert count(nvram, "nvram.flushes") == 1
        assert count(nvram, "nvram.flushed_records") == 2
        assert nvram.remove_flushed(lambda r: False) == []
        assert count(nvram, "nvram.flushes") == 1

    def test_snapshot_is_nondestructive(self):
        sim, nvram = make_nvram()

        def work():
            yield from nvram.append(record("a"))

        run(sim, work())
        assert len(nvram.snapshot()) == 1
        assert len(nvram) == 1


class TestBatteryBlip:
    def fill(self, sim, nvram, n=3):
        def work():
            for i in range(n):
                yield from nvram.append(record(f"k{i}"))

        run(sim, work())

    def test_blip_corrupts_newest_records_first(self):
        sim, nvram = make_nvram()
        self.fill(sim, nvram)
        assert nvram.blip(2) == 2
        flags = [r.corrupt for r in nvram.snapshot()]
        assert flags == [False, True, True]

    def test_blip_does_not_change_occupancy(self):
        sim, nvram = make_nvram()
        self.fill(sim, nvram)
        used = nvram.used_bytes
        nvram.blip(1)
        assert nvram.used_bytes == used
        assert len(nvram) == 3

    def test_blip_reports_actual_hits(self):
        sim, nvram = make_nvram()
        self.fill(sim, nvram, n=2)
        assert nvram.blip(5) == 2  # only two intact records existed
        assert nvram.blip(1) == 0  # everything already corrupt

    def test_validate_with_integrity_detects_and_skips(self):
        sim = Simulator(seed=0)
        nvram = Nvram(sim, capacity_bytes=1024, name="n0", integrity=True)

        def work():
            yield from nvram.append(record("k"))

        run(sim, work())
        nvram.blip(1)
        damaged = nvram.snapshot()[0]
        assert nvram.validate(damaged) is False  # caller must skip it
        detected = sim.obs.registry.counter("n0", "nvram.corrupt_records")
        assert detected.value == 1

    def test_validate_without_integrity_replays_and_counts(self):
        sim = Simulator(seed=0)
        nvram = Nvram(sim, capacity_bytes=1024, name="n0")

        def work():
            yield from nvram.append(record("k"))

        run(sim, work())
        nvram.blip(1)
        damaged = nvram.snapshot()[0]
        assert nvram.validate(damaged) is True  # legacy board: replay as-is
        served = sim.obs.registry.counter("n0", "nvram.corrupt_replayed")
        assert served.value == 1

    def test_validate_intact_record_is_free(self):
        sim = Simulator(seed=0)
        nvram = Nvram(sim, capacity_bytes=1024, name="n0", integrity=True)

        def work():
            yield from nvram.append(record("k"))

        run(sim, work())
        assert nvram.validate(nvram.snapshot()[0]) is True
        detected = sim.obs.registry.counter("n0", "nvram.corrupt_records")
        assert detected.value == 0

"""The simulated spindle and raw partitions.

A :class:`Disk` is a passive box: it belongs to the machine room, not
to any server process, so a directory-server crash never touches disk
contents — the restarted server reads its state back, exactly as in
the paper's recovery protocol. Only an explicit :meth:`Disk.fail`
("head crash") loses data; after that every access raises
:class:`~repro.errors.DiskFailure` (this is the case the paper's
"escape for system administrators" exists for).

The disk serializes operations FIFO (one arm). Three access classes
are priced by :class:`~repro.sim.latency.DiskLatency`:
``random`` (seek + rotation), ``sequential`` (Bullet's contiguous
allocation), and ``cached`` (controller write-behind).

Two facilities share the spindle:

* a **block store** used through :class:`RawPartition` — fixed-size
  blocks addressed by index (the commit block and object table);
* an **extent store** used by the Bullet server — whole immutable
  files addressed by key.

With ``integrity=True`` every stored block is wrapped in a
self-identifying checksummed envelope (:mod:`repro.storage.integrity`)
and reads of damaged or misdirected blocks raise
:class:`~repro.errors.CorruptBlock`; with the default ``integrity=False``
the on-disk layout is byte-identical to the original and injected rot
is only *tainted* (tracked, and counted as ``disk.corrupt_served`` when
read) so the non-vacuity control can prove what silent corruption would
have cost. Storage faults are injected through :meth:`Disk.inject_bit_rot`
and :meth:`Disk.corrupt_extent`, or armed for a later write through
:meth:`Disk.arm_fault` — see docs/CHAOS.md for the catalogue.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import CorruptBlock, DiskFailure, StorageError
from repro.sim.latency import DiskLatency
from repro.sim.primitives import Semaphore, SemaphoreMeter
from repro.sim.scheduler import Simulator
from repro.storage.integrity import seal, unseal

BLOCK_SIZE = 1024

#: Access classes, each counted as a ``disk.<kind>`` registry counter
#: under the disk's name.
DISK_OP_KINDS = ("random", "sequential", "cached", "batch")

#: The write faults :meth:`Disk.arm_fault` takes, named after their
#: :class:`~repro.faults.plan.FaultPlan` builders.
ARMED_FAULTS = ("crash_point", "torn_write", "lost_writes", "misdirected_writes")


class Disk:
    """One spindle with FIFO op serialization and crash-proof contents."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: DiskLatency | None = None,
        blocks: int = 4096,
        integrity: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.latency = latency or DiskLatency()
        self.block_count = blocks
        #: Wrap every stored block in a checksummed self-identifying
        #: envelope and fail reads loudly as CorruptBlock. Off by
        #: default: the legacy layout must stay byte-identical for the
        #: paper-figure experiments.
        self.integrity = integrity
        self._blocks: dict[int, bytes] = {}
        self._extents: dict[Hashable, Any] = {}
        self._arm = Semaphore(1, f"{name}.arm")
        self.failed = False
        #: Device generation, part of block identity; bumps on head crash.
        self._epoch = 0
        #: Device-wide write sequence number stamped into envelopes.
        self._write_seq = 0
        #: Blocks / extents carrying injected rot. With integrity on the
        #: stored envelope bytes are really damaged too; without it the
        #: payload stays intact and the taint only drives the
        #: ``disk.corrupt_served`` accounting.
        self._tainted: set[int] = set()
        self._tainted_extents: set[Hashable] = set()
        #: Armed write faults, ``(kind, region, params)`` in arming
        #: order (chaos injection; see docs/CHAOS.md).
        self._armed: list[tuple] = []
        self._obs = sim.obs
        registry = sim.obs.registry
        self._c_ops = {
            kind: registry.counter(name, f"disk.{kind}") for kind in DISK_OP_KINDS
        }
        self._c_read_errors = registry.counter(name, "disk.read_errors")
        self._c_write_errors = registry.counter(name, "disk.write_errors")
        self._c_corrupt_detected = registry.counter(name, "disk.corrupt_detected")
        self._c_corrupt_served = registry.counter(name, "disk.corrupt_served")
        self._c_scrub_repairs = registry.counter(name, "disk.scrub_repairs")
        self._h_op_ms = registry.histogram(name, "disk.op_ms")
        self._h_queue_ms = registry.histogram(name, "disk.queue_ms")
        # The arm's meter is the disk's one busy/queue meter
        # (docs/OBSERVABILITY.md §10): disk.arm.busy_ms over a window is
        # the arm's utilization rho.
        self._arm.meter = SemaphoreMeter(registry, name, "disk.arm")

    # -- failure ---------------------------------------------------------

    def fail(self) -> None:
        """Head crash: all data is gone and every future access errors."""
        self.failed = True
        self._epoch += 1
        self._blocks.clear()
        self._extents.clear()
        self._tainted.clear()
        self._tainted_extents.clear()
        self._armed.clear()

    def _check(self) -> None:
        if self.failed:
            raise DiskFailure(f"disk {self.name} has failed")

    # -- timing core --------------------------------------------------------

    def _occupy(self, kind: str, size_bytes: int, lineage=None, errors=None):
        """Hold the arm for one operation of *kind*; charge its time.

        Time spent waiting for the arm (another op in flight) is
        measured separately from service time: ``disk.op_ms`` is pure
        service, ``disk.queue_ms`` is the contention wait, and the
        trace event carries both so the queueing created by concurrent
        storage users is visible rather than silently folded into the
        caller's apparent compute time. *lineage* stamps the trace
        event with the group message (or synthetic id) this operation
        serves, so span stitching can split persist time into
        queue-wait vs. service per operation. *errors* is the
        direction-specific error counter (``disk.read_errors`` /
        ``disk.write_errors``) bumped when the operation fails.
        """
        try:
            self._check()
        except DiskFailure:
            if errors is not None:
                errors.inc()
            raise
        queued_at = self.sim.now
        # acquire_gen, not acquire: the disk outlives its users, so
        # a machine crash mid-queue must not leak the arm.
        yield from self._arm.acquire_gen()
        queue_ms = self.sim.now - queued_at
        try:
            try:
                self._check()
                if kind == "random":
                    delay = self.latency.random_ms(size_bytes)
                elif kind == "sequential":
                    delay = self.latency.sequential_ms(size_bytes)
                elif kind == "cached":
                    delay = self.latency.cached_ms(size_bytes)
                elif kind == "batch":
                    delay = self.latency.batch_ms(size_bytes)
                else:
                    raise StorageError(f"unknown disk access kind {kind!r}")
                start = self.sim.now
                if delay > 0:
                    yield self.sim.sleep(delay)
                # A head crash while this op was being serviced must
                # not let the caller believe its data was persisted:
                # the batch's tail (and its RAM-mirror update) never
                # happened. The queue wait was real, so it is still
                # observed below before the failure propagates.
                self._check()
            except DiskFailure:
                self._h_queue_ms.observe(queue_ms)
                if errors is not None:
                    errors.inc()
                raise
            self._c_ops[kind].value += 1
            self._h_op_ms.observe(delay)
            self._h_queue_ms.observe(queue_ms)
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    self.name, "disk", f"disk.{kind}",
                    ph="X", dur=delay, ts=start,
                    lineage=lineage if lineage is not None else ("disk", self.name),
                    bytes=size_bytes,
                    queue=round(queue_ms, 6),
                )
        finally:
            self._arm.release()

    @property
    def total_ops(self) -> int:
        """All operations performed, regardless of class (the sum of
        the ``disk.<kind>`` counters)."""
        return sum(counter.value for counter in self._c_ops.values())

    # -- integrity envelopes & armed write faults --------------------------

    def _sealed(self, index: int, data: bytes) -> bytes:
        data = bytes(data)
        if not self.integrity:
            return data
        self._write_seq += 1
        return seal(self.name, index, self._epoch, self._write_seq, data)

    def _store(self, index: int, raw: bytes) -> None:
        """Land already-sealed bytes; a write always clears the taint."""
        self._blocks[index] = raw
        self._tainted.discard(index)

    def _unseal(self, index: int, raw: bytes) -> bytes:
        """Undo the envelope (integrity on) or apply taint accounting
        (integrity off). Absent blocks read as empty in both modes."""
        if self.integrity:
            if not raw:
                return b""
            try:
                return unseal(raw, self.name, index)
            except CorruptBlock:
                self._c_corrupt_detected.inc()
                raise
        if index in self._tainted:
            self._c_corrupt_served.inc()
        return raw

    def _take_armed(self, writes, kinds):
        """Consume the armed fault this write fires: the first of
        *kinds*, in that order, with an entry (the earliest armed)
        whose region one of *writes* touches. Returns ``(kind,
        params)``, or ``(None, None)``."""
        for kind in kinds:
            for i, (armed, region, params) in enumerate(self._armed):
                if armed == kind and (
                    region is None
                    or any(region[0] <= index < region[1] for index, _ in writes)
                ):
                    del self._armed[i]
                    return kind, params
        return None, None

    def _power_cut(self, cp, persisted: int, total: int):
        """Fire an armed crash point: the machine dies at a block
        boundary mid-flush. The hook (normally ``crash_server``) is
        scheduled and the writing process is failed so it can never
        update its RAM mirrors — recovery must reconcile the torn
        flush from disk alone (the paper's Fig. 5/6 argument)."""
        if cp.get("hook") is not None:
            self.sim.call_soon(cp["hook"])
        raise DiskFailure(
            f"{self.name}: power cut after {persisted}/{total} blocks of a flush"
        )

    # -- block store -----------------------------------------------------------

    def write_block(self, index: int, data: bytes, kind: str = "random", lineage=None):
        """Write one block synchronously (``yield from``)."""
        if not 0 <= index < self.block_count:
            raise StorageError(f"block {index} out of range on {self.name}")
        if len(data) > BLOCK_SIZE:
            raise StorageError(f"block write of {len(data)} bytes exceeds block size")
        yield from self._occupy(
            kind, max(len(data), BLOCK_SIZE),
            lineage=lineage, errors=self._c_write_errors,
        )
        if self._armed:
            fault, params = self._take_armed(
                [(index, data)], ("crash_point", "lost_writes", "misdirected_writes"))
            if fault == "crash_point":
                persisted = min(max(params.get("cut_after", 1), 0), 1)
                if persisted:
                    self._store(index, self._sealed(index, data))
                self._c_write_errors.inc()
                self._power_cut(params, persisted, 1)
            if fault == "lost_writes":
                # Reported success, never reached the platter (the
                # envelope's write number is spent all the same).
                self._sealed(index, data)
                return
            if fault == "misdirected_writes":
                # Lands one block over: self-identifying envelopes catch
                # this on read (identity mismatch); without integrity the
                # foreign bytes are tainted as silently-served corruption.
                wrong = index + 1 if index + 1 < self.block_count else index - 1
                self._blocks[wrong] = self._sealed(index, data)
                if not self.integrity:
                    self._tainted.add(wrong)
                return
        self._store(index, self._sealed(index, data))

    def write_blocks(self, writes, lineage=None):
        """Group-commit write of several blocks in one arm operation.

        *writes* is a list of ``(index, data)`` pairs. The whole batch
        is priced as one seek + rotational delay + sequential transfer
        of every block (:meth:`DiskLatency.batch_ms`); all blocks
        become visible together when the operation completes, so a
        concurrent reader never observes a half-applied batch — unless
        an armed torn-write or crash-point fault cuts the flush at a
        block boundary, persisting only a prefix.
        """
        if not writes:
            return
        total = 0
        for index, data in writes:
            if not 0 <= index < self.block_count:
                raise StorageError(f"block {index} out of range on {self.name}")
            if len(data) > BLOCK_SIZE:
                raise StorageError(
                    f"block write of {len(data)} bytes exceeds block size"
                )
            total += max(len(data), BLOCK_SIZE)
        yield from self._occupy(
            "batch", total, lineage=lineage, errors=self._c_write_errors,
        )
        if self._armed:
            fault, params = self._take_armed(
                writes, ("crash_point", "torn_write") if len(writes) >= 2 else ("crash_point",))
            if fault == "crash_point":
                persisted = min(max(params.get("cut_after", 1), 0), len(writes))
                for index, data in writes[:persisted]:
                    self._store(index, self._sealed(index, data))
                self._c_write_errors.inc()
                self._power_cut(params, persisted, len(writes))
            if fault == "torn_write":
                # Reported success; the tail of the batch silently never
                # persisted. The caller's RAM mirrors now lead the disk.
                kept = min(max(params.get("keep_blocks", 1), 0), len(writes) - 1)
                for index, data in writes[:kept]:
                    self._store(index, self._sealed(index, data))
                return
        for index, data in writes:
            self._store(index, self._sealed(index, data))

    def read_block(self, index: int, kind: str = "random", lineage=None):
        """Read one block synchronously; missing blocks read as empty."""
        if not 0 <= index < self.block_count:
            raise StorageError(f"block {index} out of range on {self.name}")
        yield from self._occupy(
            kind, BLOCK_SIZE, lineage=lineage, errors=self._c_read_errors,
        )
        return self._unseal(index, self._blocks.get(index, b""))

    def peek_block(self, index: int) -> bytes:
        """Zero-time inspection for tests, scrubbing and invariant checks.

        Integrity checking still applies: peeks of damaged blocks raise
        :class:`CorruptBlock` (and count a detection) exactly like timed
        reads, so boot-time table scans and the scrubber's audits see
        corruption the moment they look at it.
        """
        self._check()
        return self._unseal(index, self._blocks.get(index, b""))

    # -- extent store ------------------------------------------------------------

    def write_extent(
        self, key: Hashable, data: Any, size_bytes: int,
        kind: str = "sequential", lineage=None,
    ):
        """Store a whole immutable extent under *key*."""
        yield from self._occupy(
            kind, size_bytes, lineage=lineage, errors=self._c_write_errors,
        )
        self._extents[key] = data
        self._tainted_extents.discard(key)

    def read_extent(self, key: Hashable, size_bytes: int, kind: str = "random", lineage=None):
        """Fetch an extent; raises StorageError if absent."""
        yield from self._occupy(
            kind, size_bytes, lineage=lineage, errors=self._c_read_errors,
        )
        if key not in self._extents:
            raise StorageError(f"no extent {key!r} on disk {self.name}")
        if key in self._tainted_extents:
            if self.integrity:
                self._c_corrupt_detected.inc()
                raise CorruptBlock(
                    f"extent {key!r} on {self.name} failed its checksum"
                )
            self._c_corrupt_served.inc()
        return self._extents[key]

    def delete_extent(self, key: Hashable, kind: str = "cached", lineage=None):
        """Drop an extent (free-list update; cheap by default)."""
        yield from self._occupy(
            kind, BLOCK_SIZE, lineage=lineage, errors=self._c_write_errors,
        )
        self._extents.pop(key, None)
        self._tainted_extents.discard(key)

    def has_extent(self, key: Hashable) -> bool:
        """Zero-time existence check (used at server restart)."""
        self._check()
        return key in self._extents

    def extent_keys(self) -> list:
        """Zero-time scan of extent keys (server restart recovery)."""
        self._check()
        return list(self._extents)

    def peek_extent(self, key: Hashable) -> Any:
        """Zero-time extent inspection for tests."""
        self._check()
        return self._extents.get(key)

    # -- storage-fault injection (chaos; see docs/CHAOS.md) ----------------

    def inject_bit_rot(self, rng, blocks: int = 1, region=None) -> list[int]:
        """Rot up to *blocks* stored blocks, chosen with *rng*.

        With integrity on a real byte of the stored envelope is flipped,
        so detection is honest CRC arithmetic; without it the payload is
        left intact and only tainted, so the control run can count every
        corrupt byte it silently serves. Returns the hit indexes.
        """
        self._check()
        candidates = sorted(
            index
            for index, raw in self._blocks.items()
            if raw
            and index not in self._tainted
            and (region is None or region[0] <= index < region[1])
        )
        hit: list[int] = []
        for _ in range(min(blocks, len(candidates))):
            index = candidates.pop(rng.randrange(len(candidates)))
            if self.integrity:
                raw = bytearray(self._blocks[index])
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
                self._blocks[index] = bytes(raw)
            self._tainted.add(index)
            hit.append(index)
        return hit

    def corrupt_extent(self, rng, extents: int = 1) -> list:
        """Taint up to *extents* stored extents, chosen with *rng*.

        Extents hold structured payloads, so the rot is simulated as a
        checksum-failure flag rather than flipped bytes: integrity-on
        reads raise :class:`CorruptBlock`, integrity-off reads serve the
        data and count ``disk.corrupt_served``.
        """
        self._check()
        candidates = sorted(
            (key for key in self._extents if key not in self._tainted_extents),
            key=repr,
        )
        hit: list = []
        for _ in range(min(extents, len(candidates))):
            key = candidates.pop(rng.randrange(len(candidates)))
            self._tainted_extents.add(key)
            hit.append(key)
        return hit

    def arm_fault(self, kind: str, region=None, **params) -> None:
        """Arm a one-shot write fault for the next write touching
        *region* (any write, if None). *kind* is one of
        :data:`ARMED_FAULTS`:

        * ``crash_point`` (``cut_after``, ``hook``): power-cut the
          machine at a block boundary inside the next write, block or
          batch: *cut_after* blocks persist, *hook* is scheduled
          (normally the cluster's ``crash_server``), and the writing
          process fails so its RAM mirrors are never updated. It is
          checked first, and arming one replaces any armed before;
        * ``torn_write`` (``keep_blocks``): the next batch of two or
          more blocks persists only its first *keep_blocks* blocks but
          still reports success;
        * ``lost_writes`` / ``misdirected_writes`` (``count``): the next
          *count* single-block writes report success without reaching
          the platter / land one block away from their address. Lost
          writes are taken before misdirected ones.
        """
        if kind not in ARMED_FAULTS:
            raise StorageError(f"unknown armed fault {kind!r}")
        if kind == "crash_point":
            self._armed = [f for f in self._armed if f[0] != "crash_point"]
        count = params.pop("count", 1)
        self._armed.extend([(kind, region, params)] * count)

    def extent_corrupt(self, key: Hashable) -> bool:
        """Zero-time taint check (scrubber / restart audits)."""
        self._check()
        return key in self._tainted_extents

    def tainted_blocks(self) -> list[int]:
        """Zero-time list of block indexes carrying injected rot."""
        self._check()
        return sorted(self._tainted)

    def note_scrub_repairs(self, count: int = 1) -> None:
        """Credit *count* scrubber repairs to this device's metrics."""
        self._c_scrub_repairs.inc(count)


class RawPartition:
    """A window of consecutive blocks on a disk.

    Block 0 of the partition is the directory service's commit block;
    blocks 1..n-1 hold the object table (Fig. 4 of the paper).
    """

    def __init__(self, disk: Disk, start: int, length: int, name: str = ""):
        if start < 0 or start + length > disk.block_count:
            raise StorageError(
                f"partition [{start}, {start + length}) exceeds disk "
                f"{disk.name} ({disk.block_count} blocks)"
            )
        self.disk = disk
        self.start = start
        self.length = length
        self.name = name or f"{disk.name}[{start}:{start + length}]"

    @property
    def region(self) -> tuple[int, int]:
        """Absolute ``(start, end)`` block range — the shape storage
        fault injection uses to target this partition."""
        return (self.start, self.start + self.length)

    def _translate(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise StorageError(f"block {index} out of partition {self.name}")
        return self.start + index

    def write_block(self, index: int, data: bytes, kind: str = "random", lineage=None):
        """Synchronous write of partition-relative block *index*."""
        yield from self.disk.write_block(
            self._translate(index), data, kind, lineage=lineage
        )

    def write_blocks(self, writes, lineage=None):
        """Group-commit write of partition-relative ``(index, data)``
        pairs in a single arm operation (see :meth:`Disk.write_blocks`)."""
        yield from self.disk.write_blocks(
            [(self._translate(index), data) for index, data in writes],
            lineage=lineage,
        )

    def read_block(self, index: int, kind: str = "random", lineage=None):
        """Synchronous read of partition-relative block *index*."""
        data = yield from self.disk.read_block(
            self._translate(index), kind, lineage=lineage
        )
        return data

    def peek_block(self, index: int) -> bytes:
        """Zero-time inspection."""
        return self.disk.peek_block(self._translate(index))

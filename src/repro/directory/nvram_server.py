"""The group directory service with NVRAM in the critical path.

The paper's fastest variant (section 4.1): instead of storing modified
directories on disk during an update, the server appends a
modification record to a 24 KB battery-backed NVRAM board. The board
is a *reliable* medium, so fault tolerance is unchanged, while the
update's critical path shrinks from two disk subsystems to one bus
write — 6.8x faster on the append-delete test.

A background flusher applies the log to disk when the server has been
idle for a while or when the board fills up. The /tmp optimization
falls out naturally: when a delete arrives while the matching append
is still in the log, both records annihilate and *no* disk operation
ever happens for that temporary name.

After a crash the board's contents survive; recovery replays the log
on top of the disk state (replay is idempotent: records whose effect
already reached disk fail validation deterministically and are
skipped).

Client cache coherence (docs/PROTOCOL.md) is inherited unchanged from
:class:`GroupDirectoryServer`: every hook — lease grants on coherent
reads, invalidation emission at the apply point, the write barrier
before the reply — lives in the shared request/apply paths, not in
the ``_persist_*`` methods this class overrides, so an NVRAM
deployment with ``cache_coherence=True`` behaves identically (the
invalidation round trip overlaps the NVRAM append instead of the disk
flush).
"""

from __future__ import annotations

from repro.directory.group_server import GroupDirectoryServer
from repro.directory.operations import (
    AppendRow,
    ChmodRow,
    CreateDir,
    DeleteDir,
    DeleteRow,
)
from repro.errors import CapabilityError, DirectoryError, NvramFull
from repro.storage.nvram import Nvram, NvramRecord

#: Flush when the server has seen no update for this long.
IDLE_FLUSH_MS = 200.0
#: How often the flusher wakes to check for idleness / pressure.
FLUSH_POLL_MS = 50.0
#: CPU cost of cancelling log records (scan + compaction of the
#: board). Calibrated so the Fig. 9 NVRAM ceiling lands near the
#: paper's 45 pairs/s.
ANNIHILATION_CPU_MS = 4.0


class NvramDirectoryServer(GroupDirectoryServer):
    """Group directory server whose commit path is an NVRAM append."""

    PERSIST_PHASE = "nvram"
    #: The commit is per-record programmed I/O — no fixed flush cost to
    #: share — so holding replies back to top a batch up only delays
    #: them: one drain per blocking receive, as before.
    TOP_UP = False

    def __init__(self, config, index, transport, bullet_port, admin, nvram: Nvram):
        super().__init__(config, index, transport, bullet_port, admin)
        self.nvram = nvram
        self._dirty: set[int] = set()  # objects with unflushed changes
        self._deleted_dirty: set[int] = set()  # deleted, not yet on disk
        self._dirty_sessions: set[str] = set()  # unflushed session entries
        self._last_update_at = 0.0
        self._flush_requested = False
        # Persist-stage accounting (capacity sampler): sim-time spent
        # in the NVRAM commit path — programmed I/O, annihilation CPU,
        # and pressure flushes (docs/OBSERVABILITY.md §10).
        self._c_persist_busy = self.sim.obs.registry.counter(
            str(self.me), "dir.persist_busy_ms")

    def start(self) -> None:
        super().start()
        self._processes.append(
            self.sim.spawn(self._flusher(), f"dir.{self.index}.flusher")
        )

    # ------------------------------------------------------------------
    # the NVRAM commit path
    # ------------------------------------------------------------------

    def _persist_effects(self, op, effects, lineage=None):
        if not (effects.touched or effects.deleted or effects.sessions):
            return  # dedup hit: replayed reply, nothing to log
        started = self.sim.now
        self._last_update_at = started
        if self._try_annihilate(op):
            yield from self.transport.cpu.use(ANNIHILATION_CPU_MS)
            self._c_persist_busy.inc(self.sim.now - started)
            return
        record = NvramRecord(
            key=self._record_key(op),
            op=type(op).__name__,
            payload=(op, self.state.update_seqno),
            size=op.wire_size(),
        )
        while True:
            try:
                # The board write is programmed I/O: it occupies the
                # server's CPU, so updates serialize through it (this
                # is what puts the Fig. 9 ceiling near 45 pairs/s).
                yield from self.transport.cpu.use(self.nvram.write_ms)
                yield from self.nvram.append(
                    record, charge_time=False, lineage=lineage
                )
                break
            except NvramFull:
                # Synchronous pressure flush, then retry the append.
                yield from self._flush()
        self._dirty.update(effects.touched)
        for obj in effects.deleted:
            self._dirty.discard(obj)
            self._deleted_dirty.add(obj)
        self._dirty_sessions.update(effects.sessions)
        self._c_persist_busy.inc(self.sim.now - started)

    def _persist_batch(self, items, lineage=None):
        """Batched commit path: the whole batch's log appends go to
        the board under one programmed-I/O CPU grant (the bus writes
        stream back-to-back instead of paying one scheduler round
        trip each). Records are still examined strictly in sequence
        order so in-batch annihilation — an append whose delete
        arrives a few slots later — behaves exactly as it would have
        one record at a time."""
        started = self.sim.now
        self._last_update_at = started
        owed_cpu_ms = 0.0
        for item in items:
            op = item.op
            effects = item.effects
            if not (effects.touched or effects.deleted or effects.sessions):
                continue  # dedup hit: replayed reply, nothing to log
            if self._try_annihilate(op):
                owed_cpu_ms += ANNIHILATION_CPU_MS
                continue
            record = NvramRecord(
                key=self._record_key(op, seqno=item.seqno,
                                     next_object=item.next_object),
                op=type(op).__name__,
                payload=(op, item.seqno),
                size=op.wire_size(),
            )
            while True:
                try:
                    yield from self.nvram.append(
                        record, charge_time=False, lineage=lineage
                    )
                    owed_cpu_ms += self.nvram.write_ms
                    break
                except NvramFull:
                    # Pay what the batch owes so far, then a
                    # synchronous pressure flush, then retry.
                    if owed_cpu_ms:
                        yield from self.transport.cpu.use(owed_cpu_ms)
                        owed_cpu_ms = 0.0
                    yield from self._flush()
            self._dirty.update(item.effects.touched)
            for obj in item.effects.deleted:
                self._dirty.discard(obj)
                self._deleted_dirty.add(obj)
            self._dirty_sessions.update(item.effects.sessions)
        if owed_cpu_ms:
            yield from self.transport.cpu.use(owed_cpu_ms)
        self._c_persist_busy.inc(self.sim.now - started)

    def _record_key(self, op, seqno=None, next_object=None):
        """The annihilation key; *seqno*/*next_object* are the state
        counters as of this op's apply point (batched applies capture
        them, the singleton path reads the live state)."""
        if isinstance(op, (AppendRow, ChmodRow, DeleteRow)):
            return (op.cap.object_number, op.name)
        if isinstance(op, DeleteDir):
            return (op.cap.object_number, None)
        if isinstance(op, CreateDir):
            # The object number just allocated is next_object - 1.
            if next_object is None:
                next_object = self.state.next_object
            return (next_object - 1, None)
        if seqno is None:
            seqno = self.state.update_seqno
        return ("set-op", seqno)

    def _try_annihilate(self, op) -> bool:
        """The /tmp optimization. Returns True when the operation (and
        its still-logged counterpart) cancel without touching disk."""
        if isinstance(op, DeleteRow):
            key = (op.cap.object_number, op.name)
            pending = self.nvram.pending_for_key(key)
            if pending and pending[0].op == "AppendRow":
                # The row never reached the disk: the whole history of
                # this name cancels out.
                self.nvram.annihilate(lambda r: r.key == key)
                return True
        if isinstance(op, DeleteDir):
            obj = op.cap.object_number
            pending = self.nvram.pending_for_key((obj, None))
            if pending and pending[0].op == "CreateDir":
                # Directory created and deleted between flushes: drop
                # every record touching it.
                self.nvram.annihilate(
                    lambda r: isinstance(r.key, tuple) and r.key[0] == obj
                )
                self._dirty.discard(obj)
                return True
        return False

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------

    def _flusher(self):
        while self.alive:
            yield self.sim.sleep(FLUSH_POLL_MS)
            if not self.operational or len(self.nvram) == 0:
                continue
            idle = self.sim.now - self._last_update_at >= IDLE_FLUSH_MS
            pressure = self.nvram.free_bytes < self.nvram.capacity_bytes // 4
            if idle or pressure or self._flush_requested:
                self._flush_requested = False
                yield from self._flush()

    def _flush(self):
        """Apply the log to disk: write each dirty directory's current
        contents (one Bullet file + object-table commit), then clear
        the flushed records from the board.

        Ordering matters: records leave the board only AFTER their
        effects are safely on disk, so a crash mid-flush never loses an
        acknowledged update (the board still holds the unflushed tail
        and recovery replays it). Records logged after the flush began
        are kept — their directories are in the fresh dirty set.
        """
        flush_floor = self.state.update_seqno
        flush_lineage = ("flush", str(self.me))
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.flush.start",
                lineage=flush_lineage,
                logged=len(self.nvram), dirty=len(self._dirty),
            )
        dirty, self._dirty = self._dirty, set()
        deleted, self._deleted_dirty = self._deleted_dirty, set()
        for obj in sorted(dirty):
            if obj not in self.state.directories:
                deleted.add(obj)
                continue
            data = self.state.directories[obj].to_bytes()
            old_entry = self.admin.entries.get(obj)
            new_cap = yield from self.bullet.create(data, lineage=flush_lineage)
            yield from self.admin.store_entry(
                obj, new_cap, self.state.update_seqno, self.state.checks[obj],
                lineage=flush_lineage,
            )
            if old_entry is not None:
                self._remove_bullet_file_later(old_entry[0])
        for obj in sorted(deleted):
            if obj in self.admin.entries:
                old_cap = self.admin.entries[obj][0]
                yield from self.admin.remove_entry(
                    obj, self.state.update_seqno, self.state.next_object,
                    lineage=flush_lineage,
                )
                self._remove_bullet_file_later(old_cap)
        # Session records flush after the data (same rationale as the
        # disk variant: a crash in between costs a re-execution that
        # fails deterministically, never a silent lost update) and
        # before the board cleanup, so an acknowledged session entry
        # is always recoverable from disk or log.
        dirty_sessions, self._dirty_sessions = self._dirty_sessions, set()
        for client_id in sorted(dirty_sessions):
            entry = self.state.sessions.get(client_id)
            if entry is not None:
                yield from self.admin.store_session(
                    client_id, entry, lineage=flush_lineage
                )
        # Everything up to flush_floor is now on disk: those records
        # may leave the board. (Later records stay for the next flush.)
        self.nvram.remove_flushed(lambda r: r.payload[1] <= flush_floor)
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.flush.end",
                lineage=flush_lineage, remaining=len(self.nvram),
            )

    # ------------------------------------------------------------------
    # recovery integration
    # ------------------------------------------------------------------

    def best_known_seqno(self) -> int:
        """The NVRAM board survives crashes, so its logged updates
        count toward this server's recovery sequence number — except
        records a battery blip damaged (when integrity checking is
        on), and never while the disk itself is quarantined: the board
        only holds the unflushed tail, so it cannot make up for
        entries the quarantined disk may have lost."""
        base = super().best_known_seqno()
        if self.admin.quarantined_blocks:
            return base
        logged = max(
            (
                record.payload[1]
                for record in self.nvram.snapshot()
                if not (record.corrupt and self.nvram.integrity)
            ),
            default=0,
        )
        return max(base, logged)

    def rebuild_state_from_disk(self):
        """Disk state plus a replay of the surviving log.

        Only records *newer* than the disk's claimed sequence number
        are replayed: a record whose effect already reached the disk
        (the crash hit between the flush's writes and its board
        cleanup) must be skipped, or a CreateDir would mint a spurious
        second directory.
        """
        yield from super().rebuild_state_from_disk()
        disk_floor = self.state.update_seqno
        replayed = 0
        for record in self.nvram.snapshot():
            op, seqno = record.payload
            if seqno <= disk_floor:
                continue  # already reflected in the disk state
            if not self.nvram.validate(record):
                # Battery blip, integrity on: the record is damaged
                # and is dropped rather than replayed; redelivery or a
                # donor transfer restores the update. Without
                # integrity checking validate() replays it as-is and
                # counts a silently corrupt replay.
                continue
            try:
                _, effects = self.state.apply(op)
                self._dirty.update(effects.touched)
                for obj in effects.deleted:
                    self._dirty.discard(obj)
                    self._deleted_dirty.add(obj)
                self._dirty_sessions.update(effects.sessions)
            except (DirectoryError, CapabilityError):
                pass  # cancelled by a later record in the same log
            self.state.update_seqno = max(self.state.update_seqno, seqno)
            replayed += 1
        return replayed

    def _recover(self):
        yield from super()._recover()
        # Whatever path recovery took, the board and the disk must
        # agree with the adopted state: flush everything once.
        if (
            len(self.nvram) > 0
            or self._dirty
            or self._deleted_dirty
            or self._dirty_sessions
        ):
            self._dirty.update(
                obj
                for obj in self.state.directories
                if obj in self.admin.entries or obj != 1
            )
            yield from self._flush()

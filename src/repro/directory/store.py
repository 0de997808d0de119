"""One durable store per replica, and the NVRAM log in front of it.

How a directory image becomes durable is written here once: the image
goes into a new Bullet file, the object-table entry naming that file
is committed on the admin partition, and the file the entry named
before is deleted off the critical path. Every server that persists
directories — the group service, its NVRAM variant, the RPC baseline —
holds a :class:`DirectoryStore` (or an :class:`NvramLog` in front of
one) and calls nothing below it.

There are two commits, and which one a server takes is a fact about
the server. The paper's servers (the RPC baseline, the group server at
``batch_max=1``) call :meth:`DirectoryStore.commit_classic`: one
update, create → shadow page → home block → session record, each a
synchronous random write. Everything else — a cut of the batched group
server whatever it holds, an NVRAM flush, a recovery's install — is
ONE :meth:`DirectoryStore.write_out`: pipelined creates, then journal,
entries, removals, commit block and session records in a single arm
pass.

The write-out contract, which recovery relies on:

* An entry's sequence number never exceeds what its image reflects:
  the image is taken no earlier than the state the seqno names, and
  both are captured before the first yield of a write-out.
* Whenever the disk holds a mixture of old and new directories, either
  the commit block's *recovering* flag says so (:meth:`install`, run
  by the Fig. 6 recovery under that flag), or the object table has not
  yet claimed the new sequence number — all entries of one write-out
  advance in ONE ``commit_batch``, so a power cut leaves every
  directory at the old floor or every one at the new.
* A log record leaves the NVRAM board only after a commit at or above
  its seqno; replay skips exactly the records at or below the table's
  highest seqno, which is why that number must advance atomically —
  and why a flush claims no more than the log has been handed (its
  floor), although its images may already reflect updates the apply
  loop is still carrying toward the board.
* A logged record a flush may have imaged — running or finished — can
  no longer be annihilated: its delete is logged like any other
  update, so the directory is dirty again for the next flush.
* A flush whose write-out fails has committed nothing and forgets
  nothing: what it set out to write is dirty again, because the next
  flush clears the board up to its own floor, written out or not.
* A record too large for the *empty* board is never logged: its commit
  marks its directories dirty, raises the floor to its own seqno and
  flushes synchronously, so the change reaches the disk under its own
  number before it is acknowledged. Replay has no record of it to
  skip, every later flush's floor covers it, and nothing on the board
  can be annihilated against it.
"""

from __future__ import annotations

import dataclasses

from repro.directory.admin import AdminPartition
from repro.directory.operations import (
    AppendRow,
    ChmodRow,
    CreateDir,
    DeleteDir,
    DeleteRow,
    DirectoryOp,
)
from repro.directory.state import ApplyEffects, DirectoryState
from repro.errors import (
    CapabilityError,
    CorruptBlock,
    DirectoryError,
    LocateError,
    NvramFull,
    RpcError,
    StorageError,
)
from repro.sim.primitives import Mutex
from repro.storage.bullet import SERVER_THREADS, BulletClient
from repro.storage.nvram import WRITE_MS, Nvram, NvramRecord

#: Flush when the server has seen no update for this long.
IDLE_FLUSH_MS = 200.0
#: How often the flusher wakes to check for idleness / pressure.
FLUSH_POLL_MS = 50.0
#: CPU cost of cancelling log records (scan + compaction of the
#: board). Calibrated so the Fig. 9 NVRAM ceiling lands near the
#: paper's 45 pairs/s.
ANNIHILATION_CPU_MS = 4.0
#: Period of the background scrub pass (only deployments with
#: ``integrity`` on run one).
SCRUB_INTERVAL_MS = 1_000.0


@dataclasses.dataclass
class Change:
    """One applied update as the store sees it: the operation (what
    the NVRAM log records), its effects, and the state counters
    captured at its apply point — the values its persisted artifacts
    must carry. *effects* is None when the op failed deterministically:
    nothing to persist."""

    op: DirectoryOp
    effects: ApplyEffects | None
    seqno: int = 0
    next_object: int = 0


class DirectoryStore:
    """A replica's admin partition, Bullet client and deferred file
    deletion. *server* is the replica this store belongs to: its live
    ``state``, ``alive`` and ``operational`` are read, and a load hands
    the rebuilt state to its ``adopt_state``. *label* prefixes the
    names of the processes the store spawns."""

    #: Storage class charged for a commit (``storage=`` on the
    #: ``dir.persist.*`` trace events).
    MEDIUM = "disk"
    #: A commit has a fixed cost every record of the cut shares (the
    #: seek and the commit write), so the apply loop keeps topping the
    #: batch up while it applies.
    SHARED_COMMIT_COST = True

    def __init__(self, server, admin: AdminPartition, bullet: BulletClient,
                 label: str):
        self.server = server
        self.sim = server.sim
        self.admin = admin
        self.bullet = bullet
        self._label = label
        self._node = str(server.me)

    # ------------------------------------------------------------------
    # commit a cut
    # ------------------------------------------------------------------

    def commit(self, cut, lineage=None):
        """Persist the :class:`Change` records of one cut (``yield
        from``): coalesced down to each object's final image and
        written out as one unit, whether the cut holds one record or
        sixteen. *lineage* stamps every storage-layer trace event."""
        state = self.server.state
        touched: dict[int, int] = {}  # obj -> seqno of its last change
        deleted: set[int] = set()
        last_delete: Change | None = None
        #: The cut's final session record per client (first-touch
        #: order, matching block allocation in the classic commit).
        sessions: dict[str, object] = {}
        for change in cut:
            if change.effects is None:
                continue
            for obj in change.effects.touched:
                touched[obj] = change.seqno
                deleted.discard(obj)
            for obj in change.effects.deleted:
                # Deleted later in the same cut: intermediate images
                # are never written (object numbers are not reused, so
                # delete-then-recreate cannot occur).
                touched.pop(obj, None)
                deleted.add(obj)
                last_delete = change
            for client_id in change.effects.sessions:
                entry = state.sessions.get(client_id)
                if entry is not None:
                    sessions[client_id] = entry
                else:
                    # LRU-evicted by a later op of the same cut: its
                    # disk block gets reclaimed on demand.
                    sessions.pop(client_id, None)
        yield from self.write_out(
            touched, sorted(deleted), list(sessions.items()),
            commit_seqno=last_delete.seqno if last_delete else None,
            commit_next_object=last_delete.next_object if last_delete else None,
            lineage=lineage,
        )

    def commit_classic(self, change: Change, lineage=None):
        """The paper's commit of ONE applied update (``yield from``):
        a new Bullet file, then the object-table entry (shadow page +
        home block — two synchronous random writes, section 3.1), a
        deletion recorded in the commit block, the session record in a
        write of its own. Who calls this is decided by who the server
        is — the RPC baseline and the ``batch_max=1`` group server,
        which are the servers of Figs. 7/9 — never by what a cut
        happens to hold."""
        state = self.server.state
        entries = self.admin.entries
        effects = change.effects
        for obj in effects.touched:
            old = entries.get(obj)
            cap = yield from self.bullet.create(
                state.directories[obj].to_bytes(), lineage=lineage
            )
            yield from self.admin.store_entry(
                obj, cap, change.seqno, state.checks[obj], lineage=lineage
            )
            if old is not None:
                self._delete_later(old[0])
        for obj in effects.deleted:
            old = entries.get(obj)
            yield from self.admin.remove_entry(
                obj, change.seqno, change.next_object, lineage=lineage
            )
            if old is not None:
                self._delete_later(old[0])
        # Session records go last: if the crash hits between the data
        # write and the session write, a retry re-executes (visible, at
        # worst, as a deterministic AlreadyExists) — the reverse order
        # could silently drop an acknowledged update.
        for client_id in effects.sessions:
            entry = state.sessions.get(client_id)
            if entry is not None:
                yield from self.admin.store_session(
                    client_id, entry, lineage=lineage
                )

    # ------------------------------------------------------------------
    # write out / drop a set of directories atomically
    # ------------------------------------------------------------------

    def write_out(self, stores, removals=(), sessions=(), commit_seqno=None,
                  commit_next_object=None, lineage=None, state=None):
        """Make *state*'s image (the live state's by default) of every
        directory in *stores* (``{obj: seqno its entry will carry}``)
        durable, drop the entries of *removals*, and store the
        ``(client_id, SessionEntry)`` pairs of *sessions* — the Bullet
        files created in parallel, then the whole object-table change
        in ONE ``commit_batch`` arm pass (``yield from``). The images
        are taken here, before the first yield, so a caller running
        beside the apply loop may name the state's current seqno."""
        if state is None:
            state = self.server.state
        images = {obj: state.directories[obj].to_bytes() for obj in sorted(stores)}
        checks = {obj: state.checks[obj] for obj in images}
        caps = yield from self._create_files(images, lineage)
        replaced = [
            self.admin.entries[obj][0]
            for obj in (*images, *removals)
            if obj in self.admin.entries
        ]
        yield from self.admin.commit_batch(
            [(obj, caps[obj], stores[obj], checks[obj]) for obj in images],
            removals,
            commit_seqno=commit_seqno,
            commit_next_object=commit_next_object,
            session_stores=sessions,
            lineage=lineage,
        )
        for cap in replaced:
            self._delete_later(cap)

    def _create_files(self, images, lineage=None):
        """One Bullet create per image, pipelined: the creates are
        spawned together — as many at a time as the Bullet server has
        threads to take them; one more would be bounced NOTHERE — so
        their RPCs and the server's threads overlap, and the write-out
        pays roughly one disk pass instead of one per directory."""
        caps: dict[int, object] = {}
        if len(images) == 1:
            [(obj, data)] = images.items()
            caps[obj] = yield from self.bullet.create(data, lineage=lineage)
            return caps
        items = list(images.items())
        for at in range(0, len(items), SERVER_THREADS):
            procs = [
                (
                    obj,
                    self.sim.spawn(
                        self.bullet.create(data, lineage=lineage),
                        f"{self._label}.bcreate.{obj}",
                    ),
                )
                for obj, data in items[at:at + SERVER_THREADS]
            ]
            first_error: Exception | None = None
            for obj, proc in procs:
                try:
                    caps[obj] = yield proc
                except (RpcError, LocateError, StorageError) as exc:
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
        return caps

    def _delete_later(self, cap) -> None:
        """Fig. 5's 'remove old Bullet files' — after the reply path."""

        def cleanup():
            try:
                yield from self.bullet.delete(cap, lineage=("gc", self._node))
            except (RpcError, Exception):
                pass  # orphaned files are garbage-collected off-line

        if self.server.alive:
            self.sim.spawn(cleanup(), f"{self._label}.gc")

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------

    def load(self):
        """Reload the full service state from this replica's own disk
        (object table, then every directory's Bullet file) and have
        the server adopt it (``yield from``)."""
        lineage = ("recover", self._node)
        yield from self.admin.load(lineage=lineage)
        yield from self.read_directories(lineage)

    def read_directories(self, lineage=None):
        """The second half of :meth:`load`, for a caller that has just
        loaded the object table itself."""
        config = self.server.config
        state = type(self.server.state)(config.port, config.root_check)
        next_object = state.next_object
        for obj, (cap, _seqno) in sorted(self.admin.entries.items()):
            try:
                data = yield from self.bullet.read(cap, lineage=lineage)
            except CorruptBlock:
                # The directory's Bullet file is damaged on this disk:
                # quarantine the object (we then claim seqno zero, so
                # a donor transfer rewrites it) and rebuild without it.
                self.admin.quarantine_object(obj)
                continue
            state.directories[obj] = state.OBJECT.from_bytes(data)
            state.checks[obj] = self.admin.entry_checks.get(obj, 0)
            next_object = max(next_object, obj + 1)
        # The root directory has no object-table entry until first
        # modified; the bootstrap root (deterministic check) covers it.
        state.next_object = max(next_object, self.admin.commit.next_object)
        # The in-RAM reconstruction is coherent even while our own
        # recovering flag is set (it covers the on-disk mixture only).
        state.update_seqno = self.admin.highest_seqno(ignore_recovering=True)
        # Session records survive on the partition's reserved blocks;
        # the adopting server trims the table back to its RAM bound.
        state.sessions = dict(self.admin.session_entries)
        self.server.adopt_state(state)

    def logged_seqno(self) -> int:
        """Highest update seqno held durably *beside* the disk (for
        the recovery exchange): the plain store has no such medium."""
        return 0

    # ------------------------------------------------------------------
    # install a donor snapshot, seal a recovery
    # ------------------------------------------------------------------

    def install(self, new_state: DirectoryState, entry_seqnos: dict):
        """Bring the disk up to a donor's snapshot in one write-out
        (``yield from``): the directories whose entry sequence number
        differs from the donor's (a mostly-current server transfers
        little), the entries the donor no longer has, and the donor's
        session entries, so exactly-once survives a crash right after.
        The group recovery still runs this under the commit block's
        recovering flag — a pass the power cuts persists a prefix.
        Returns the number of directories written.
        """
        entries = self.admin.entries
        stores = {
            obj: donor_seq
            for obj, donor_seq in entry_seqnos.items()
            # (A directory with no entry at the donor — the never-
            # modified bootstrap root — has none here either; an entry
            # whose directory the donor's state has lost is a removal.)
            if obj in new_state.directories
            and (obj not in entries or entries[obj][1] != donor_seq)
        }
        mine = self.admin.session_entries
        yield from self.write_out(
            stores,
            sorted(obj for obj in entries if obj not in new_state.directories),
            [
                (client_id, entry)
                for client_id, entry in new_state.sessions.items()
                if client_id not in mine
                or mine[client_id].last_seqno != entry.last_seqno
            ],
            commit_seqno=new_state.update_seqno,
            commit_next_object=new_state.next_object,
            state=new_state,
        )
        return len(stores)

    def seal(self, config_vector):
        """Fig. 6's last step: the final commit block — new
        configuration vector, recovering cleared, and the claim that
        this disk reflects everything up to the live state's seqno
        (``yield from``)."""
        state = self.server.state
        yield from self.admin.write_commit_block(
            config_vector=config_vector,
            recovering=False,
            seqno=max(self.admin.commit.seqno, state.update_seqno),
            next_object=state.next_object,
        )
        # Everything quarantined at boot has been rewritten (by the
        # donor transfer, or from our own rebuilt image when we were
        # the freshest copy): the disk certifies completeness again.
        self.admin.clear_quarantine()

    # ------------------------------------------------------------------
    # scrub (docs/PROTOCOL.md "Storage integrity")
    # ------------------------------------------------------------------

    def spawn_background(self) -> list:
        """Start the store's background processes (the periodic
        scrubber when the deployment has one); the caller owns them."""
        if self.server.config.integrity:
            return [self.sim.spawn(self._scrubber(), f"{self._label}.scrub")]
        return []

    def scrub_once(self):
        """One immediate pass that swallows storage failures: the
        periodic pass (or recovery) gets another shot."""
        try:
            yield from self.scrub()
        except (RpcError, LocateError, StorageError):
            pass

    def _scrubber(self):
        """Periodic audit of the durable state against the RAM
        mirrors; anything that disagrees is rewritten in place. A pass
        never fences the replica — storage failures here are left for
        the group thread's fail-stop rule to observe."""
        interval = SCRUB_INTERVAL_MS
        while self.server.alive:
            yield self.sim.sleep(interval)
            yield from self.scrub_once()

    def scrub(self):
        """One scrub: audit every admin-partition block against the
        mirrors (re-scanning until a scan comes back clean, since a
        commit batch can land while repair writes sleep), then read
        every directory's Bullet file and re-create any that fail
        their checksum from the live RAM image."""
        server = self.server
        if not server.operational:
            return
        admin = self.admin
        partition = admin.partition
        lineage = ("scrub", self._node)
        repairs = 0
        for _scan in range(8):
            expected = admin.expected_blocks()
            damaged = []
            for index in range(partition.length):
                want = expected.get(index)
                if want is not None:
                    if not admin.verify_block(index, want):
                        damaged.append(index)
                else:
                    # Unmapped block (free space or the shadow
                    # journal): only detected rot is blanked; stale-
                    # but-valid leftovers are the pre-existing free-
                    # block regime and stay untouched.
                    try:
                        partition.peek_block(index)
                    except CorruptBlock:
                        damaged.append(index)
            if not damaged:
                break
            for index in damaged:
                if not (server.alive and server.operational):
                    return
                # Recompute right before writing: the mirror may have
                # moved on while an earlier repair slept in the queue.
                want = admin.expected_blocks().get(index, b"")
                yield from partition.write_block(index, want, lineage=lineage)
                partition.disk.note_scrub_repairs()
                repairs += 1
        for obj in sorted(admin.entries):
            if not (server.alive and server.operational):
                return
            entry = admin.entries.get(obj)
            if entry is None:
                continue  # deleted while we scrubbed
            cap = entry[0]
            try:
                yield from self.bullet.read(cap, lineage=lineage)
            except CorruptBlock:
                directory = server.state.directories.get(obj)
                if directory is None:
                    continue  # deletion in flight; its file goes too
                new_cap = yield from self.bullet.create(
                    directory.to_bytes(), lineage=lineage
                )
                current = admin.entries.get(obj)
                if current is None or current[0] != cap:
                    # The entry moved on while the replacement was
                    # being created; our repair is the stale copy now.
                    self._delete_later(new_cap)
                    continue
                yield from admin.store_entry(
                    obj, new_cap, current[1],
                    admin.entry_checks.get(obj, 0), lineage=lineage,
                )
                self._delete_later(cap)
                partition.disk.note_scrub_repairs()
                repairs += 1
        if repairs and self.sim.obs.tracer.enabled:
            self.sim.obs.tracer.emit(
                self._node, "dir", "dir.scrub", lineage=lineage, repairs=repairs,
            )


class NvramLog:
    """The 24 KB battery-backed board in front of a
    :class:`DirectoryStore` (the paper's section 4.1).

    A commit appends modification records to the board instead of
    touching the disk; a background flusher writes the dirty
    directories out through the store when the server has been idle
    for a while or the board fills up. The /tmp optimization falls out
    naturally: when a delete arrives while the matching append is
    still in the log, both records annihilate and *no* disk operation
    ever happens for that temporary name. The board survives a crash;
    :meth:`load` replays its tail on top of the disk image.
    """

    MEDIUM = "nvram"
    #: A commit is per-record programmed I/O — no fixed cost to share
    #: — so holding replies back to top a batch up only delays them.
    SHARED_COMMIT_COST = False

    def __init__(self, disk: DirectoryStore, nvram: Nvram):
        self.disk = disk
        self.nvram = nvram
        self.server = disk.server
        self.sim = disk.sim
        self._node = disk._node
        #: Objects with unflushed changes; a flush stores the ones the
        #: state still has and drops the entries of the ones it lost.
        self._dirty: set[int] = set()
        self._dirty_sessions: set[str] = set()  # unflushed session entries
        self._last_update_at = 0.0
        #: One flush at a time: a second one finishing first would
        #: clear records the first has not committed yet.
        self._flushing = Mutex(f"{disk._label}.flush")
        #: Every change at or below this update seqno has been through
        #: :meth:`commit` (logged, cancelled, or in need of no record):
        #: the next flush's floor.
        self._logged_upto = 0
        #: The state's update seqno when the latest flush took its
        #: images: no record at or below it may be annihilated.
        self._imaged_upto = 0

    # ------------------------------------------------------------------
    # the NVRAM commit path
    # ------------------------------------------------------------------

    def commit(self, cut, lineage=None):
        """Log one cut: all its appends go to the board under one
        programmed-I/O CPU grant (the bus writes stream back-to-back
        instead of paying one scheduler round trip each; the board
        write occupies the server's CPU, which is what puts the Fig. 9
        ceiling near 45 pairs/s). Records are still examined strictly
        in sequence order so in-batch annihilation — an append whose
        delete arrives a few slots later — behaves exactly as it would
        have one record at a time."""
        changes = [change for change in cut if change.effects is not None]
        if not changes:
            return
        cpu = self.server.transport.cpu
        self._last_update_at = self.sim.now
        owed_cpu_ms = 0.0
        for change in changes:
            op, effects = change.op, change.effects
            if not (effects.touched or effects.deleted or effects.sessions):
                pass  # dedup hit: replayed reply, nothing to log
            elif self._annihilates(op):
                owed_cpu_ms += ANNIHILATION_CPU_MS
            else:
                record = NvramRecord(
                    key=_record_key(op, change),
                    op=type(op).__name__,
                    payload=(op, change.seqno),
                    size=op.wire_size(),
                )
                if self.nvram.record_size(record) > self.nvram.capacity_bytes:
                    # Not even the empty board could hold it (the loop
                    # below would flush for ever): the change is never
                    # logged, a synchronous flush whose floor is raised
                    # to it carries it to disk instead.
                    if owed_cpu_ms:
                        yield from cpu.use(owed_cpu_ms)
                        owed_cpu_ms = 0.0
                    self._mark_dirty(effects)
                    self._logged_upto = change.seqno
                    yield from self.flush()
                    continue
                while True:
                    try:
                        yield from self.nvram.append(
                            record, charge_time=False, lineage=lineage
                        )
                        owed_cpu_ms += WRITE_MS
                        break
                    except NvramFull:
                        # Pay what the cut owes so far, then a
                        # synchronous pressure flush, then retry.
                        if owed_cpu_ms:
                            yield from cpu.use(owed_cpu_ms)
                            owed_cpu_ms = 0.0
                        yield from self.flush()
                self._mark_dirty(effects)
            self._logged_upto = change.seqno
        if owed_cpu_ms:
            yield from cpu.use(owed_cpu_ms)

    def commit_classic(self, change: Change, lineage=None):
        """The board is the paper's own design: its log append is the
        same for the one-record loop as for a cut."""
        return self.commit([change], lineage)

    def _mark_dirty(self, effects: ApplyEffects) -> None:
        self._dirty.update(effects.touched, effects.deleted)
        self._dirty_sessions.update(effects.sessions)

    def _annihilates(self, op) -> bool:
        """The /tmp optimization. Returns True when the operation (and
        its still-logged counterpart) cancel without touching disk —
        which they no longer can once a flush may have imaged the
        counterpart's effect (module docstring, last rule)."""
        if isinstance(op, DeleteRow):
            key = (op.cap.object_number, op.name)
            pending = self.nvram.pending_for_key(key)
            if pending and pending[0].op == "AppendRow" \
                    and pending[0].payload[1] > self._imaged_upto:
                # The row never reached the disk: the whole history of
                # this name cancels out.
                self.nvram.annihilate(lambda r: r.key == key)
                return True
        if isinstance(op, DeleteDir):
            obj = op.cap.object_number
            pending = self.nvram.pending_for_key((obj, None))
            if pending and isinstance(pending[0].payload[0], CreateDir) \
                    and pending[0].payload[1] > self._imaged_upto:
                # Directory created and deleted between flushes: drop
                # every record touching it. (It may stay in the dirty
                # set: a flush finds neither a directory nor an entry.)
                self.nvram.annihilate(
                    lambda r: isinstance(r.key, tuple) and r.key[0] == obj
                )
                return True
        return False

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------

    def spawn_background(self) -> list:
        return self.disk.spawn_background() + [
            self.sim.spawn(self._flusher(), f"{self.disk._label}.flusher")
        ]

    def _flusher(self):
        server = self.server
        while server.alive:
            yield self.sim.sleep(FLUSH_POLL_MS)
            if not server.operational or len(self.nvram) == 0:
                continue
            idle = self.sim.now - self._last_update_at >= IDLE_FLUSH_MS
            pressure = self.nvram.free_bytes < self.nvram.capacity_bytes // 4
            if idle or pressure or server._flush_requested:
                server._flush_requested = False
                try:
                    yield from self.flush()
                except (RpcError, LocateError, StorageError):
                    # Still dirty, still logged: the next poll tries
                    # again. Fencing a replica whose storage is gone is
                    # the group thread's call (its pressure flush).
                    pass

    def flush(self):
        """Apply the log to disk: one atomic write-out of every dirty
        directory's current contents, stamped with the flush floor —
        the last update seqno handed to the log, so every record at or
        below it has marked its directories dirty; only then do those
        records leave the board, so a crash mid-flush never loses an
        acknowledged update (the board still holds the tail and
        :meth:`load` replays it). Records logged after the flush began
        are kept — their directories are in the fresh dirty set."""
        if not self._flushing.try_acquire():  # free: costs no event
            yield from self._flushing.acquire_gen()
        try:
            state = self.server.state
            floor = self._logged_upto
            self._imaged_upto = state.update_seqno
            lineage = ("flush", self._node)
            tracer = self.sim.obs.tracer
            if tracer.enabled:
                tracer.emit(
                    self._node, "dir", "dir.flush.start", lineage=lineage,
                    logged=len(self.nvram), dirty=len(self._dirty),
                )
            dirty, self._dirty = self._dirty, set()
            dirty_sessions, self._dirty_sessions = self._dirty_sessions, set()
            stores = {obj: floor for obj in dirty if obj in state.directories}
            removals = sorted(
                obj for obj in dirty - stores.keys()
                if obj in self.disk.admin.entries
            )
            # A session entry ahead of the floor belongs to an update
            # still on its way to the board; on disk it would make the
            # replay of that update's record a duplicate. The record
            # marks the client dirty again when it is logged.
            sessions = [
                (client_id, state.sessions[client_id])
                for client_id in sorted(dirty_sessions)
                if client_id in state.sessions
                and state.sessions[client_id].last_active <= floor
            ]
            if stores or removals or sessions:
                try:
                    yield from self.disk.write_out(
                        stores, removals, sessions, commit_seqno=floor,
                        commit_next_object=state.next_object, lineage=lineage,
                    )
                except (RpcError, LocateError, StorageError):
                    # Nothing was committed, so nothing may be forgotten:
                    # the next flush clears the board up to *its* floor.
                    self._dirty |= dirty
                    self._dirty_sessions |= dirty_sessions
                    raise
            # Everything up to the floor is now on disk: those records
            # may leave the board. (Later records stay for the next
            # flush.)
            self.nvram.remove_flushed(lambda r: r.payload[1] <= floor)
            if tracer.enabled:
                tracer.emit(
                    self._node, "dir", "dir.flush.end", lineage=lineage,
                    remaining=len(self.nvram),
                )
        finally:
            self._flushing.release()

    # ------------------------------------------------------------------
    # recovery integration
    # ------------------------------------------------------------------

    def logged_seqno(self) -> int:
        """The board survives crashes, so its logged updates count
        toward this server's recovery sequence number — except records
        a battery blip damaged (when integrity checking is on)."""
        return max(
            (
                record.payload[1]
                for record in self.nvram.snapshot()
                if not (record.corrupt and self.nvram.integrity)
            ),
            default=0,
        )

    def load(self):
        """Disk state plus a replay of the surviving log.

        Only records *newer* than the disk's claimed sequence number
        are replayed: a record whose effect already reached the disk
        (the crash hit between the flush's commit and its board
        cleanup) must be skipped, or a CreateDir would mint a spurious
        second directory.
        """
        yield from self.disk.load()
        state = self.server.state
        disk_floor = state.update_seqno
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
                _, effects = state.apply(op)
                self._mark_dirty(effects)
            except (DirectoryError, CapabilityError):
                pass  # cancelled by a later record in the same log
            state.update_seqno = max(state.update_seqno, seqno)
        self._logged_upto = state.update_seqno

    def install(self, new_state: DirectoryState, entry_seqnos: dict):
        transferred = yield from self.disk.install(new_state, entry_seqnos)
        # A donor's table trails its image by whatever its own board
        # still holds, so equal entry seqnos do not prove our file
        # current: everything adopted is written out again, in one
        # batch, before the seal claims it (a snapshot at seqno zero —
        # first boot — holds nothing anyone was ever promised).
        if new_state.update_seqno:
            self._dirty.update(new_state.directories)
        self._logged_upto = new_state.update_seqno
        return transferred

    def seal(self, config_vector):
        """Whatever path recovery took, the board and the disk must
        agree with the adopted state before the seal claims its seqno:
        flush first."""
        if len(self.nvram) > 0 or self._dirty or self._dirty_sessions:
            yield from self.flush()
        yield from self.disk.seal(config_vector)

    def scrub_once(self):
        yield from self.disk.scrub_once()


def _record_key(op, change: Change):
    """The annihilation key of a logged operation."""
    if isinstance(op, (AppendRow, ChmodRow, DeleteRow)):
        return (op.cap.object_number, op.name)
    if isinstance(op, DeleteDir):
        return (op.cap.object_number, None)
    if isinstance(op, CreateDir):
        # The object number just allocated is next_object - 1.
        return (change.next_object - 1, None)
    return ("set-op", change.seqno)

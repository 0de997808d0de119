"""The replicated directory-service state machine.

Every server replica holds one :class:`DirectoryState` and applies the
same write operations in the same (total) order, so the replicas stay
identical — the essence of active replication. The class is *pure*:
no I/O, no simulated time. Determinism requirements:

* object numbers come from a counter inside the state;
* check fields are generated by the *initiating* server and travel
  inside the operation (``CreateDir.check``), exactly as the paper
  prescribes ("all the servers must use the same check field");
* validation failures raise the same exception on every replica.

Servers orchestrate storage around this class: which Bullet files to
rewrite after an apply is reported via :class:`ApplyEffects`.
"""

from __future__ import annotations

from typing import Callable

from repro.amoeba.capability import (
    Capability,
    Port,
    Rights,
    owner_capability,
    require,
)
from repro.directory.model import Directory
from repro.directory.operations import (
    AppendRow,
    ChmodRow,
    CreateDir,
    DeleteDir,
    DeleteRow,
    DirectoryOp,
    ListDir,
    LookupSet,
    ReplaceSet,
    SessionOp,
)
from repro.directory.session import SessionEntry, decode_reply, encode_reply
from repro.errors import CapabilityError, DirectoryError, NotEmpty, NotFound

ROOT_OBJECT = 1
#: Bound on the exactly-once session table: at most this many clients'
#: (last seqno, cached reply) entries are kept, LRU-evicted. Must not
#: exceed ``repro.directory.admin.SESSION_BLOCKS``.
SESSION_CACHE_SIZE = 32


class ApplyEffects:
    """Which directory objects an apply touched (storage follow-up).

    Built once per applied write, so a slotted class whose lists are
    literals rather than a dataclass with four ``default_factory`` calls.
    """

    __slots__ = ("created", "modified", "deleted", "sessions")

    def __init__(self, created=None, modified=None, deleted=None):
        self.created: list[int] = [] if created is None else created
        self.modified: list[int] = [] if modified is None else modified
        self.deleted: list[int] = [] if deleted is None else deleted
        #: Client ids whose session entries this apply (re)wrote; the
        #: server persists them alongside the object-table entries.
        self.sessions: list[str] = []

    @property
    def touched(self) -> list[int]:
        return self.created + self.modified


class DirectoryState:
    """All directories of one service replica."""

    #: What one object of the service is. The store and the recovery
    #: need only its image: ``to_bytes``/``from_bytes``/
    #: ``serialized_size`` (a subclass may keep another kind of object).
    OBJECT = Directory

    def __init__(self, port: Port, root_check: int):
        self.port = port
        self.directories: dict[int, Directory] = {ROOT_OBJECT: self.OBJECT()}
        self.checks: dict[int, int] = {ROOT_OBJECT: root_check}
        self.next_object = ROOT_OBJECT + 1
        #: Global update sequence number (the one recovery compares);
        #: incremented by every applied write, monotonic across group
        #: incarnations and recoveries.
        self.update_seqno = 0
        #: Per-client exactly-once session table (replicated: it rides
        #: the total order, snapshots, and the object table on disk).
        self.sessions: dict[str, SessionEntry] = {}
        #: When False, duplicates re-execute (chaos uses this to prove
        #: the linearizability checker is not vacuous).
        self.dedup_enabled = True
        #: Diagnostics (not part of the replicated state: excluded
        #: from snapshots and fingerprints).
        self.dedup_hits = 0
        self.duplicate_executions = 0
        self.dedup_listener = None  # called once per dedup hit
        #: Called once per fresh (non-duplicate) session execution, so
        #: servers can keep a cache-miss counter next to the hits.
        self.session_miss_listener = None

    # -- capabilities ------------------------------------------------------

    def _resolve(self, cap: Capability, rights: Rights) -> int:
        """Validate *cap* and return the directory object it names."""
        if cap.port != self.port:
            raise NotFound(f"capability {cap} is not for this directory service")
        check = self.checks.get(cap.object_number)
        if check is None or cap.object_number not in self.directories:
            raise NotFound(f"no directory {cap.object_number}")
        require(cap, check, rights)
        return cap.object_number

    # -- reads -------------------------------------------------------------

    def query(self, op: DirectoryOp):
        """Execute a read operation against the current state."""
        if isinstance(op, ListDir):
            obj = self._resolve(op.cap, Rights.READ)
            return self.directories[obj].listing(op.cap.column_mask())
        if isinstance(op, LookupSet):
            results = []
            for cap, name in op.items:
                obj = self._resolve(cap, Rights.READ)
                directory = self.directories[obj]
                if name in directory:
                    results.append(directory.lookup(name, cap.column_mask()))
                else:
                    results.append(None)
            return results
        raise DirectoryError(f"{type(op).__name__} is not a read operation")

    # -- writes ------------------------------------------------------------

    def apply(self, op: DirectoryOp):
        """Execute a write; returns ``(result, ApplyEffects)``.

        Raises a (deterministic) :class:`DirectoryError` subclass when
        the operation is invalid; the state is unchanged in that case.
        """
        applier = _APPLIERS.get(type(op))
        if applier is None:
            applier = _applier_for(type(op))
        return applier(self, op)

    def _bump(self) -> None:
        self.update_seqno += 1

    # -- exactly-once sessions ---------------------------------------------

    def _apply_session(self, op: SessionOp):
        """Duplicate-suppressed execution of the wrapped operation.

        Every execution is recorded, *including failed ones*: a
        deterministic apply error (AlreadyExists, NotFound, ...) is
        cached as the session's reply — returned as the result, not
        raised — and a duplicate replays it. Without the failure
        entries, a long-delayed duplicate of a failed operation could
        re-execute later, when the same operation happens to succeed,
        silently committing an update the client was told had failed.
        A seqno *below* the recorded one is a duplicate of an
        operation the client has already moved past — suppressed with
        a deterministic error rather than re-executed.
        """
        entry = self.sessions.get(op.client_id)
        if entry is not None and op.session_seqno <= entry.last_seqno:
            if self.dedup_enabled:
                self.dedup_hits += 1
                if self.dedup_listener is not None:
                    self.dedup_listener()
                if op.session_seqno == entry.last_seqno:
                    return entry.reply, ApplyEffects()
                raise DirectoryError(
                    f"stale session seqno {op.session_seqno} for client "
                    f"{op.client_id!r} (already at {entry.last_seqno})"
                )
            self.duplicate_executions += 1
        elif self.session_miss_listener is not None:
            self.session_miss_listener()
        try:
            result, effects = self.apply(op.op)
        except (DirectoryError, CapabilityError) as exc:
            # The inner apply bumps update_seqno on success; mirror
            # that here so failed session ops keep every replica's
            # counter aligned (servers bump it for raised errors, but
            # a cached failure returns instead of raising).
            self._bump()
            result, effects = exc, ApplyEffects()
        self.sessions[op.client_id] = SessionEntry(
            op.session_seqno, result, self.update_seqno
        )
        effects.sessions.append(op.client_id)
        self.trim_sessions()
        return result, effects

    def trim_sessions(self) -> None:
        """Enforce the LRU bound (oldest ``last_active`` goes first).

        ``last_active`` values are assigned from the monotone
        ``update_seqno``, so trimming after every insert and trimming
        once over a restored table keep identical survivor sets.
        """
        while len(self.sessions) > SESSION_CACHE_SIZE:
            victim = min(
                self.sessions, key=lambda cid: (self.sessions[cid].last_active, cid)
            )
            del self.sessions[victim]

    def _apply_create(self, op: CreateDir):
        if op.check is None:
            raise DirectoryError("CreateDir reached apply without a check field")
        if op.object_number is not None:
            obj = op.object_number
            self.next_object = max(self.next_object, obj + 1)
        else:
            obj = self.next_object
            self.next_object += 1
        self.directories[obj] = self._new_object(op)
        self.checks[obj] = op.check
        self._bump()
        return (
            owner_capability(self.port, obj, op.check),
            ApplyEffects(created=[obj]),
        )

    def _new_object(self, op: CreateDir):
        return Directory(op.columns)

    def _apply_delete_dir(self, op: DeleteDir):
        obj = self._resolve(op.cap, Rights.DESTROY)
        if obj == ROOT_OBJECT:
            raise DirectoryError("the root directory cannot be deleted")
        if not op.force and not self.directories[obj].empty:
            raise NotEmpty(f"directory {obj} is not empty")
        del self.directories[obj]
        del self.checks[obj]
        self._bump()
        return True, ApplyEffects(deleted=[obj])

    def _apply_append(self, op: AppendRow):
        obj = self._resolve(op.cap, Rights.MODIFY)
        self.directories[obj].append_row(op.name, op.capabilities)
        self._bump()
        return True, ApplyEffects(modified=[obj])

    def _apply_chmod(self, op: ChmodRow):
        obj = self._resolve(op.cap, Rights.MODIFY)
        self.directories[obj].chmod_row(op.name, op.column_mask, op.capabilities)
        self._bump()
        return True, ApplyEffects(modified=[obj])

    def _apply_delete_row(self, op: DeleteRow):
        obj = self._resolve(op.cap, Rights.MODIFY)
        self.directories[obj].delete_row(op.name)
        self._bump()
        return True, ApplyEffects(modified=[obj])

    def _apply_replace_set(self, op: ReplaceSet):
        # Validate everything before touching anything: the set is
        # replaced indivisibly or not at all.
        resolved = []
        for cap, name, caps in op.items:
            obj = self._resolve(cap, Rights.MODIFY)
            if name not in self.directories[obj]:
                raise NotFound(f"no row {name!r} in directory {obj}")
            resolved.append((obj, name, caps))
        for obj, name, caps in resolved:
            self.directories[obj].replace_row(name, caps)
        self._bump()
        return True, ApplyEffects(modified=sorted({obj for obj, _, _ in resolved}))

    # -- snapshots (recovery state transfer) ---------------------------------

    def to_snapshot(self) -> dict:
        """Serializable full copy (recovery donors ship this)."""
        return {
            "directories": {
                obj: directory.to_bytes()
                for obj, directory in self.directories.items()
            },
            "checks": dict(self.checks),
            "next_object": self.next_object,
            "update_seqno": self.update_seqno,
            "sessions": {
                cid: (entry.last_seqno, encode_reply(entry.reply), entry.last_active)
                for cid, entry in self.sessions.items()
            },
        }

    @classmethod
    def from_snapshot(cls, port: Port, snapshot: dict) -> "DirectoryState":
        """Rebuild a state from :meth:`to_snapshot` output."""
        state = cls(port, root_check=snapshot["checks"][ROOT_OBJECT])
        state.directories = {
            obj: cls.OBJECT.from_bytes(raw)
            for obj, raw in snapshot["directories"].items()
        }
        state.checks = dict(snapshot["checks"])
        state.next_object = snapshot["next_object"]
        state.update_seqno = snapshot["update_seqno"]
        state.sessions = {
            cid: SessionEntry(seqno, decode_reply(reply), active)
            for cid, (seqno, reply, active) in snapshot.get("sessions", {}).items()
        }
        return state

    def snapshot_size(self) -> int:
        """Approximate bytes a state transfer moves."""
        return (
            sum(d.serialized_size() for d in self.directories.values())
            + sum(40 + len(cid) for cid in self.sessions)
            + 64
        )

    def fingerprint(self) -> tuple:
        """Canonical digest for replica-equality checks in tests."""
        return (
            self.update_seqno,
            self.next_object,
            tuple(sorted(self.checks.items())),
            tuple(
                (obj, self.directories[obj].to_bytes())
                for obj in sorted(self.directories)
            ),
            tuple(
                (cid, e.last_seqno, encode_reply(e.reply), e.last_active)
                for cid, e in sorted(self.sessions.items())
            ),
        )

    def content_fingerprint(self) -> tuple:
        """Digest of the directory *contents* only, ignoring the
        bookkeeping counters. The lazily-replicated RPC service keeps
        contents identical but applies updates in (slightly) different
        orders, so its counters legitimately differ per replica."""
        return (
            tuple(sorted(self.checks.items())),
            tuple(
                (obj, self.directories[obj].to_bytes())
                for obj in sorted(self.directories)
            ),
        )


#: Write operation class -> the :class:`DirectoryState` method that
#: applies it (a subclass changes what a write does through hooks such
#: as ``_new_object``, not by overriding these). A subclass of an
#: operation (``CreateFile`` is a ``CreateDir``) is applied by its
#: nearest base's method: :func:`_applier_for`.
_APPLIERS: dict[type, Callable] = {
    SessionOp: DirectoryState._apply_session,
    CreateDir: DirectoryState._apply_create,
    DeleteDir: DirectoryState._apply_delete_dir,
    AppendRow: DirectoryState._apply_append,
    ChmodRow: DirectoryState._apply_chmod,
    DeleteRow: DirectoryState._apply_delete_row,
    ReplaceSet: DirectoryState._apply_replace_set,
}


def _applier_for(op_type: type) -> Callable:
    """The applier of the nearest base of *op_type* that has one; a read
    (or any other class) is refused."""
    for base in op_type.__mro__[1:]:
        applier = _APPLIERS.get(base)
        if applier is not None:
            return applier
    raise DirectoryError(f"{op_type.__name__} is not a write operation")

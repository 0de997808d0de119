"""Per-server administrative data on the raw disk partition (Fig. 4).

Block 0 is the **commit block**: the configuration vector (one bit per
server: was it up in the last majority configuration this server
belonged to?), the commit-block sequence number (updated only when a
directory is *deleted* — the deletion must be recorded somewhere even
though the directory's own file is gone), and the *recovering* flag
(set while a state transfer is in progress; a server that finds it set
at boot crashed mid-recovery, so its state may mix old and new
directories and its sequence number must be treated as zero).

Blocks 1..n-1 form the **object table**: one entry per directory
holding the capability of the Bullet file with the directory's
contents plus the sequence number of its last change. An entry update
is a shadow-page commit: the new entry is written to the shadow block,
then the home block — two synchronous random writes, which is the
dominant disk cost of an update in the group implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.amoeba.capability import Capability
from repro.directory.session import (
    SessionEntry,
    decode_session_record,
    encode_session_record,
)
from repro.errors import CorruptBlock, StorageError
from repro.storage.disk import RawPartition

COMMIT_BLOCK = 0
SHADOW_BLOCK = 1
FIRST_ENTRY_BLOCK = 2
#: Blocks reserved at the top of the partition for session records
#: (one per client). Must not be less than the session table's bound,
#: ``repro.directory.state.SESSION_CACHE_SIZE``, or persisted entries
#: could lag the replicated table.
SESSION_BLOCKS = 64


@dataclass
class CommitBlock:
    """Decoded contents of block 0."""

    config_vector: tuple  # bool per server index
    seqno: int
    recovering: bool
    #: High-water mark of allocated object numbers; keeps deleted
    #: directories' numbers from being reused after a full restart.
    next_object: int = 2

    def to_bytes(self) -> bytes:
        bits = sum((1 << i) for i, up in enumerate(self.config_vector) if up)
        return (
            b"CBLK"
            + len(self.config_vector).to_bytes(1, "big")
            + bits.to_bytes(2, "big")
            + self.seqno.to_bytes(8, "big")
            + (b"\x01" if self.recovering else b"\x00")
            + self.next_object.to_bytes(3, "big")
        )

    @classmethod
    def from_bytes(cls, raw: bytes, n_servers: int) -> "CommitBlock":
        if not raw or raw[:4] != b"CBLK":
            # Virgin disk: optimistically presume everyone was in the
            # last configuration, so first-ever boot requires all
            # servers present (mourned set starts empty).
            return cls(tuple(True for _ in range(n_servers)), 0, False)
        count = raw[4]
        bits = int.from_bytes(raw[5:7], "big")
        return cls(
            tuple(bool(bits & (1 << i)) for i in range(count)),
            int.from_bytes(raw[7:15], "big"),
            raw[15] == 1,
            int.from_bytes(raw[16:19], "big"),
        )


class AdminPartition:
    """One server's commit block + object table on its raw partition."""

    def __init__(
        self,
        partition: RawPartition,
        server_index: int,
        n_servers: int,
    ):
        self.partition = partition
        self.server_index = server_index
        self.n_servers = n_servers
        # The top SESSION_BLOCKS blocks hold per-client session
        # records; the object table never allocates from that region.
        # Tiny partitions (unit tests) cap the reservation at a
        # quarter so the object table keeps the lion's share.
        reserve = min(
            SESSION_BLOCKS, max(0, (partition.length - FIRST_ENTRY_BLOCK) // 4)
        )
        self._session_area_start = partition.length - reserve
        # RAM mirrors (write-through); rebuilt by load() at boot.
        self.commit = CommitBlock(tuple(True for _ in range(n_servers)), 0, False)
        #: Whether this disk has held a commit block: one was read at
        #: load or written since. Until then block 0 is rightly blank
        #: (an RPC replica writes it only on a deletion), so the audit
        #: expects nothing there.
        self.commit_on_disk = False
        self.entries: dict[int, tuple[Capability, int]] = {}
        self.entry_checks: dict[int, int] = {}
        self._block_of: dict[int, int] = {}
        self._free_blocks: list[int] = list(
            range(FIRST_ENTRY_BLOCK, self._session_area_start)
        )
        self.session_entries: dict[str, SessionEntry] = {}
        self._session_block_map: dict[str, int] = {}
        self._free_session_blocks: list[int] = list(
            range(self._session_area_start, partition.length)
        )
        #: Blocks (and pseudo-entries, see :meth:`quarantine_object`)
        #: that failed their integrity check at boot. A non-empty
        #: quarantine means this disk cannot certify completeness, so
        #: :meth:`highest_seqno` claims zero — the replica never wins
        #: the donor election and the Fig. 6 state transfer rewrites
        #: the damaged objects from an operational peer. Recovery
        #: clears the quarantine after the final seal.
        self.quarantined_blocks: list[int] = []

    # -- boot ---------------------------------------------------------------

    def load(self, lineage=None):
        """Read the partition back after a restart (``yield from``).

        Returns the decoded commit block; the object-table mirror is
        rebuilt as a side effect.
        """
        self.quarantined_blocks = []
        try:
            raw = yield from self.partition.read_block(COMMIT_BLOCK, lineage=lineage)
            self.commit = CommitBlock.from_bytes(raw, self.n_servers)
            self.commit_on_disk = raw[:4] == b"CBLK"
        except CorruptBlock:
            # A corrupt commit block is indistinguishable from a crash
            # mid-recovery: claim nothing (the paper's recovering rule)
            # and let the donor transfer rebuild this replica.
            self.commit = CommitBlock(
                tuple(True for _ in range(self.n_servers)), 0, True
            )
            self.quarantined_blocks.append(COMMIT_BLOCK)
            self.commit_on_disk = True
        self.entries = {}
        self.entry_checks = {}
        self._block_of = {}
        self._free_blocks = []
        for index in range(FIRST_ENTRY_BLOCK, self._session_area_start):
            try:
                raw = self.partition.peek_block(index)  # sequential scan,
                # charged as one sweep below rather than per block
            except CorruptBlock:
                # The entry (if it was one) is unreadable: quarantine
                # it and reuse the block. The donor transfer rewrites
                # whatever directory lived here; the scrubber blanks
                # the rot if the block stays free.
                self.quarantined_blocks.append(index)
                self._free_blocks.append(index)
                continue
            if raw[:4] == b"DENT":
                obj = int.from_bytes(raw[4:7], "big")
                cap = Capability.from_bytes(raw[7:23])
                seqno = int.from_bytes(raw[23:31], "big")
                check = int.from_bytes(raw[31:37], "big")
                self.entries[obj] = (cap, seqno)
                self.entry_checks[obj] = check
                self._block_of[obj] = index
            else:
                self._free_blocks.append(index)
        self.session_entries = {}
        self._session_block_map = {}
        self._free_session_blocks = []
        for index in range(self._session_area_start, self.partition.length):
            try:
                decoded = decode_session_record(self.partition.peek_block(index))
            except CorruptBlock:
                self.quarantined_blocks.append(index)
                self._free_session_blocks.append(index)
                continue
            if decoded is None:
                self._free_session_blocks.append(index)
                continue
            client_id, entry = decoded
            known = self.session_entries.get(client_id)
            if known is not None and known.last_seqno >= entry.last_seqno:
                # A stale leftover for the same client (should not
                # happen — records overwrite in place — but be safe).
                self._free_session_blocks.append(index)
                continue
            if known is not None:
                self._free_session_blocks.append(
                    self._session_block_map[client_id]
                )
            self.session_entries[client_id] = entry
            self._session_block_map[client_id] = index
        # One sequential sweep over the table.
        yield from self.partition.disk._occupy(
            "sequential", (self.partition.length - 1) * 1024, lineage=lineage
        )
        return self.commit

    # -- commit block ----------------------------------------------------------

    def write_commit_block(
        self, config_vector=None, seqno=None, recovering=None, next_object=None,
        lineage=None,
    ):
        """Update and persist block 0 (one synchronous random write)."""
        if config_vector is not None:
            self.commit.config_vector = tuple(config_vector)
        if seqno is not None:
            self.commit.seqno = seqno
        if recovering is not None:
            self.commit.recovering = recovering
        if next_object is not None:
            self.commit.next_object = max(self.commit.next_object, next_object)
        yield from self.partition.write_block(
            COMMIT_BLOCK, self.commit.to_bytes(), lineage=lineage
        )
        self.commit_on_disk = True

    # -- object table ------------------------------------------------------------

    @staticmethod
    def _encode_entry(obj: int, cap: Capability, seqno: int, check: int) -> bytes:
        return (
            b"DENT"
            + obj.to_bytes(3, "big")
            + cap.to_bytes()
            + seqno.to_bytes(8, "big")
            + check.to_bytes(6, "big")
        )

    def store_entry(
        self, obj: int, cap: Capability, seqno: int, check: int = 0, lineage=None
    ):
        """Write one object-table entry (Bullet capability, seqno, and
        the directory's owner check) with a shadow-page commit — two
        synchronous random writes."""
        block = self._block_of.get(obj)
        if block is None:
            if not self._free_blocks:
                raise StorageError("object table is full")
            block = self._free_blocks.pop(0)
            self._block_of[obj] = block
        encoded = self._encode_entry(obj, cap, seqno, check)
        yield from self.partition.write_block(SHADOW_BLOCK, encoded, lineage=lineage)
        yield from self.partition.write_block(block, encoded, lineage=lineage)
        self.entries[obj] = (cap, seqno)
        self.entry_checks[obj] = check

    # -- session records ---------------------------------------------------

    def _session_block_for(self, client_id: str) -> int:
        """The block holding *client_id*'s record, allocating (or
        reclaiming the least-recently-active client's block) on
        first touch."""
        block = self._session_block_map.get(client_id)
        if block is not None:
            return block
        if self._free_session_blocks:
            block = self._free_session_blocks.pop(0)
        else:
            victim = min(
                self._session_block_map,
                key=lambda cid: (self.session_entries[cid].last_active, cid),
            )
            block = self._session_block_map.pop(victim)
            del self.session_entries[victim]
        self._session_block_map[client_id] = block
        return block

    def store_session(self, client_id: str, entry: SessionEntry, lineage=None):
        """Persist one client's session record — a single synchronous
        block write (single-block writes are atomic, so no shadow
        page is needed: the record is replaced whole or not at all)."""
        block = self._session_block_for(client_id)
        yield from self.partition.write_block(
            block, encode_session_record(client_id, entry), lineage=lineage
        )
        self.session_entries[client_id] = entry

    def commit_batch(
        self,
        stores,
        removals=(),
        commit_seqno: int | None = None,
        commit_next_object: int | None = None,
        session_stores=(),
        lineage=None,
    ):
        """Group-commit several object-table updates in ONE disk flush.

        *stores* is a list of ``(obj, cap, seqno, check)`` tuples (the
        batch's final image of each touched directory), *removals* a
        list of deleted object numbers. The shadow block gets the
        packed images of every stored entry (the batch journal), then
        every home block, every removal's blanked block, and — when the
        batch contained deletions — the commit block, all in a single
        multi-block write priced as one seek plus a sequential
        transfer (:meth:`~repro.storage.disk.Disk.write_blocks`).

        Atomicity matches the classic shadow-page commit: the disk
        exposes all blocks of the batch together, and a crash before
        the flush completes loses the batch — which is safe, because
        every record in it is still r-safe in the group and is
        replayed by recovery. A pass the power cuts persists a prefix
        of the blocks in the order they are listed here — journal,
        entries, removals, commit block, session records: the classic
        commit's own order, so no prefix claims what it does not hold
        (see docs/PROTOCOL.md, "Group commit").
        """
        writes: list[tuple[int, bytes]] = []
        journal = b""
        for obj, cap, seqno, check in stores:
            block = self._block_of.get(obj)
            if block is None:
                if not self._free_blocks:
                    raise StorageError("object table is full")
                block = self._free_blocks.pop(0)
                self._block_of[obj] = block
            encoded = self._encode_entry(obj, cap, seqno, check)
            journal += encoded
            writes.append((block, encoded))
        # The packed journal replaces the per-entry shadow write; a
        # batch bigger than one block's worth of images simply spills
        # into the same shadow block sequentially (one arm pass).
        writes = [
            (SHADOW_BLOCK, journal[offset:offset + 1024])
            for offset in range(0, len(journal), 1024)
        ] + writes
        touched_commit = False
        for obj in removals:
            block = self._block_of.pop(obj, None)
            if block is not None:
                writes.append((block, b""))
                self._free_blocks.append(block)
            self.entries.pop(obj, None)
            self.entry_checks.pop(obj, None)
            touched_commit = True
        if touched_commit:
            if commit_seqno is not None:
                self.commit.seqno = commit_seqno
            if commit_next_object is not None:
                self.commit.next_object = max(
                    self.commit.next_object, commit_next_object
                )
            writes.append((COMMIT_BLOCK, self.commit.to_bytes()))
        # Session records (one block per client, overwritten in place)
        # join the same single flush; *session_stores* is a list of
        # ``(client_id, SessionEntry)`` pairs.
        for client_id, entry in session_stores:
            writes.append(
                (
                    self._session_block_for(client_id),
                    encode_session_record(client_id, entry),
                )
            )
        yield from self.partition.write_blocks(writes, lineage=lineage)
        self.commit_on_disk |= touched_commit
        for obj, cap, seqno, check in stores:
            self.entries[obj] = (cap, seqno)
            self.entry_checks[obj] = check
        for client_id, entry in session_stores:
            self.session_entries[client_id] = entry

    def remove_entry(self, obj: int, commit_seqno: int, next_object: int = 0, lineage=None):
        """Drop a directory's entry and record the deletion in the
        commit block's sequence number (the paper's rationale for
        keeping a seqno there at all). The allocation high-water mark
        rides along so deleted object numbers are never reused."""
        block = self._block_of.pop(obj, None)
        if block is not None:
            yield from self.partition.write_block(block, b"", lineage=lineage)
            self._free_blocks.append(block)
        self.entries.pop(obj, None)
        self.entry_checks.pop(obj, None)
        yield from self.write_commit_block(
            seqno=commit_seqno, next_object=next_object, lineage=lineage
        )

    def highest_seqno(self, ignore_recovering: bool = False) -> int:
        """Max over entry seqnos and the commit-block seqno — the
        value recovery compares across servers.

        Zero when the *recovering* flag is set: the server crashed in
        the middle of a state transfer, so its disk mixes old and new
        directories (the paper's rule). The flag matters at boot time;
        a server that sets it during its own, still-running transfer
        passes ``ignore_recovering=True`` where it knows its in-RAM
        state is coherent.

        Also zero while anything is quarantined: a disk that lost
        entries to detected corruption cannot certify completeness, so
        it must never win the donor election (same reasoning as the
        recovering flag, and the same ``ignore_recovering`` escape
        applies once the transfer has repaired RAM).
        """
        if (self.commit.recovering or self.quarantined_blocks) \
                and not ignore_recovering:
            return 0
        entry_max = max((s for _, s in self.entries.values()), default=0)
        return max(entry_max, self.commit.seqno)

    # -- integrity ----------------------------------------------------------

    def quarantine_object(self, obj: int) -> None:
        """Quarantine one directory whose *Bullet file* was detected
        corrupt at rebuild time: drop it from the table mirror so the
        donor transfer rewrites it, and poison :meth:`highest_seqno`
        like any other quarantined block."""
        block = self._block_of.pop(obj, None)
        if block is not None:
            self._free_blocks.append(block)
            self.quarantined_blocks.append(block)
        else:
            self.quarantined_blocks.append(-obj)
        self.entries.pop(obj, None)
        self.entry_checks.pop(obj, None)

    def clear_quarantine(self) -> None:
        """Recovery repaired every quarantined object (final seal)."""
        self.quarantined_blocks = []

    def verify_block(self, index: int, expected: bytes) -> bool:
        """Zero-time audit: does partition block *index* hold exactly
        *expected*? A failed integrity check counts as a mismatch —
        this is the scrubber's detection primitive."""
        try:
            return self.partition.peek_block(index) == expected
        except CorruptBlock:
            return False

    def expected_blocks(self) -> dict[int, bytes]:
        """What every mapped partition block should hold right now,
        straight from the RAM mirrors (the scrubber's audit source).

        Mirrors are updated only after their flush completes and with
        no intervening yield, so at any scheduling point the mapped
        disk blocks must equal this — any difference is bit rot, a
        lost/misdirected write, or a torn batch tail. Blocks mid-
        allocation (``_block_of`` set, mirror not yet) are omitted;
        the next pass audits them. The shadow block is transient
        journal space and is never mapped, and the commit block is
        mapped once this disk has held one."""
        expected = {}
        if self.commit_on_disk:
            expected[COMMIT_BLOCK] = self.commit.to_bytes()
        for obj, block in self._block_of.items():
            entry = self.entries.get(obj)
            if entry is None:
                continue  # flush in flight
            cap, seqno = entry
            expected[block] = self._encode_entry(
                obj, cap, seqno, self.entry_checks.get(obj, 0)
            )
        for client_id, block in self._session_block_map.items():
            entry = self.session_entries.get(client_id)
            if entry is not None:
                expected[block] = encode_session_record(client_id, entry)
        return expected

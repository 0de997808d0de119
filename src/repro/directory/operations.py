"""Wire-level directory operations (the paper's Fig. 2).

Eight operations: three on whole directories, three on single rows,
and two on *sets* of rows (which may span directories — one indivisible
operation each, exactly the granularity the paper supports; multi-
operation transactions are explicitly out of scope).

Each operation dataclass knows whether it reads or writes, which the
servers use to route it down the read path (local, no communication)
or the write path (SendToGroup / intentions RPC).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from repro.amoeba.capability import Capability, new_check
from repro.directory.model import DEFAULT_COLUMNS


@dataclass(frozen=True)
class DirectoryOp:
    """Base class for all requests."""

    #: Whether the operation reads (a class constant of each op).
    is_read: ClassVar[bool]

    def wire_size(self) -> int:
        """Approximate request size in bytes (for network accounting)."""
        return 96


@dataclass(frozen=True)
class CreateDir(DirectoryOp):
    """Create a new directory; returns its owner capability.

    *check* and *object hints* are filled in by the initiating server:
    all replicas must use the same check field for the new directory,
    so the initiator generates it and ships it with the broadcast
    (section 3.1 of the paper).
    """

    columns: tuple = DEFAULT_COLUMNS
    check: int | None = None  # injected by the initiating server
    #: Used by the RPC implementation only: the two servers allocate
    #: object numbers from disjoint parity classes, and the initiator
    #: ships its choice so the lazy replica creates the same object.
    #: The group implementation leaves this None (the total order
    #: makes counter-based allocation deterministic).
    object_number: int | None = None

    is_read = False


@dataclass(frozen=True)
class DeleteDir(DirectoryOp):
    """Delete an (empty) directory. Requires DESTROY rights."""

    cap: Capability
    force: bool = False  # allow deleting a non-empty directory

    is_read = False


@dataclass(frozen=True)
class ListDir(DirectoryOp):
    """List the rows visible through the capability's column mask."""

    cap: Capability

    is_read = True


@dataclass(frozen=True)
class AppendRow(DirectoryOp):
    """Add a (name, capability-set) row. Requires MODIFY rights."""

    cap: Capability
    name: str
    capabilities: tuple

    is_read = False

    def wire_size(self) -> int:
        return 96 + len(self.name) + 16 * len(self.capabilities)


@dataclass(frozen=True)
class ChmodRow(DirectoryOp):
    """Change protection: replace the masked columns of a row."""

    cap: Capability
    name: str
    column_mask: int
    capabilities: tuple

    is_read = False

    def wire_size(self) -> int:
        return 96 + len(self.name) + 16 * len(self.capabilities)


@dataclass(frozen=True)
class DeleteRow(DirectoryOp):
    """Remove a row. Requires MODIFY rights."""

    cap: Capability
    name: str

    is_read = False

    def wire_size(self) -> int:
        return 96 + len(self.name)


@dataclass(frozen=True)
class LookupSet(DirectoryOp):
    """Look up capabilities for a set of (directory, name) pairs.

    Returns a list aligned with *items*: the first visible capability
    of each row, or None for names that do not exist.
    """

    items: tuple  # of (Capability, str)

    is_read = True

    def wire_size(self) -> int:
        return 64 + sum(24 + len(name) for _, name in self.items)


@dataclass(frozen=True)
class CoherentLookup(LookupSet):
    """A :class:`LookupSet` whose reply carries coherence metadata.

    Cache-enabled clients send these instead of plain ``LookupSet``.
    The server answers with an envelope ``{"results": [...], "epoch":
    update_seqno, "lease_ms": ...}`` — the results are computed by the
    exact same state-machine query (``DirectoryState.query`` dispatches
    on ``isinstance(op, LookupSet)``), but the reply additionally
    piggybacks the replica's applied update seqno (the cache epoch) and
    grants the client a read lease: until the lease expires the server
    promises to push an invalidation record for every write that could
    affect a cached entry, and writes do not complete until those
    invalidations are acknowledged (docs/PROTOCOL.md).
    """

    def wire_size(self) -> int:
        # A plain LookupSet plus the lease/epoch framing.
        return super().wire_size() + 16


@dataclass(frozen=True)
class ReplaceSet(DirectoryOp):
    """Replace capabilities in a set of rows, indivisibly.

    *items* are (directory capability, row name, new capabilities)
    triples; either every replacement happens or none does.
    """

    items: tuple  # of (Capability, str, tuple[Capability | None, ...])

    is_read = False

    def wire_size(self) -> int:
        return 64 + sum(
            24 + len(name) + 16 * len(caps) for _, name, caps in self.items
        )


@dataclass(frozen=True)
class SessionOp(DirectoryOp):
    """A mutating operation stamped with the client's session identity.

    Clients in ``retry_safe`` mode wrap every write in one of these;
    the replicated state machine keeps a per-client table of the last
    executed *session_seqno* and its reply, so a retried duplicate is
    answered from the cache instead of re-executed (exactly-once
    semantics across server failover).
    """

    op: DirectoryOp
    client_id: str
    session_seqno: int

    @property
    def is_read(self) -> bool:
        return self.op.is_read

    def wire_size(self) -> int:
        # client id + 64-bit seqno + framing.
        return self.op.wire_size() + 24


def mint_check(op: DirectoryOp, rng, stream: str, allocate=None) -> DirectoryOp:
    """*op*, or a copy whose CreateDir (bare or in a session envelope)
    carries a fresh check field where it had none. The initiating
    server draws it from its RNG *stream* (``sim.rng``) and ships it, so
    every replica creates the new directory identically (section 3.1);
    *allocate*, when given, also picks its object number (the RPC
    pair's disjoint numbering)."""
    if isinstance(op, SessionOp):
        inner = mint_check(op.op, rng, stream, allocate)
        return op if inner is op.op else replace(op, op=inner)
    if not isinstance(op, CreateDir) or op.check is not None:
        return op
    check = new_check(rng.stream(stream))
    if allocate is None:
        return replace(op, check=check)
    return replace(op, check=check, object_number=allocate())


def unwrap(op: DirectoryOp) -> DirectoryOp:
    """The operation inside a session envelope (or *op* itself)."""
    return op.op if isinstance(op, SessionOp) else op


def invalidation_keys(op: DirectoryOp) -> tuple:
    """The ``(object_number, name-or-None)`` cache keys *op* dirties.

    This is the invalidation record a replica pushes to its leased
    clients when it applies *op* (docs/PROTOCOL.md "Client cache
    coherence"). ``(obj, name)`` invalidates that one row's cached
    lookups (under every rights mask); ``(obj, None)`` invalidates
    every cached row of the directory (used for DeleteDir, after which
    any lookup through the dead capability must go remote to observe
    the NotFound). Reads and CreateDir (a brand-new object nothing can
    have cached) dirty nothing.
    """
    op = unwrap(op)
    if isinstance(op, (AppendRow, ChmodRow, DeleteRow)):
        return ((op.cap.object_number, op.name),)
    if isinstance(op, ReplaceSet):
        return tuple((cap.object_number, name) for cap, name, _ in op.items)
    if isinstance(op, DeleteDir):
        return ((op.cap.object_number, None),)
    return ()


#: Operation name -> class, for logs and workload configuration.
OPERATIONS = {
    "create_dir": CreateDir,
    "delete_dir": DeleteDir,
    "list_dir": ListDir,
    "append_row": AppendRow,
    "chmod_row": ChmodRow,
    "delete_row": DeleteRow,
    "lookup_set": LookupSet,
    "replace_set": ReplaceSet,
}
# CoherentLookup is deliberately absent: OPERATIONS mirrors the
# paper's Fig. 2 request set, and a coherent lookup is the same
# logical operation as lookup_set — the envelope is client-cache
# protocol, not API surface.

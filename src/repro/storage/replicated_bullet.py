"""A fault-tolerant Bullet file service (the paper's closing vision).

Section 5 ends: "A reimplementation of Amoeba's Bullet file service
using group communication as well as NVRAM is certainly feasible."
It is, and it needs no server of its own. The directory server
(:mod:`repro.directory.group_server`) is a replicated-state-machine
skeleton — total order, majority rule, requests held across a reset,
Fig. 6 recovery, group commit, the durable store and the NVRAM log in
front of it — that knows an object only by its image
(``to_bytes``/``from_bytes``/``serialized_size``). This module is the
file service as a *state* on that skeleton (docs/PROTOCOL.md §6):

* a file is an object whose image is its bytes (:class:`File`);
* a **create** is a ``CreateDir`` that carries the data: the
  initiating replica mints the check field, so all replicas mint the
  same capability, and every replica commits the bytes to its own
  site's Bullet server (or logs them on its NVRAM board) before the
  client hears back — no unreplicated window, unlike the lazy
  directory-RPC design;
* a **delete** is a forced ``DeleteDir``; with NVRAM a delete that
  catches its create still on the board annihilates it (a temporary
  file never touches a disk — the /tmp optimization again);
* **read** and **size** are answered by any replica from its own
  state, after the Fig. 5 drain.

The client API is :class:`repro.storage.bullet.BulletClient`'s four
methods, so applications cannot tell the difference — except when a
server dies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.amoeba.capability import Capability, Rights
from repro.directory.client import DirectoryClient
from repro.directory.operations import (
    CreateDir,
    DeleteDir,
    DirectoryOp,
    SessionOp,
)
from repro.directory.state import DirectoryState
from repro.errors import DirectoryError, NoSuchFile, NotFound


class File:
    """An immutable file: the object whose image is its bytes."""

    def __init__(self, data: bytes = b""):
        self.data = bytes(data)

    def to_bytes(self) -> bytes:
        return self.data

    @classmethod
    def from_bytes(cls, raw: bytes) -> "File":
        return cls(raw)

    def serialized_size(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class CreateFile(CreateDir):
    """Store an immutable file; returns its owner capability."""

    data: bytes = b""

    def wire_size(self) -> int:
        return 64 + len(self.data)


@dataclass(frozen=True)
class ReadFile(DirectoryOp):
    """Fetch a whole file. Requires READ rights."""

    cap: Capability

    is_read = True


class FileSize(ReadFile):
    """File length in bytes. Requires READ rights."""


class FileState(DirectoryState):
    """All files of one service replica (object 1, the root every
    state starts with, is an empty file nobody is handed)."""

    OBJECT = File

    def query(self, op: DirectoryOp):
        if not isinstance(op, ReadFile):
            raise DirectoryError(f"{type(op).__name__} is not a file read")
        data = self.directories[self._resolve(op.cap, Rights.READ)].data
        return len(data) if isinstance(op, FileSize) else data

    def apply(self, op: DirectoryOp):
        # Row operations would find no rows to work on: refuse them
        # here, deterministically, as every invalid write is refused.
        if not isinstance(op, (SessionOp, CreateFile, DeleteDir)):
            raise DirectoryError(f"{type(op).__name__} is not a file write")
        return super().apply(op)

    def _new_object(self, op: CreateFile) -> File:
        return File(op.data)


class ReplicatedBulletClient(DirectoryClient):
    """``BulletClient``'s four methods on the replicated service."""

    def _file_request(self, op: DirectoryOp):
        try:
            result = yield from self.request(op)
        except NotFound:
            raise NoSuchFile(f"no file {op.cap.object_number}") from None
        return result

    def create(self, data: bytes):
        """Store an immutable file; returns its owner capability."""
        cap = yield from self.request(CreateFile(data=bytes(data)))
        return cap

    def read(self, cap: Capability):
        """Fetch a whole file by capability."""
        data = yield from self._file_request(ReadFile(cap))
        return data

    def size(self, cap: Capability):
        """File length in bytes."""
        result = yield from self._file_request(FileSize(cap))
        return result

    def delete(self, cap: Capability):
        """Remove a file (requires DESTROY rights)."""
        result = yield from self._file_request(DeleteDir(cap, force=True))
        return result

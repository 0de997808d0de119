"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still distinguishing the interesting cases (timeouts, group
failures, directory-service refusals).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly (e.g. double resolve)."""


class Interrupted(ReproError):
    """A process was interrupted while waiting on a future."""


class TimeoutError(ReproError):
    """An operation did not complete within its deadline.

    Named after the builtin but scoped to the library so simulated
    timeouts are never confused with real ones.
    """


class NetworkError(ReproError):
    """A packet could not be sent (NIC down, no such address, ...)."""


class RpcError(ReproError):
    """An RPC transaction failed."""


class LocateError(RpcError):
    """No server answering to the requested port could be located."""


class HostUnreachable(RpcError):
    """The destination machine refused the connection (its NIC is
    down: crashed or shut off). Unlike a timeout, this is an active
    signal — clients evict the server from the port cache at once
    instead of burning a full reply timeout."""


class GroupError(ReproError):
    """Base class for group-communication failures."""


class GroupFailure(GroupError):
    """A member failure was detected; the group must be reset.

    Mirrors Amoeba's ``ReceiveFromGroup`` returning unsuccessfully: the
    caller is expected to run ``ResetGroup`` (or recovery) next.
    """

    def __init__(self, message: str = "group member failure detected"):
        super().__init__(message)


class GroupResetFailed(GroupError):
    """ResetGroup could not rebuild a group with the required quorum."""


class StorageError(ReproError):
    """A disk or file-server operation failed."""


class DiskFailure(StorageError):
    """The underlying (simulated) disk has failed and lost its data."""


class CorruptBlock(StorageError):
    """A stored block, extent, or NVRAM record failed its integrity check.

    Only raised when the owning device runs with ``integrity`` enabled:
    every persisted payload is wrapped in a self-identifying checksummed
    envelope (see :mod:`repro.storage.integrity`), so bit rot, torn or
    misdirected writes surface loudly here instead of being decoded as
    garbage. Replicas treat this like any other storage fault: quarantine
    the damaged object and re-fetch authoritative state from a peer.
    """


class NoSuchFile(StorageError):
    """A Bullet file capability does not name a stored file."""


class NvramFull(StorageError):
    """The NVRAM log has no room for another record."""


class CapabilityError(ReproError):
    """A capability failed validation (bad check field or rights)."""


class DirectoryError(ReproError):
    """Base class for directory-service request failures."""


class NoMajority(DirectoryError):
    """The service does not currently have a majority of servers up.

    Both read and write requests are refused in this state (see the
    partitioned-network argument in section 3.1 of the paper).
    """


class NotFound(DirectoryError):
    """The named directory or row does not exist."""


class AlreadyExists(DirectoryError):
    """A row with the given name already exists in the directory."""


class NotEmpty(DirectoryError):
    """The directory cannot be deleted because it still has rows."""


class ServiceDown(DirectoryError):
    """No server of the directory service could be reached at all."""

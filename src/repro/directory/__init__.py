"""The fault-tolerant directory service (the paper's contribution).

Four interchangeable implementations of the same client-visible
service (the operations of the paper's Fig. 2):

* :class:`~repro.directory.group_server.GroupDirectoryServer` — the
  paper's contribution: triplicated, active replication over
  totally-ordered group communication, majority rule, partition
  tolerance, Skeen-based recovery;
* :class:`~repro.directory.rpc_server.RpcDirectoryServer` — the
  previous Amoeba implementation: duplicated, intentions lists over
  RPC, lazy replication, no partition tolerance;
* the same ``GroupDirectoryServer`` built with an NVRAM board: its
  store is then a :class:`~repro.directory.store.NvramLog` — the 24 KB
  write log replacing disk writes in the critical path;
* :class:`~repro.directory.nfs_server.NfsDirectoryServer` — a
  single-copy SunOS/NFS-like baseline with no fault tolerance.

The group and RPC servers make directories durable through one
:class:`~repro.directory.store.DirectoryStore` each.

Clients use :class:`~repro.directory.client.DirectoryClient` against
any of them. Whole deployments (servers + Bullet servers + disks +
clients) are assembled by :mod:`repro.cluster`.
"""

from repro.directory.client import DirectoryClient
from repro.directory.model import Directory, DirRow
from repro.directory.operations import (
    AppendRow,
    ChmodRow,
    CreateDir,
    DeleteDir,
    DeleteRow,
    ListDir,
    LookupSet,
    ReplaceSet,
)
from repro.directory.state import DirectoryState

__all__ = [
    "AppendRow",
    "ChmodRow",
    "CreateDir",
    "DeleteDir",
    "DeleteRow",
    "DirRow",
    "Directory",
    "DirectoryClient",
    "DirectoryState",
    "ListDir",
    "LookupSet",
    "ReplaceSet",
]

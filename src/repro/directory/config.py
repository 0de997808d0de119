"""Deployment-wide configuration of a directory service."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.amoeba.capability import Port
from repro.group.timings import GroupTimings


@dataclass(frozen=True)
class ServiceConfig:
    """Static facts every server of one directory service shares."""

    #: Deployment name; determines the public port.
    name: str
    #: Machine addresses of the directory servers, by server index.
    server_addresses: tuple
    #: Root-directory owner check (shared so every replica mints the
    #: same root capability without communication).
    root_check: int = 0x00C0FFEE
    #: Resilience degree for SendToGroup (the paper uses r = 2).
    resilience: int = 2
    #: Listening threads per server (bounds concurrent requests; when
    #: all are busy the kernel answers NOTHERE and clients fail over).
    #: One thread reproduces the paper's measured contention behaviour
    #: (Fig. 8's below-ideal saturation); see bench E6b for the effect
    #: of more threads.
    server_threads: int = 1
    group_timings: GroupTimings = field(default_factory=GroupTimings)
    #: Group-commit batching: after a blocking ReceiveFromGroup, the
    #: group thread drains up to this many deliverable records in one
    #: batch and coalesces their object-table/commit-block updates into
    #: a single disk flush (Fig. 9's rising-throughput lever). 1
    #: disables batching and is bit-for-bit the classic one-record
    #: apply/persist loop.
    batch_max: int = 16
    #: Use the paper's §3.2 improved recovery rule (a server that never
    #: crashed may pair with a restarted stale server).
    improved_recovery_rule: bool = True
    #: When False, duplicate session operations re-execute — only the
    #: chaos suite's non-vacuity runs ever turn this off.
    dedup_enabled: bool = True
    #: Client cache coherence (docs/PROTOCOL.md "Client cache
    #: coherence"). Off by default: servers answer plain ``LookupSet``
    #: exactly as before and the wire behaviour is byte-identical to a
    #: deployment without this feature. When on, servers grant read
    #: leases on ``CoherentLookup`` replies, push invalidation records
    #: to leased clients as writes apply, and hold each write's reply
    #: until every replica's leased clients have acknowledged the
    #: invalidations for it (the write barrier that makes cached reads
    #: linearizable).
    cache_coherence: bool = False
    #: How long a client may serve lookups from its cache after the
    #: last coherent reply it received (simulated ms). Bounds how long
    #: a write can stall on a crashed/vanished client or replica.
    cache_lease_ms: float = 2_000.0
    #: Storage integrity (docs/PROTOCOL.md "Storage integrity"). Off by
    #: default: blocks are stored raw and the on-disk layout stays
    #: byte-identical to the paper-era code for the Fig. 7/9
    #: experiments. When on, every persisted block/record is wrapped in
    #: a self-identifying checksummed envelope, reads of damaged data
    #: fail loudly as ``CorruptBlock``, corrupt replicas quarantine the
    #: affected objects and re-fetch them from an operational peer, and
    #: each server runs a background scrubber that audits its admin
    #: partition and Bullet extents against the live RAM state
    #: (every ``repro.directory.store.SCRUB_INTERVAL_MS``).
    integrity: bool = False

    @property
    def port(self) -> Port:
        """The public service port clients locate."""
        return Port.for_service(f"dir.{self.name}")

    @property
    def n_servers(self) -> int:
        return len(self.server_addresses)

    @property
    def majority(self) -> int:
        return self.n_servers // 2 + 1

    def recovery_port(self, address) -> Port:
        """The private port on which the server at *address* answers
        its peers' recovery exchanges."""
        return Port.for_service(f"dir.{self.name}.recovery.addr.{address}")

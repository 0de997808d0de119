"""Calibrated latency model for the 1993 Amoeba testbed.

All constants are simulated milliseconds calibrated so that the
protocol-level cost structure of the paper's testbed (Sun3/60s,
10 Mbit/s Ethernet, Wren IV SCSI disks) reproduces the measured
numbers in Fig. 7–9. The calibration rationale — including where the
paper's own "rough" cost arithmetic does not reconcile with its
measurements and what we chose — is documented in EXPERIMENTS.md.

Key calibration targets:

* Amoeba null-RPC across the wire ≈ 2 ms (3 packets);
* ``SendToGroup`` with r = 2 in a 3-member group = 5 packets ≈ 3.5 ms;
* a directory lookup = 5 ms (2 ms RPC + ~3 ms server processing,
  giving the paper's 333 lookups/s/server estimate);
* a synchronous raw-partition block write ≈ 33 ms (seek + rotation);
* a Bullet create of a directory's contents ≈ 45 ms;
* the RPC service's intentions write overlaps the initiator's work
  (write-behind at the peer), matching the measured 8 ms/pair gap
  between the RPC and group services.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NetworkLatency:
    """Per-packet costs on the simulated 10 Mbit/s Ethernet."""

    #: Fixed per-packet cost: driver + protocol processing at both ends.
    packet_overhead_ms: float = 0.55
    #: Wire time per byte at 10 Mbit/s (8 bits / 10e6 bps = 0.8 us/byte).
    per_byte_ms: float = 0.0008
    #: Uniform jitter bound added per packet (keeps races realistic).
    jitter_ms: float = 0.05

    def transmit_time(self, size_bytes: int) -> float:
        """Deterministic part of one packet's latency."""
        return self.packet_overhead_ms + size_bytes * self.per_byte_ms


@dataclass
class DiskLatency:
    """Seek/rotation/transfer model for a Wren IV-class SCSI disk.

    Three access classes, matching how the paper's storage servers use
    the disk:

    * **random** — full seek + rotational delay + transfer; the
      directory servers' synchronous raw-partition writes are these;
    * **sequential** — rotational delay + transfer only; the Bullet
      server allocates immutable files contiguously, so its data and
      inode writes avoid the seek;
    * **cached** — absorbed by the controller's track buffer
      (write-behind); used for non-critical writes such as free-list
      updates and the RPC service's lazily flushed intentions.
    """

    #: Average seek time for a random access.
    seek_ms: float = 24.0
    #: Average rotational delay (half a revolution at 3600 rpm).
    rotation_ms: float = 8.3
    #: Transfer time per 1 KB block at ~1.2 MB/s sustained.
    per_kb_ms: float = 0.8
    #: Latency of a write absorbed by the controller's track buffer.
    cached_write_ms: float = 2.0

    def random_ms(self, size_bytes: int) -> float:
        """One random-access operation of *size_bytes*."""
        return self.seek_ms + self.rotation_ms + (size_bytes / 1024.0) * self.per_kb_ms

    def sequential_ms(self, size_bytes: int) -> float:
        """One contiguous-allocation operation (no seek)."""
        return self.rotation_ms + (size_bytes / 1024.0) * self.per_kb_ms

    def cached_ms(self, size_bytes: int) -> float:
        """One controller-cached (write-behind) operation."""
        return self.cached_write_ms + (size_bytes / 1024.0) * 0.1

    def batch_ms(self, size_bytes: int) -> float:
        """One multi-block group-commit write: a single seek and
        rotational delay, then the whole batch streams sequentially.
        This is the amortization the group-commit pipeline buys — n
        blocks cost one arm movement instead of n."""
        return self.seek_ms + self.rotation_ms + (size_bytes / 1024.0) * self.per_kb_ms


@dataclass
class CpuLatency:
    """Per-operation CPU costs on a Sun3/60-class server."""

    #: Server-side processing of a read (lookup/list) request. The
    #: paper estimates ~3 ms, yielding 333 lookups/s per server.
    read_processing_ms: float = 2.85
    #: Server-side processing of a write, excluding storage operations
    #: (cache + object-table updates, marshalling).
    write_processing_ms: float = 7.0
    #: Client-side request marshalling / kernel entry per RPC.
    client_overhead_ms: float = 0.35
    #: SunOS/NFS server-side processing of a directory update (the
    #: NFS baseline bundles its own storage behaviour).
    nfs_update_ms: float = 41.5
    #: SunOS/NFS lookup processing (slightly slower than Amoeba's).
    nfs_read_processing_ms: float = 3.6
    #: SunOS/NFS small-file create (the /usr/tmp file of the tmp-file
    #: experiment) and read-back of a cached file.
    nfs_file_create_ms: float = 19.0
    nfs_file_read_ms: float = 2.0


@dataclass
class LatencyModel:
    """Bundle of all calibrated latency constants.

    One instance is shared by a whole simulated deployment; tests and
    ablation benches construct variants (e.g. zero-latency networks or
    slower disks) by replacing fields.
    """

    network: NetworkLatency = field(default_factory=NetworkLatency)
    disk: DiskLatency = field(default_factory=DiskLatency)
    cpu: CpuLatency = field(default_factory=CpuLatency)

    @classmethod
    def paper_testbed(cls) -> "LatencyModel":
        """The default calibration (Sun3/60 + Ethernet + Wren IV)."""
        return cls()

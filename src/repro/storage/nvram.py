"""The 24 KB NVRAM board.

The paper's fastest directory-service variant logs directory
modifications to NonVolatile RAM instead of writing them to disk in
the critical path; a background thread applies the log to disk when
the server is idle or the board fills up. NVRAM is a *reliable*
medium: like the disk, the board belongs to the machine, not the
server process, so its contents survive server crashes.

The log also enables the /tmp optimization the paper highlights: if an
append record for a name is still in the log when the matching delete
arrives, both records annihilate without any disk I/O ever happening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import NvramFull
from repro.sim.scheduler import Simulator

#: Size of the board in the paper's implementation.
PAPER_NVRAM_BYTES = 24 * 1024

#: Log-record header overhead (sequence number, op code, lengths).
RECORD_OVERHEAD = 32
#: Sim-time the board takes to absorb one record write.
WRITE_MS = 3.0


@dataclass
class NvramRecord:
    """One logged modification."""

    key: Any  # e.g. (directory object number, row name)
    op: str  # "append", "delete", ...
    payload: Any
    size: int
    seqno: int = 0
    #: Set by a battery blip (:meth:`Nvram.blip`): the record's checksum
    #: no longer verifies. Boards running with integrity detect this at
    #: replay; legacy boards replay the damaged record as-is.
    corrupt: bool = False


class Nvram:
    """A bounded, battery-backed log of modification records."""

    def __init__(self, sim: Simulator, capacity_bytes: int = PAPER_NVRAM_BYTES,
                 name: str = "nvram", integrity: bool = False):
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.name = name
        #: Records carry per-record checksums and replay skips (and
        #: counts) damaged ones; off by default for paper fidelity.
        self.integrity = integrity
        self._records: list[NvramRecord] = []
        self._used = 0
        self._next_seqno = 1
        self._obs = sim.obs
        registry = sim.obs.registry
        self._c_appends = registry.counter(name, "nvram.appends")
        self._c_annihilations = registry.counter(name, "nvram.annihilations")
        self._c_flushes = registry.counter(name, "nvram.flushes")
        self._c_flushed_records = registry.counter(name, "nvram.flushed_records")
        self._c_corrupt_records = registry.counter(name, "nvram.corrupt_records")
        self._c_corrupt_replayed = registry.counter(name, "nvram.corrupt_replayed")
        #: Sim-time the board spent absorbing writes (WRITE_MS per
        #: append, whether the caller charged it as board time or as
        #: CPU-held programmed I/O) — the capacity attributor's rho.
        self._c_busy = registry.counter(name, "nvram.busy_ms")
        self._g_used = registry.gauge(name, "nvram.used_bytes")

    # -- capacity ----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied by log records."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Remaining capacity."""
        return self.capacity_bytes - self._used

    def __len__(self) -> int:
        return len(self._records)

    def record_size(self, record: NvramRecord) -> int:
        return record.size + RECORD_OVERHEAD

    # -- logging -------------------------------------------------------------

    def append(self, record: NvramRecord, charge_time: bool = True, lineage=None):
        """Log one record (``yield from``); raises NvramFull when the
        board cannot hold it — the caller must flush first.

        Pass ``charge_time=False`` when the caller accounts for the
        write time itself (e.g. as CPU-held programmed I/O). *lineage*
        stamps the trace event with the originating group message id.
        """
        needed = self.record_size(record)
        if needed > self.free_bytes:
            raise NvramFull(
                f"{self.name}: record of {needed} B does not fit "
                f"({self.free_bytes} B free)"
            )
        if charge_time:
            yield self.sim.sleep(WRITE_MS)
        record.seqno = self._next_seqno
        self._next_seqno += 1
        self._records.append(record)
        self._used += needed
        self._c_appends.value += 1
        self._c_busy.value += WRITE_MS
        self._g_used.set(self._used)
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                self.name, "nvram", "nvram.append",
                lineage=lineage if lineage is not None else ("nvram", self.name),
                op=record.op, bytes=needed, used=self._used,
            )

    def would_fit(self, payload_size: int) -> bool:
        """Whether a record with *payload_size* bytes of payload fits."""
        return payload_size + RECORD_OVERHEAD <= self.free_bytes

    # -- annihilation -----------------------------------------------------------

    def annihilate(self, predicate: Callable[[NvramRecord], bool]) -> list[NvramRecord]:
        """Remove every logged record matching *predicate*.

        Returns the removed records. This is the /tmp optimization:
        a delete cancelling a still-logged append means neither ever
        costs a disk operation.
        """
        removed = [r for r in self._records if predicate(r)]
        if removed:
            self._records = [r for r in self._records if not predicate(r)]
            self._used -= sum(self.record_size(r) for r in removed)
            self._c_annihilations.value += len(removed)
            self._g_used.set(self._used)
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    self.name, "nvram", "nvram.annihilate",
                    lineage=("nvram", self.name),
                    records=len(removed), used=self._used,
                )
        return removed

    def pending_for_key(self, key: Any) -> list[NvramRecord]:
        """Records still logged for *key*, oldest first."""
        return [r for r in self._records if r.key == key]

    # -- flushing ----------------------------------------------------------------

    def remove_flushed(self, predicate: Callable[[NvramRecord], bool]) -> list[NvramRecord]:
        """Remove records whose effects reached the disk (counted as
        flushes, not annihilations)."""
        removed = [r for r in self._records if predicate(r)]
        if removed:
            self._records = [r for r in self._records if not predicate(r)]
            self._used -= sum(self.record_size(r) for r in removed)
            self._c_flushes.inc()
            self._c_flushed_records.inc(len(removed))
            self._g_used.set(self._used)
        return removed

    def snapshot(self) -> list[NvramRecord]:
        """Non-destructive copy of the log (crash recovery replays it)."""
        return list(self._records)

    # -- integrity ----------------------------------------------------------

    def blip(self, records: int = 1) -> int:
        """Battery blip: corrupt the newest *records* intact records.

        The record objects stay in the log (a blip does not change the
        board's occupancy accounting) but their checksums no longer
        verify. Returns how many records were actually hit.
        """
        hit = 0
        for record in reversed(self._records):
            if hit >= records:
                break
            if not record.corrupt:
                record.corrupt = True
                hit += 1
        return hit

    def validate(self, record: NvramRecord) -> bool:
        """Replay-time integrity check for one logged record.

        Returns whether the caller should apply the record. A corrupt
        record on an integrity-checked board is detected (counted as
        ``nvram.corrupt_records``) and must be skipped; on a legacy
        board the damage is invisible, so the record is replayed as-is
        and counted as ``nvram.corrupt_replayed`` — the durability
        invariant's "corrupt byte served" evidence.
        """
        if not record.corrupt:
            return True
        if self.integrity:
            self._c_corrupt_records.inc()
            return False
        self._c_corrupt_replayed.inc()
        return True

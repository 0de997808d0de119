"""The group-communication directory server (the paper's Fig. 5).

One :class:`GroupDirectoryServer` runs per directory-server machine.
Its thread structure mirrors the paper exactly:

* several **server threads** (initiators) block in ``getreq`` waiting
  for client requests;
* one **group thread** blocks in ``ReceiveFromGroup`` and applies
  every write in the global total order;
* a small recovery-exchange service answers mourned-set/sequence-
  number queries and state-transfer requests from recovering peers.

Request handling follows Fig. 5:

* any request is refused unless the server's group holds a majority
  of the configured servers (even reads — the network-partition
  argument of section 3.1);
* a **read** waits until the group thread has applied every message
  this kernel has *received* (``GetInfoGroup`` → buffered seqno), then
  answers from local state with no communication and no disk I/O;
* a **write** gets its check field generated by the initiator, goes
  through ``SendToGroup`` (r = 2), and the reply is sent once the
  local group thread has executed it — at which point one new copy is
  on this server's disk and all other live servers hold the message;
* when ``ReceiveFromGroup`` fails, the group thread calls
  ``ResetGroup``; if the rebuilt group keeps a majority it writes the
  new configuration vector to the commit block and carries on,
  otherwise it enters the recovery protocol of Fig. 6
  (:mod:`repro.directory.recovery`);
* a request caught by such a reset is *held*, not bounced: the server
  thread waits for the reset's verdict and, if the majority survived,
  carries on where it was — resubmitting a write whose send died under
  its old message id — so the client never learns there was a crash.
  Only a reset that ends without a majority refuses. While Fig. 6
  runs the service port is shut (clients fail over silently).
"""

from __future__ import annotations

import collections
import dataclasses

from repro.directory.admin import AdminPartition
from repro.directory.coherence import CoherenceManager
from repro.directory.config import ServiceConfig
from repro.directory.operations import (
    CoherentLookup,
    DirectoryOp,
    SessionOp,
    invalidation_keys,
    mint_check,
)
from repro.directory.recovery import RecoveryOutcome, run_recovery
from repro.directory.state import DirectoryState
from repro.directory.store import Change, DirectoryStore, NvramLog
from repro.errors import (
    CapabilityError,
    DirectoryError,
    GroupFailure,
    GroupResetFailed,
    Interrupted,
    LocateError,
    NoMajority,
    RpcError,
    ServiceDown,
    StorageError,
)
from repro.group.kernel import STATE_FAILED, STATE_MEMBER
from repro.group.member import GroupMember
from repro.rpc.client import RpcClient, RpcTimings
from repro.rpc.server import RpcServer
from repro.rpc.transport import Transport
from repro.sim.future import Future
from repro.storage.bullet import BulletClient
from repro.storage.nvram import Nvram


@dataclasses.dataclass
class _Applied:
    """One applied-but-unflushed record of the batch being built: the
    reply owed, and what the store must make durable first."""

    record: object
    result: object
    dedup: bool
    change: Change


class GroupDirectoryServer:
    """One replica of the triplicated group directory service. With an
    *nvram* board its store is the board's log in front of the disk
    (the paper's section 4.1 variant); nothing else differs."""

    def __init__(
        self,
        config: ServiceConfig,
        index: int,
        transport: Transport,
        bullet_port,
        admin: AdminPartition,
        nvram: Nvram | None = None,
        state_class=DirectoryState,
    ):
        self.config = config
        #: ``config.majority``, read per request (the config is frozen).
        self._majority = config.majority
        self.index = index
        #: The RNG stream this server mints new directories' checks from.
        self.check_stream = f"dir.{config.name}.check.{index}"
        self.transport = transport
        self.sim = transport.sim
        self.me = transport.address
        self.admin = admin

        #: The replicated state machine. Store and recovery rebuild it
        #: as ``type(self.state)``: the skeleton is not told what an
        #: object of the service is.
        self.state = state_class(config.port, config.root_check)
        self.member = GroupMember(
            transport, f"dirsvc.{config.name}", config.group_timings
        )
        self.rpc_server = RpcServer(transport, config.port, f"dir.{index}")
        self.recovery_rpc = RpcServer(
            transport,
            config.recovery_port(transport.address),
            f"dir.{index}.recovery",
        )
        self.rpc_client = RpcClient(
            transport, RpcTimings(reply_timeout_ms=2_000.0, max_attempts=3)
        )
        #: Serving requests? False during boot and recovery.
        self.operational = False
        #: True while the group thread is inside Fig. 5's failure
        #: branch and the reset's verdict (majority or not) is open.
        self._resetting = False
        #: Sequence number derivable from the disk as it was at boot
        #: (with the crashed-during-recovery rule applied). This is
        #: what recovery exchanges advertise until the state is live.
        self.boot_seqno = 0
        #: True while a donor snapshot is being installed (disk mixes
        #: old and new directories; never serve state transfers then).
        self._installing = False
        #: Operator escape hatch: serve without a majority (§3.1).
        self._admin_override = False
        #: True while the process has been up continuously (for the
        #: §3.2 improved recovery rule).
        self.stayed_up = False
        self.alive = True
        self._state_loaded = False
        #: Settles when the :meth:`load_state` in progress ends.
        self._loading: Future | None = None
        self._applied_kernel = -1
        #: A write's reply, by group message id: the initiator registers
        #: a slot [result, update seqno] before it sends and removes it
        #: when it leaves; the group thread fills the slot when it
        #: applies the record carrying that msg_id. A record whose
        #: writer is gone finds no slot, so nothing is left behind.
        self._reply_slots: dict[tuple, list] = {}
        #: The commit-block write of the configuration vector the last
        #: reset issued (a process; see _vector_landed).
        self._vector_write: Future | None = None
        #: members_present()'s count and the view list it counted.
        self._counted_view, self._present = None, 0
        self._processes = []
        #: Client cache coherence (docs/PROTOCOL.md); None when the
        #: deployment has it off — every request path is then untouched.
        self.coherence = (
            CoherenceManager(self) if config.cache_coherence else None
        )

        # Metrics.
        self._obs = self.sim.obs
        registry = self.sim.obs.registry
        node = str(self.me)
        self._c_reads = registry.counter(node, "dir.reads")
        self._c_writes = registry.counter(node, "dir.writes")
        self._c_refused = registry.counter(node, "dir.refused")
        self._c_resets = registry.counter(node, "dir.resets")
        self._c_recoveries = registry.counter(node, "dir.recoveries")
        self._c_fenced = registry.counter(node, "dir.fenced")
        self._h_batch_size = registry.histogram(node, "dir.batch_size")
        self._c_cache_hits = registry.counter(node, "session.cache_hits")
        self._c_cache_misses = registry.counter(node, "session.cache_misses")
        # Stage accounting for the capacity lens (docs/OBSERVABILITY.md
        # §10): sim-time the group thread spent inside _apply_loop
        # (state machine + CPU + persistence) and records applied — the
        # serial stage that bounds the write rate — and the part of it
        # spent in the store's commit path.
        self._c_apply_busy = registry.counter(node, "dir.apply_busy_ms")
        self._c_applied = registry.counter(node, "dir.applied_records")
        self._c_persist_busy = registry.counter(node, "dir.persist_busy_ms")
        self._g_sessions = registry.gauge(node, "dir.sessions")
        #: Synthetic per-read lineage counter (reads never enter the
        #: group, so they mint their own trace correlation ids).
        self._read_seq = 0
        #: Set to make an NVRAM log flush at its next poll whatever the
        #: load (tests crash replicas mid-flush with this).
        self._flush_requested = False
        self._configure_state(self.state)
        disk = DirectoryStore(
            self, admin, BulletClient(self.rpc_client, bullet_port), f"dir.{index}"
        )
        #: Where applied updates become durable.
        self.store = disk if nvram is None else NvramLog(disk, nvram)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn all threads; the group thread begins with recovery."""
        spawn = self.sim.spawn
        self._processes = [
            spawn(self._group_thread(), f"dir.{self.index}.group"),
            spawn(self._recovery_service(), f"dir.{self.index}.recovery-svc"),
        ]
        for t in range(self.config.server_threads):
            self._processes.append(
                spawn(self._server_thread(), f"dir.{self.index}.srv{t}")
            )
        if self.coherence is not None:
            self._processes.append(
                spawn(self.coherence.sweeper(), f"dir.{self.index}.coherence")
            )
        self._processes.extend(self.store.spawn_background())

    def crash(self) -> None:
        """Fail-stop crash of this server's machine-resident state.

        The disk (admin partition) and the Bullet server's files are
        separate boxes and survive; see the cluster helpers.
        """
        self.alive = False
        self.operational = False
        self.member.crash()
        for process in self._processes:
            process.kill(f"dir.{self.index} crash")
        self._processes = []

    def scrub_now(self) -> None:
        """Kick one immediate scrub pass (the remediation hook)."""
        if self.alive:
            self._processes.append(
                self.sim.spawn(
                    self.store.scrub_once(), f"dir.{self.index}.scrub-now"
                )
            )

    # ------------------------------------------------------------------
    # majority rule
    # ------------------------------------------------------------------

    def members_present(self) -> int:
        """Directory servers in the current group view, counted once
        per view list (the kernel replaces its list, never edits it)."""
        view = self.member.kernel.view
        if view is not self._counted_view:
            self._present = sum(1 for a in self.config.server_addresses if a in view)
            self._counted_view = view
        return self._present

    def has_majority(self) -> bool:
        """Fig. 5's first check: refuse everything without a majority.

        The administrative override (section 3.1's "escape for system
        administrators in case two servers lose their data forever")
        waives the rule — use :meth:`administrative_override` only when
        the missing servers' disks are known to be unrecoverable.
        """
        if not (self.operational and self.member.kernel.state == STATE_MEMBER):
            return False
        if self._admin_override:
            return True
        return self.members_present() >= self._majority

    def administrative_override(self) -> None:
        """Let this server serve without a majority (operator action).

        This is deliberately dangerous: if a 'lost' server ever comes
        back with newer data, clients will have seen stale state. The
        override also unblocks recovery (the server proceeds as if it
        alone were the last set) so a single surviving replica can be
        brought back online after a double head crash.
        """
        self._admin_override = True
        self.member.kernel.wakeup.notify_all()  # held requests re-check

    def config_vector(self) -> tuple:
        """Configuration vector for the commit block: bit per server,
        set when that server is in the current view."""
        view = self.member.info().view
        return tuple(a in view for a in self.config.server_addresses)

    # ------------------------------------------------------------------
    # server threads (initiators)
    # ------------------------------------------------------------------

    def _server_thread(self):
        while self.alive:
            try:
                op, handle = yield self.rpc_server.getreq()
            except Interrupted:
                return
            try:
                yield from self._handle_request(op, handle)
            except Interrupted:
                raise
            except Exception as exc:  # defensive: never kill the thread
                handle.error(ServiceDown(f"internal error: {exc!r}"))

    def _handle_request(self, op: DirectoryOp, handle):
        if not self.has_majority() and not (yield from self._rides_out_reset()):
            self._c_refused.inc()
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    str(self.me), "dir", "dir.refuse",
                    lineage=("life", str(self.me)),
                    op=type(op).__name__, present=self.members_present(),
                )
            handle.error(
                NoMajority(
                    f"server {self.index}: no majority "
                    f"({self.members_present()}/{self.config.n_servers} present)"
                )
            )
            return
        if op.is_read:
            yield from self._handle_read(op, handle)
        else:
            yield from self._handle_write(op, handle)

    def _reset_open(self) -> bool:
        """A group reset is under way, or due: the kernel has failed
        and the group thread (busy applying) has yet to notice."""
        return self.alive and (
            self._resetting
            or (self.operational and self.member.kernel.state == STATE_FAILED)
        )

    def _rides_out_reset(self):
        """Hold a request across a group reset (``yield from``).

        True when a reset was open and left this replica in a view
        with a majority: the caller carries on with the request as if
        nothing had happened. False when there was no reset to wait
        for, when it ended without a majority, or when the replica
        went into recovery — the caller refuses, as Fig. 5 says. The
        majority rule is why this lives here and not in the kernel: a
        pending send that survived ``fail_group`` would be committed
        by a rebuilt view of one, which needs no acknowledgements.
        """
        if not self._reset_open():
            return False
        # Counted on first use: a run no reset touches keeps the
        # registry it had (recorded registry digests stay put).
        self._obs.registry.counter(str(self.me), "dir.held").inc()
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.hold", lineage=("life", str(self.me)),
            )
        while self._reset_open():
            yield self.member.kernel.wakeup.wait()
        return self.has_majority()

    def _handle_read(self, op: DirectoryOp, handle):
        # Reads never enter the group, so they carry a synthetic
        # per-server lineage pairing their recv/reply markers.
        self._read_seq += 1
        read_seq = self._read_seq
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.read.recv",
                lineage=("read", str(self.me), read_seq), op=type(op).__name__,
            )
        # Fig. 5: before reading, make sure every message this kernel
        # has buffered is applied — otherwise a client could delete a
        # directory (via any server) and then still read it back here.
        # A reset merges the survivors' histories, so the target is
        # read afresh after one.
        while (target := self.member.kernel.received) > self._applied_kernel:
            try:
                yield from self.member.wait_applied(
                    target, lambda: self._applied_kernel
                )
                break
            except GroupFailure:
                if (yield from self._rides_out_reset()):
                    continue
                self._c_refused.inc()
                handle.error(NoMajority("group failed while read was waiting"))
                return
        if self._vector_write is not None:
            yield from self._vector_landed()
        yield from self.transport.cpu.use(self._latency().cpu.read_processing_ms)
        try:
            result = self.state.query(op)
        except (DirectoryError, CapabilityError) as exc:
            handle.error(exc)
            return
        self._c_reads.value += 1
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.read.reply",
                lineage=("read", str(self.me), read_seq),
            )
        if self.coherence is not None and isinstance(op, CoherentLookup):
            # Coherent read: piggyback this replica's applied update
            # seqno (the cache epoch) and grant the client a lease —
            # from now until it expires, every write this replica
            # applies pushes an invalidation record to the client.
            handle.reply(
                {
                    "results": result,
                    "epoch": self.state.update_seqno,
                    "lease_ms": self.coherence.grant_lease(handle.client),
                    # Which replica's lease covers the entries: cached
                    # values are only servable while *this* replica's
                    # lease is current (it is the one pushing their
                    # invalidations).
                    "server": self.me,
                },
                size=_result_size(result) + 16,
            )
        else:
            handle.reply(result, size=_result_size(result))

    def _handle_write(self, op: DirectoryOp, handle):
        # Mint the group message id up front (unconditionally, so
        # traced and untraced runs stay step-identical): the recv and
        # reply markers then share the message's lineage with every
        # group/apply/persist event in between.
        msg_id = self.member.kernel.new_msg_id()
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.write.recv",
                lineage=msg_id, op=type(op).__name__,
            )
        op = mint_check(op, self.sim.rng, self.check_stream)
        slot = self._reply_slots[msg_id] = [None, None]
        seqno = None
        try:
            while True:
                try:
                    if seqno is None:
                        seqno = yield from self.member.send_to_group(
                            op, size=op.wire_size(), msg_id=msg_id
                        )
                    yield from self.member.wait_applied(
                        seqno, lambda: self._applied_kernel
                    )
                    break
                except GroupFailure:
                    if (yield from self._rides_out_reset()):
                        # A majority survived. A send that died is
                        # made again under the same msg_id (and slot):
                        # if the survivors' merged history holds the
                        # message, the kernel answers with the seqno it
                        # already has; if not, it is sequenced now —
                        # once either way. An r-safe update keeps its
                        # seqno (a reset recommits the union of what
                        # the survivors hold) and only has to be
                        # waited for again.
                        if seqno is None:
                            self._obs.registry.counter(
                                str(self.me), "dir.resubmitted"
                            ).inc()
                        continue
                    if seqno is None:
                        self._c_refused.inc()
                        handle.error(ServiceDown("group failure during update"))
                    else:
                        # The update is r-safe, but this replica lost the
                        # majority before applying it; the client must
                        # retry and may observe a duplicate.
                        handle.error(
                            ServiceDown("group failure before update applied")
                        )
                    return
        finally:
            del self._reply_slots[msg_id]
        result, useqno = slot
        if self.coherence is not None:
            # The write barrier (docs/PROTOCOL.md): the reply may not
            # leave until every replica in the view has invalidated its
            # leased clients up to this write's update seqno —
            # otherwise a client could keep serving the overwritten
            # value from cache after this write completed.
            target = useqno if useqno is not None else self.state.update_seqno
            while True:
                try:
                    yield from self.coherence.wait_clean(target)
                    break
                except NoMajority as exc:
                    # Applied and persisted: a reset that keeps the
                    # majority only interrupts the barrier, which then
                    # resumes under the view-change fence.
                    if (yield from self._rides_out_reset()):
                        continue
                    self._c_refused.inc()
                    handle.error(exc)
                    return
        if self._vector_write is not None:
            yield from self._vector_landed()
        if isinstance(result, Exception):
            handle.error(result)
        else:
            self._c_writes.value += 1
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    str(self.me), "dir", "dir.write.reply",
                    lineage=msg_id, seqno=seqno,
                )
            handle.reply(result, size=_result_size(result))

    # ------------------------------------------------------------------
    # state configuration (exactly-once sessions)
    # ------------------------------------------------------------------

    def _configure_state(self, state: DirectoryState) -> None:
        """Apply the deployment's session policy and wire diagnostics
        into a state object this server is about to own."""
        state.dedup_enabled = self.config.dedup_enabled
        state.dedup_listener = self._c_cache_hits.inc
        state.session_miss_listener = self._c_cache_misses.inc

    def adopt_state(self, state: DirectoryState) -> None:
        """Install *state* (from a recovery snapshot or a disk
        rebuild) as this replica's live state."""
        self._configure_state(state)
        state.trim_sessions()
        self.state = state
        self._state_loaded = True
        self._g_sessions.set(len(state.sessions))

    # ------------------------------------------------------------------
    # group thread
    # ------------------------------------------------------------------

    def _group_thread(self):
        yield from self._recover()
        while self.alive:
            try:
                try:
                    record = yield from self.member.receive()
                except GroupFailure:
                    yield from self._handle_group_failure()
                else:
                    yield from self._apply_loop(record)
            except Interrupted:
                raise
            except (RpcError, LocateError, StorageError) as exc:
                # Our Bullet server or disk is gone: this replica
                # cannot persist anything, so by fail-stop semantics it
                # takes itself down and lets the others reconfigure.
                self._self_destruct(f"storage subsystem failed: {exc!r}")
                return
            except Exception as exc:
                # Whatever else ends this thread must end the replica:
                # the kernel would go on acknowledging and heart-beating
                # for a member that applies nothing, the group would
                # never reset, and every request would park for good.
                self._self_destruct(f"group thread died: {exc!r}")
                return

    def _apply_loop(self, first):
        """Group commit (the Fig. 9 amortization): apply *first* and
        every record deliverable behind it strictly in sequence order,
        then persist their net effect in one flush.

        Each pass drains the kernel (zero-cost) and applies what it
        holds. Every store gets the first drain; only one whose commit
        has a fixed cost to share drains again after the applies, so
        requests sequenced meanwhile join this flush instead of
        waiting out a whole one of their own. The batch is
        cut when the kernel runs dry or at ``batch_max``.
        """
        batch_max = max(1, self.config.batch_max)
        started = self.sim.now
        pending = collections.deque([first])
        batch: list[_Applied] = []
        horizon = self._applied_kernel
        drain = batch_max > 1
        while True:
            room = batch_max - len(batch) - len(pending)
            if drain and room > 0:
                pending.extend(self.member.receive_ready(room))
                drain = self.store.SHARED_COMMIT_COST
            if not pending:
                break
            while pending:
                record = pending.popleft()
                if record.seqno <= horizon:  # replayed after a view change
                    continue
                horizon = record.seqno
                batch.append((yield from self._apply_one(record)))
        applied = len(batch)
        yield from self._cut(batch)
        self._c_apply_busy.value += self.sim.now - started
        self._c_applied.value += applied

    def _note_batch(self, batch) -> None:
        """Record a batch's size at the cut (what its flush carries)."""
        self._h_batch_size.observe(len(batch))
        if self._obs.tracer.enabled:
            first, last = batch[0].record, batch[-1].record
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.batch",
                lineage=first.msg_id,
                size=len(batch), first=first.seqno, last=last.seqno,
            )

    def _self_destruct(self, reason: str) -> None:
        """Fence this replica (called from inside its own threads, so
        the actual kill is scheduled onto the event loop)."""
        self.operational = False
        self._c_fenced.inc()
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.fence",
                lineage=("life", str(self.me)), reason=reason,
            )

        def do_crash():
            if self.alive:
                self.crash()
                if self.transport.nic.up:
                    self.transport.shutdown()

        self.sim.call_soon(do_crash)

    def _apply_one(self, record):
        """Charge the CPU and run one record through the state
        machine; persistence and the reply wait for the cut."""
        op = record.payload
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.apply.start",
                lineage=record.msg_id, seqno=record.seqno,
                op=type(op).__name__, **_session_args(op),
            )
        yield from self.transport.cpu.use(self._latency().cpu.write_processing_ms)
        hits_before = self.state.dedup_hits
        try:
            result, effects = self.state.apply(op)
        except (DirectoryError, CapabilityError) as exc:
            # Deterministic failure: every replica bumps the update
            # seqno once per message whatever the outcome, keeping the
            # counters aligned.
            self.state.update_seqno += 1
            self._note_coherent_apply(record)  # changed nothing
            return _Applied(
                record, exc, self.state.dedup_hits > hits_before, Change(op, None)
            )
        self._note_coherent_apply(record, op)
        return _Applied(
            record, result, self.state.dedup_hits > hits_before,
            Change(op, effects, self.state.update_seqno, self.state.next_object),
        )

    def _cut(self, batch):
        """Flush *batch* and release its replies in order, leaving it
        empty. The batched server's store writes the cut out as one
        unit, be it one record or sixteen; the paper's server
        (``batch_max=1``, every cut one record) takes the classic
        two-write commit and is bit-for-bit the unbatched server of
        Figs. 7/9. Replies (via _finish_apply) go out only after the
        flush, so the per-client guarantee is exactly the unbatched
        one."""
        if not batch:
            return
        batched = self.config.batch_max > 1
        if batched:
            self._note_batch(batch)
        cut = [applied.change for applied in batch]
        persisted = sum(1 for change in cut if change.effects is not None)
        if persisted:
            tracer = self._obs.tracer
            lineage = batch[0].record.msg_id
            args = {"batch": persisted} if len(batch) > 1 else {}
            if tracer.enabled:
                tracer.emit(
                    str(self.me), "dir", "dir.persist.start",
                    lineage=lineage, storage=self.store.MEDIUM, **args,
                )
            started = self.sim.now
            if batched:
                yield from self.store.commit(cut, lineage=lineage)
            else:
                [change] = cut
                yield from self.store.commit_classic(change, lineage=lineage)
            self._c_persist_busy.value += self.sim.now - started
            if tracer.enabled:
                tracer.emit(
                    str(self.me), "dir", "dir.persist.end",
                    lineage=lineage, storage=self.store.MEDIUM, **args,
                )
        for applied in batch:
            self._finish_apply(applied.record, applied.result, applied.dedup)
        batch.clear()

    def _note_coherent_apply(self, record, op=None) -> None:
        """Coherence hooks at one record's apply point: push the
        invalidation record of *op* (None: the apply failed and changed
        nothing) to leased clients, overlapping the ack round trip with
        the persist I/O that follows, and capture the write's update
        seqno for the initiator's barrier target. A deployment without
        coherence computes no keys."""
        if self.coherence is None:
            return
        keys = () if op is None else invalidation_keys(op)
        self.coherence.note_apply(
            self.state.update_seqno, keys, lineage=record.msg_id
        )
        slot = self._reply_slots.get(record.msg_id)
        if slot is not None:
            slot[1] = self.state.update_seqno

    def _finish_apply(self, record, result, dedup: bool) -> None:
        self._applied_kernel = record.seqno
        self._g_sessions.set(len(self.state.sessions))
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.apply.end",
                lineage=record.msg_id, seqno=record.seqno,
                failed=isinstance(result, Exception),
                dedup=dedup, **_session_args(record.payload),
            )
        slot = self._reply_slots.get(record.msg_id)
        if slot is not None:
            slot[0] = result
        self.member.notify_progress()

    # ------------------------------------------------------------------
    # failure handling and recovery
    # ------------------------------------------------------------------

    def _handle_group_failure(self):
        """Fig. 5's failure branch: rebuild, else recover."""
        self.operational = False
        self._resetting = True
        self._c_resets.inc()
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.reset.start",
                lineage=("life", str(self.me)),
                reason=self.member.kernel.failure_reason,
            )
        try:
            view = yield from self.member.reset()
        except GroupResetFailed:
            view = []
        present = sum(1 for a in self.config.server_addresses if a in view)
        majority = present >= self.config.majority
        if majority:
            # Majority rebuilt: persist the new configuration vector
            # and return to normal operation. The write is issued now,
            # so it is on the disk arm's FIFO ahead of any cut's
            # blocks, and runs beside this thread, which goes back to
            # applying; every reply waits for it (_vector_landed).
            self._vector_write = self.sim.spawn(
                self._write_vector(self.config_vector()),
                f"dir.{self.index}.vector",
            )
            self._processes.append(self._vector_write)
            self.operational = True
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    str(self.me), "dir", "dir.reset.done",
                    lineage=("life", str(self.me)), present=present,
                )
        # The verdict is in: held requests carry on, or are refused.
        self._resetting = False
        self.member.kernel.wakeup.notify_all()
        if not majority:
            yield from self._recover()

    def _vector_landed(self):
        """Wait until the configuration vector of this replica's view
        is on its disk (``yield from``). Every reply waits here: none
        leaves in a new view before that view's vector is durable."""
        while (vector := self._vector_write) is not None and not vector.resolved:
            yield vector

    def _write_vector(self, config_vector):
        """Write the configuration vector of the view a reset just
        built to the commit block (``spawn``)."""
        try:
            yield from self.admin.write_commit_block(
                config_vector=config_vector, lineage=("life", str(self.me))
            )
        except (RpcError, LocateError, StorageError) as exc:
            # Fenced as the group thread would be. The crash is queued
            # ahead of the wakeups of the replies waiting on this write,
            # so none of them leaves.
            self._self_destruct(f"storage subsystem failed: {exc!r}")

    def _recover(self):
        # Fig. 6 runs with the service port shut. The server threads
        # sit in getreq all the same (spawned at boot, like every
        # other thread), and would answer HEREIS and take requests for
        # the second or so this lasts only to refuse each of them.
        self.rpc_server.open = False
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.recover.start",
                lineage=("life", str(self.me)),
            )
        outcome: RecoveryOutcome = yield from run_recovery(self)
        self._applied_kernel = outcome.applied_kernel
        self._state_loaded = True
        self.operational = True
        self.rpc_server.open = True
        self.stayed_up = True
        self._c_recoveries.inc()
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "dir", "dir.recover.done",
                lineage=("life", str(self.me)),
                rounds=outcome.rounds,
                donor=str(outcome.donor) if outcome.donor else None,
                transferred=outcome.transferred_dirs,
                duration_ms=round(outcome.duration_ms, 3),
            )
        self.member.notify_progress()

    # ------------------------------------------------------------------
    # recovery-exchange service (answers peers, Fig. 6's RPCs)
    # ------------------------------------------------------------------

    def _recovery_service(self):
        while self.alive:
            try:
                request, handle = yield self.recovery_rpc.getreq()
            except Interrupted:
                return
            kind = request["op"]
            if kind == "exchange":
                handle.reply(
                    {
                        "mourned": self.mourned_set(),
                        "seqno": self.best_known_seqno(),
                        "operational": self.operational,
                    }
                )
            elif kind == "get_state":
                yield from self._serve_state_transfer(request, handle)
            else:
                handle.error(DirectoryError(f"unknown recovery op {kind!r}"))

    def mourned_set(self) -> set:
        """Servers that (as far as this server knows) crashed before
        it: the zero bits of its configuration vector."""
        return {
            address
            for address, up in zip(
                self.config.server_addresses, self.admin.commit.config_vector
            )
            if not up
        }

    def best_known_seqno(self) -> int:
        """The sequence number recovery compares across servers."""
        if self.admin.quarantined_blocks:
            # Corruption was detected this boot (admin blocks at load,
            # or a Bullet file at rebuild): this disk cannot certify
            # completeness, so it must never win the donor election —
            # not even on the strength of an NVRAM log, which holds
            # only the unflushed tail. Recovery clears the quarantine
            # at its final seal.
            return 0
        if self.operational or self._state_loaded:
            base = self.state.update_seqno
        else:
            base = self.boot_seqno
        return max(base, self.store.logged_seqno())

    def load_state(self):
        """Load this replica's own disk image, once (``yield from``):
        the first caller loads, later callers wait for it. A peer's
        ``get_state`` and the replica's own recovery both ask at boot."""
        while not self._state_loaded:
            if self._loading is not None:
                yield self._loading
                continue
            self._loading = Future("dir.load")
            try:
                yield from self.store.load()
            finally:
                loading, self._loading = self._loading, None
                loading.resolve()

    def _serve_state_transfer(self, request, handle):
        min_kernel = request.get("min_kernel", -1)
        if not self._state_loaded:
            if self._installing:
                # Mid-transfer our disk is a mixture; wait until the
                # install completes before serving anyone.
                while self.alive and not self._state_loaded:
                    yield self.sim.sleep(20.0)
            else:
                yield from self.load_state()
        if self.operational and min_kernel > self._applied_kernel:
            try:
                yield from self.member.wait_applied(
                    min_kernel, lambda: self._applied_kernel
                )
            except GroupFailure:
                handle.error(ServiceDown("group failed during state transfer"))
                return
        snapshot = self.state.to_snapshot()
        handle.reply(
            {
                "snapshot": snapshot,
                "entry_seqnos": {
                    obj: seqno for obj, (_, seqno) in self.admin.entries.items()
                },
                "applied_kernel": self._applied_kernel,
                # Only an operational donor's applied_kernel is in the
                # receiver's kernel numbering (co-member of the live
                # instance, and the wait above ran); a recovering
                # donor's horizon may refer to an earlier instance.
                "operational": self.operational,
            },
            size=self.state.snapshot_size(),
        )

    def _latency(self):
        return self.transport.nic.network.latency


def _result_size(result) -> int:
    if isinstance(result, list):
        return 64 + 48 * len(result)
    if isinstance(result, bytes):  # an object's image (a file read)
        return 48 + len(result)
    return 96


def _session_args(op) -> dict:
    """Trace attributes identifying a session-stamped operation (the
    exactly-once checker correlates apply events by these)."""
    if isinstance(op, SessionOp):
        return {"client": op.client_id, "sess": op.session_seqno}
    return {}

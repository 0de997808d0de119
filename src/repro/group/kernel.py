"""The per-machine group-communication protocol engine.

One :class:`GroupKernel` instance manages one group membership on one
machine, mirroring the group state Amoeba keeps in the kernel. It
implements:

* **sequencing** — the current sequencer assigns consecutive sequence
  numbers and multicasts each message (PB method);
* **r-resilience** — members send cumulative acknowledgements; the
  sequencer commits a message once ``r`` other members hold it, so any
  ``r`` crashes cannot lose a delivered message;
* **gap repair** — members detect missing sequence numbers and ask the
  sequencer to retransmit;
* **failure detection** — sequencer heartbeats (carrying the commit
  horizon) and member echoes; a member's timer fires at the instant the
  sequencer's silence reaches its timeout, the sequencer checks echoes
  on its heartbeat tick, and silence on either side marks the group
  *failed*, names the suspect and wakes every blocked primitive with
  :class:`~repro.errors.GroupFailure`;
* **view changes** — join, leave, and the two-phase coordinator-
  arbitrated reset that rebuilds a group from survivors after a crash
  (the ``ResetGroup`` of the paper).

The kernel is deliberately passive: all its logic runs inside packet
handlers and timer callbacks. The blocking primitives live in
:class:`repro.group.member.GroupMember`, which wraps this class.

Every write crosses this file several times per member (a request, a
multicast, acks, a commit, an apply), so its hot paths pay only for
what changed: each frame is one dict literal carrying its stamp
(instance and incarnation) and its kind comes from a table built when
the handlers register; the r-safe horizon (:meth:`GroupKernel._safe_point`)
scans the view in place on every ack and echo rather than sorting;
a commit walks the pending sends only when some are in flight; and the
hot counters are bumped in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import GroupFailure
from repro.rpc.transport import Transport
from repro.sim.future import Future
from repro.sim.primitives import Condition
from repro.group.timings import SEND_RETRIES, SEND_RETRY_MS, GroupTimings

CONTROL_SIZE = 64
HEADER_SIZE = 64

#: Committed history kept around beyond what liveness strictly needs,
#: as slack for stragglers, retransmissions, and reset vote tails.
HISTORY_MARGIN = 64

STATE_IDLE = "idle"
STATE_MEMBER = "member"
STATE_FAILED = "failed"


@dataclass(frozen=True, slots=True)
class BcRecord:
    """One sequenced message as stored in the history buffer.

    The sequencer builds it once; ``grp.bc`` frames, view tails and
    reset votes carry that object, so every member's history holds
    the same one.
    """

    seqno: int
    msg_id: tuple
    sender: Any
    payload: Any
    size: int


@dataclass
class PendingSend:
    """Sender-side bookkeeping for one SendToGroup in flight."""

    msg_id: tuple
    payload: Any
    size: int
    future: Future
    retries_left: int


class GroupKernel:
    """Protocol state machine for one group on one machine."""

    def __init__(self, transport: Transport, group: str, timings: GroupTimings | None = None):
        self.transport = transport
        self.sim = transport.sim
        self.group = group
        self.timings = timings or GroupTimings()
        self.me = transport.address

        # Observability: registry counters (always on) + guarded tracer.
        self._obs = self.sim.obs
        registry = self._obs.registry
        node = str(self.me)
        self._c_submitted = registry.counter(node, "group.submitted")
        self._c_sequenced = registry.counter(node, "group.sequenced")
        self._c_bc_rx = registry.counter(node, "group.bc_rx")
        self._c_commits = registry.counter(node, "group.commit_advances")
        self._c_retrans_req = registry.counter(node, "group.retrans_requested")
        self._c_retrans_srv = registry.counter(node, "group.retrans_served")
        self._c_failures = registry.counter(node, "group.failures")
        self._c_views = registry.counter(node, "group.views_adopted")
        self._c_resets = registry.counter(node, "group.resets_led")
        self._c_delivered = registry.counter(node, "group.delivered")
        # Membership operations (runtime joins).
        self._c_joins_admitted = registry.counter(node, "membership.joins_admitted")
        #: Sequenced-but-undelivered depth (received - taken): how far
        #: the application lags the stream this member holds. The
        #: health monitor watches this for sequencer/apply backlog.
        self._g_backlog = registry.gauge(node, "group.backlog")
        #: Sim-time of the last heartbeat evidence (sequencer: own
        #: tick; member: hb received). Staleness = now - value.
        self._g_last_hb = registry.gauge(node, "group.last_heartbeat_ms")

        # Membership.
        self.state = STATE_IDLE
        self.instance: tuple | None = None
        self.incarnation = -1
        self.view: list = []
        self.sequencer = None
        self.resilience = 0
        self.failure_reason = ""
        #: The member the failure detector blamed (None when the group
        #: failed for another reason); a reset need not wait for it.
        self.suspect = None
        #: Every view this kernel adopted or announced (epoch, members,
        #: resilience, trigger) — cluster.report() aggregates these so
        #: post-run analysis can reconstruct membership over time.
        self.view_log: list[dict] = []

        # Message stream.
        self.history: dict[int, BcRecord] = {}
        #: The prune mark: no seqno below it is in the history. Pruning
        #: walks up from it; holding an older record lowers it
        #: (``_hold``), restarting the stream resets it (``_rebase``).
        self._pruned = 0
        self.received = -1  # highest contiguous seqno held
        self.committed = -1  # highest seqno safe to deliver
        self.taken = -1  # highest seqno the application consumed
        self.next_assign = 0  # sequencer only
        self.sequenced_ids: dict[tuple, int] = {}  # msg_id -> seqno (dedup)
        self.pending_sends: dict[tuple, PendingSend] = {}
        self._next_msg_number = 0
        self._next_instance = 0
        #: Distinguishes this kernel from pre-crash kernels at the same
        #: address (restarts happen at a later simulated instant).
        self._epoch = self.sim.now

        # Failure detection.
        self.last_heartbeat = 0.0
        self.ack_progress: dict[Any, int] = {}  # sequencer: member -> acked
        self.last_echo: dict[Any, float] = {}  # sequencer: member -> time
        self._retrans_requested_at: float | None = None

        # Reset protocol.
        self._promise: tuple = (-1, "")
        self.reset_votes: dict[Any, tuple[int, list[BcRecord]]] | None = None
        self._reset_key: tuple | None = None
        #: Coordinator of every reset round we voted in, by its key,
        #: since this instance began: the view we end up adopting is at
        #: most one of theirs, and the others must not count us.
        self._votes_cast: dict[tuple, Any] = {}

        # Wakeup for blocked receive/info waiters; join waiters.
        self.wakeup = Condition(f"grp({group}@{self.me}).wakeup")
        #: GroupMember.wait_applied's (target seqno, future) entries.
        self.apply_waiters: list[tuple[int, Future]] = []
        self._join_waiter: Future | None = None

        self._dead = False
        self._ticker = None
        self._silence_timer = None
        #: Frame kind per suffix and the name of every submit's future,
        #: formatted once rather than per frame and per send.
        self._kinds: dict[str, str] = {}
        self._send_name = f"send({group}@{self.me})"
        self._register_handlers()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _register_handlers(self) -> None:
        for suffix, handler in [
            ("req", self._on_req),
            ("bc", self._on_bc),
            ("ack", self._on_ack),
            ("commit", self._on_commit),
            ("retrans", self._on_retrans),
            ("hb", self._on_hb),
            ("echo", self._on_ack),  # an ack sent in answer to a heartbeat
            ("fail", self._on_fail),
            ("join_req", self._on_join_req),
            ("view", self._on_view),
            ("probe", self._on_probe),
            ("vote", self._on_vote),
            ("withdraw", self._on_withdraw),
            ("leave", self._on_leave),
        ]:
            kind = self._kinds[suffix] = f"grp.{self.group}.{suffix}"
            self.transport.register(kind, handler)

    def crash(self) -> None:
        """Tear the kernel down with its machine."""
        self._dead = True
        self.state = STATE_IDLE
        if self._ticker is not None:
            self._ticker.kill("kernel crash")
            self._ticker = None

    def _send(self, dst, suffix: str, payload: dict, size: int = CONTROL_SIZE) -> None:
        if self._dead or not self.transport.nic.up:
            return
        self.transport.send(dst, self._kinds[suffix], payload, size)

    def _broadcast(self, suffix: str, payload: dict, size: int = CONTROL_SIZE) -> None:
        if self._dead or not self.transport.nic.up:
            return
        self.transport.broadcast(self._kinds[suffix], payload, size)

    def _send_record(self, record: BcRecord, dst=None) -> None:
        """One ``grp.bc`` frame: the record itself, the stamp and the
        commit horizon; multicast unless *dst* names one member."""
        frame = {"instance": self.instance, "inc": self.incarnation,
                 "record": record, "committed": self.committed}
        if dst is None:
            self._broadcast("bc", frame, record.size + HEADER_SIZE)
        else:
            self._send(dst, "bc", frame, record.size + HEADER_SIZE)

    def _update_backlog(self) -> None:
        """Refresh the ``group.backlog`` gauge after received/taken moved."""
        self._g_backlog.set(self.received - self.taken)

    def _note_heartbeat(self) -> None:
        """Stamp heartbeat evidence (field + gauge) at the current time."""
        self.last_heartbeat = self.sim.now
        self._g_last_hb.set(self.sim.now)

    def _current(self, payload: dict) -> bool:
        """Is this packet from our group instance and incarnation?"""
        if payload.get("instance") != self.instance:
            return False
        inc = payload.get("inc")
        if inc == self.incarnation:
            return True
        if inc is not None and inc > self.incarnation and self.state == STATE_MEMBER:
            # Traffic from a future view we never saw (its grp.view got
            # lost, or we were excluded): we are out of sync.
            self.fail_group(f"saw incarnation {inc} > {self.incarnation}")
        return False

    # ------------------------------------------------------------------
    # lifecycle: create / join / leave
    # ------------------------------------------------------------------

    def create(self, resilience: int) -> None:
        """Form a brand-new group containing only this member."""
        self._next_instance += 1
        self.instance = (self.me, self._next_instance, self.sim.now)
        self.incarnation = 0
        self.view = [self.me]
        self.sequencer = self.me
        self.resilience = resilience
        self._rebase(-1)
        if self._ticker is not None:
            # A new group heartbeats from its creation, not on the phase
            # of a ticker left running by a group this kernel quit.
            self._ticker.kill("ticker restart")
            self._ticker = None
        self._enter_view("create")
        self.wakeup.notify_all()

    def start_join(self) -> Future:
        """Broadcast one join round; the future resolves when a view
        including us arrives (the member retries rounds and times out)."""
        fut = Future(f"join({self.group}@{self.me})")
        self._join_waiter = fut
        self._broadcast("join_req", {"joiner": self.me})
        return fut

    def stop_join(self) -> None:
        """Give up joining: a view naming us from now on is not adopted."""
        self._join_waiter = None

    def go_idle(self) -> None:
        """Drop out without telling anyone: a graceful leave completed,
        or recovery abandons this group to join or create afresh."""
        self.state = STATE_IDLE

    def announce_leave(self) -> None:
        """Tell the sequencer we are leaving (graceful)."""
        if self.state != STATE_MEMBER:
            return
        if self.me == self.sequencer:
            self._sequencer_remove_member(self.me)
        else:
            frame = {"instance": self.instance, "inc": self.incarnation, "member": self.me}
            self._send(self.sequencer, "leave", frame)

    def _log_view(self, trigger: str, view=None, sequencer=None) -> None:
        """Append one membership-history entry for the current view."""
        members = self.view if view is None else view
        self.view_log.append(
            {
                "at_ms": self.sim.now,
                "epoch": self.incarnation,
                "members": tuple(str(m) for m in sorted(members, key=str)),
                "sequencer": str(sequencer if sequencer is not None else self.sequencer),
                "resilience": self.resilience,
                "trigger": trigger,
            }
        )

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def new_msg_id(self) -> tuple:
        """Message ids must be unique across this machine's *lifetimes*:
        after a crash + restart the counter starts over, but peers may
        still hold dedup entries from the previous incarnation of this
        machine — a reused (address, n) pair would make the sequencer
        silently swallow a brand-new message as a "duplicate" and let
        the sender's watchdog resolve against the old assignment. The
        kernel's creation time disambiguates restarts."""
        self._next_msg_number += 1
        return (self.me, self._epoch, self._next_msg_number)

    def submit(self, payload: Any, size: int, msg_id: tuple | None = None) -> Future:
        """Start one SendToGroup; future resolves with the assigned
        seqno once the message is r-safe (committed).

        Callers that already minted a msg id (to stamp trace events
        emitted *before* the submit, e.g. the directory's request-
        received marker) pass it in; everyone else gets a fresh one.
        """
        fut = Future(self._send_name)
        if self.state != STATE_MEMBER:
            fut.fail(GroupFailure(f"not a group member ({self.state})"))
            return fut
        if msg_id is None:
            msg_id = self.new_msg_id()
        else:
            # A sender that resubmits under its old id (its first send
            # died with the previous view) may find the rebuilt view
            # has already recommitted the message: the sequencer's
            # dedup entry survived the vote merge, so answer from it.
            # Re-requesting would only re-announce a record whose
            # commit no later advance will ever report to us.
            seqno = self.sequenced_ids.get(msg_id)
            if seqno is not None and seqno <= self.committed:
                fut.resolve(seqno)
                return fut
        self._c_submitted.value += 1
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "group", "grp.submit",
                lineage=msg_id, size=size,
            )
        pending = PendingSend(msg_id, payload, size, fut, SEND_RETRIES)
        self.pending_sends[msg_id] = pending
        self._transmit_request(pending)
        self._arm_send_watchdog(pending)
        return fut

    def _transmit_request(self, pending: PendingSend) -> None:
        if self.me == self.sequencer:
            self._sequence(pending.msg_id, self.me, pending.payload, pending.size)
        else:
            request = {"instance": self.instance, "inc": self.incarnation,
                       "msg_id": pending.msg_id, "sender": self.me,
                       "payload": pending.payload, "size": pending.size}
            self._send(self.sequencer, "req", request, pending.size + HEADER_SIZE)

    def _arm_send_watchdog(self, pending: PendingSend) -> None:
        def check():
            if pending.future.resolved or self._dead:
                return
            if self.state == STATE_FAILED or pending.retries_left <= 0:
                self._fail_pending(pending)
                return
            pending.retries_left -= 1
            if self.state == STATE_MEMBER:
                self._transmit_request(pending)
            self._arm_send_watchdog(pending)

        self.sim.schedule(SEND_RETRY_MS, check)

    def _fail_pending(self, pending: PendingSend) -> None:
        self.pending_sends.pop(pending.msg_id, None)
        pending.future.fail_if_pending(
            GroupFailure(f"send {pending.msg_id} not delivered: {self.failure_reason or 'timeout'}")
        )

    # ------------------------------------------------------------------
    # sequencer logic
    # ------------------------------------------------------------------

    def _sequence(self, msg_id: tuple, sender, payload: Any, size: int) -> None:
        """Assign the next seqno and multicast (sequencer only)."""
        existing = self.sequenced_ids.get(msg_id)
        if existing is not None:
            # Duplicate request (sender retried): re-announce the record.
            self._send_record(self.history[existing])
            return
        seqno = self.next_assign
        self.next_assign += 1
        record = BcRecord(seqno, msg_id, sender, payload, size)
        self.history[seqno] = record
        self.sequenced_ids[msg_id] = seqno
        self._c_sequenced.value += 1
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "group", "grp.sequence",
                lineage=msg_id, seqno=seqno, sender=str(sender),
            )
        if self.received == seqno - 1:
            self.received = seqno
            self._update_backlog()
        if self._required_acks() == 0 and self.received > self.committed:
            # With r = 0 (or a single-member view) the commit horizon
            # rides on the multicast itself: no separate commit packet.
            self.committed = self.received
            self._send_record(record)
            self._after_commit_advance()
        else:
            self._send_record(record)
            self._advance_commit()

    def _required_acks(self) -> int:
        """How many *other* members must hold a message before commit."""
        others = len(self.view) - 1
        return min(self.resilience, others)

    def _safe_point(self) -> int:
        """Highest seqno held by enough members to be r-safe: the
        ``need``-th highest acknowledgement among the other members (a
        member with none counts -1), capped at our own ``received``.

        Called on every ack and echo, so the two common cases — every
        other member must hold it (r >= view size - 1) and any one
        will do (r = 1) — scan the view in place; only 1 < need <
        others sorts. ``tests/group/test_safe_point.py`` holds this to
        the sorted definition."""
        view = self.view
        others = len(view) - 1
        need = self.resilience if self.resilience < others else others
        point = self.received
        if need == 0:
            return point
        me = self.me
        acked = self.ack_progress.get
        if need == others:  # the lowest acknowledgement
            for member in view:
                if member != me:
                    ack = acked(member, -1)
                    if ack < point:
                        point = ack
            return point
        if need == 1:  # the highest acknowledgement
            highest = -1
            for member in view:
                if member != me:
                    ack = acked(member, -1)
                    if ack > highest:
                        highest = ack
            return highest if highest < point else point
        acks = sorted((acked(m, -1) for m in view if m != me), reverse=True)
        return min(acks[need - 1], point)

    def _advance_commit(self) -> None:
        if self.me != self.sequencer or self.state != STATE_MEMBER:
            return
        safe = self._safe_point()
        if safe > self.committed:
            self.committed = safe
            self._c_commits.value += 1
            if self._obs.tracer.enabled:
                frontier = self.history.get(self.committed)
                self._obs.tracer.emit(
                    str(self.me), "group", "grp.commit",
                    lineage=frontier.msg_id if frontier else ("commit", str(self.me)),
                    committed=self.committed,
                )
            self._broadcast("commit", {
                "instance": self.instance, "inc": self.incarnation,
                "committed": self.committed,
            })
            self._after_commit_advance()

    def _after_commit_advance(self) -> None:
        """Resolve local sends covered by the new commit horizon (a
        member with none in flight — most commits — skips the walk)."""
        if self.pending_sends:
            for msg_id, pending in list(self.pending_sends.items()):
                seqno = self.sequenced_ids.get(msg_id)
                if seqno is not None and seqno <= self.committed:
                    self.pending_sends.pop(msg_id, None)
                    if self._obs.tracer.enabled:
                        self._obs.tracer.emit(
                            str(self.me), "group", "grp.send.committed",
                            lineage=msg_id, seqno=seqno,
                        )
                    pending.future.resolve_if_pending(seqno)
        self.wakeup.notify_all()

    # ------------------------------------------------------------------
    # the message stream: hold, forget, deliver
    # ------------------------------------------------------------------

    def _hold(self, record: BcRecord) -> bool:
        """Keep *record* unless its seqno is held already; True if kept."""
        seqno = record.seqno
        if seqno in self.history:
            return False
        if seqno < self._pruned:
            self._pruned = seqno  # the next prune walks down to it
        self.history[seqno] = record
        self.sequenced_ids[record.msg_id] = seqno
        return True

    def _held_after(self, base: int) -> list[BcRecord]:
        """The records held above *base*, up to the contiguous horizon."""
        history = self.history
        return [history[s] for s in range(base + 1, self.received + 1) if s in history]

    def _forget(self, seqnos: list[int]) -> None:
        """Drop *seqnos* from the history and their ids from the dedup table."""
        for seqno in seqnos:
            self.sequenced_ids.pop(self.history.pop(seqno).msg_id, None)

    def take(self) -> BcRecord | None:
        """Hand the next committed record to the application, or None."""
        if self.state != STATE_MEMBER or self.taken >= self.committed:
            return None
        record = self.history.get(self.taken + 1)
        if record is not None:
            self.taken += 1
            self._c_delivered.value += 1
            self._update_backlog()
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    str(self.me), "group", "grp.deliver",
                    lineage=record.msg_id, seqno=record.seqno,
                )
        return record

    def skip_delivered(self, seqno: int) -> None:
        """Count the stream through *seqno* as taken: the application
        installed a state that already covers it."""
        self.taken = max(self.taken, seqno)

    # ------------------------------------------------------------------
    # packet handlers
    # ------------------------------------------------------------------

    def _on_req(self, packet) -> None:
        payload = packet.payload
        if not self._current(payload) or self.state != STATE_MEMBER:
            return
        if self.me != self.sequencer:
            return  # stale sender view; its watchdog will retarget
        self._sequence(payload["msg_id"], payload["sender"], payload["payload"], payload["size"])

    def _on_bc(self, packet) -> None:
        payload = packet.payload
        if not self._current(payload) or self.state != STATE_MEMBER:
            return
        record = payload["record"]
        if self._hold(record):
            self._c_bc_rx.value += 1
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    str(self.me), "group", "grp.bc.rx",
                    lineage=record.msg_id, seqno=record.seqno,
                )
        self._advance_received()
        if record.seqno > self.received:
            self._maybe_request_retrans()
        if self.resilience > 0 and self.me != self.sequencer:
            self._ack("ack")
        self._note_commit(payload["committed"])

    def _advance_received(self) -> None:
        while (self.received + 1) in self.history:
            self.received += 1
        self._update_backlog()
        if self.received >= self.committed:
            self._retrans_requested_at = None

    def _note_commit(self, committed: int) -> None:
        if committed > self.committed:
            self.committed = min(committed, self.received)
            if committed > self.received:
                # We are told messages we do not hold are committed.
                self._maybe_request_retrans()
            self._after_commit_advance()

    def _ack(self, suffix: str) -> None:
        """Tell the sequencer how far we hold the stream contiguously
        (``grp.ack`` after a multicast, ``grp.echo`` after a heartbeat)."""
        acked = {"instance": self.instance, "inc": self.incarnation,
                 "member": self.me, "acked": self.received}
        self._send(self.sequencer, suffix, acked)

    def _on_ack(self, packet) -> None:
        payload = packet.payload
        if not self._current(payload) or self.me != self.sequencer:
            return
        member, acked = payload["member"], payload["acked"]
        if acked > self.ack_progress.get(member, -1):
            self.ack_progress[member] = acked
        self.last_echo[member] = self.sim.now
        self._advance_commit()

    def _on_commit(self, packet) -> None:
        payload = packet.payload
        if not self._current(payload) or self.state != STATE_MEMBER:
            return
        self._note_commit(payload["committed"])

    def _maybe_request_retrans(self) -> None:
        now = self.sim.now
        if (
            self._retrans_requested_at is not None
            and now - self._retrans_requested_at < SEND_RETRY_MS
        ):
            return
        self._retrans_requested_at = now
        if self.sequencer != self.me:
            self._c_retrans_req.inc()
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    str(self.me), "group", "grp.retrans.req",
                    lineage=("life", str(self.me)),
                    missing_from=self.received + 1,
                )
            missing = {"instance": self.instance, "inc": self.incarnation,
                       "member": self.me, "from": self.received + 1}
            self._send(self.sequencer, "retrans", missing)

    def _on_retrans(self, packet) -> None:
        payload = packet.payload
        if not self._current(payload) or self.me != self.sequencer:
            return
        self._c_retrans_srv.inc()
        for record in self._held_after(payload["from"] - 1):
            self._send_record(record, payload["member"])

    # -- heartbeats and the silence detector ----------------------------

    def _tick_loop(self):
        """The sequencer's heartbeat; ends once this kernel is a member
        of a view some other kernel sequences."""
        while not self._dead:
            yield self.sim.sleep(self.timings.heartbeat_interval_ms)
            if self._dead or self.state != STATE_MEMBER:
                continue
            if self.me != self.sequencer:
                break
            self._sequencer_tick()
        self._ticker = None

    def _sequencer_tick(self) -> None:
        self._broadcast("hb", {
            "instance": self.instance, "inc": self.incarnation,
            "committed": self.committed, "next_assign": self.next_assign,
        })
        # The sequencer's own heartbeat traffic is this tick; keeping
        # the stamp fresh matters if this kernel later demotes to an
        # ordinary member without an intervening view adoption.
        self._note_heartbeat()
        self._prune_history()
        timeout = self.timings.heartbeat_timeout_ms
        for member in list(self.view):
            if member == self.me:
                continue
            last = self.last_echo.get(member)
            if last is None:
                # Never-echoed member (e.g. freshly joined and not yet
                # stamped by every code path): its echo clock starts
                # at the first tick that observes it, NOT at the stale
                # ``last_heartbeat`` of ticker start-up — judging a
                # quiet-but-alive joiner against that old baseline
                # failed the group spuriously right after a view change.
                self.last_echo[member] = self.sim.now
                continue
            if self.sim.now - last > timeout:
                self.fail_group(
                    f"member {member!r} stopped echoing", announce=True, suspect=member
                )
                return

    def _watch_sequencer(self) -> None:
        """Arm the silence timer for the heartbeat deadline, unless it
        is armed already: the deadline only moves later, and a timer
        that fires before it re-arms itself."""
        if self._silence_timer is None:
            self._silence_timer = self.sim.schedule(
                self.timings.heartbeat_timeout_ms, self._on_silence
            )

    def _on_silence(self) -> None:
        """Trip the member's detector if its deadline has come, else
        re-arm for the deadline the heartbeats since have moved it to.

        The comparison is ``now >= deadline`` against the very float
        the timer is armed with: the equivalent-looking ``now - last >=
        timeout`` can disagree with it by one ulp, and a timer that
        keeps finding itself a hair early re-arms forever.
        """
        self._silence_timer = None
        if self._dead or self.state != STATE_MEMBER or self.me == self.sequencer:
            return
        deadline = self.last_heartbeat + self.timings.heartbeat_timeout_ms
        if self.sim.now < deadline:
            self._silence_timer = self.sim.schedule(deadline - self.sim.now, self._on_silence)
        else:
            self.fail_group("sequencer heartbeat lost", announce=True, suspect=self.sequencer)

    def _prune_history(self) -> None:
        """Garbage-collect history the group can no longer need.

        Everything strictly below the *floor* may go:

        * the application must still be able to take up to `taken+1`;
        * the sequencer must be able to retransmit anything some
          member has not yet acknowledged (`min(ack_progress)`);
        * a reset coordinator's vote tail starts above its own
          `received`, which commit guarantees is at least `committed`
          for every member — so `committed` bounds what peers may ask
          of us, with HISTORY_MARGIN of slack for stragglers.

        Nothing below the prune mark is held, so only the seqnos from
        the mark up to the new floor are looked at.
        """
        floor = min(self.taken, self.committed - HISTORY_MARGIN)
        if self.me == self.sequencer and self.ack_progress:
            floor = min(floor, min(self.ack_progress.values()))
        if floor > self._pruned:
            history = self.history
            self._forget([s for s in range(self._pruned, floor) if s in history])
            self._pruned = floor

    def _on_hb(self, packet) -> None:
        payload = packet.payload
        if not self._current(payload) or self.state != STATE_MEMBER:
            return
        self._note_heartbeat()
        if payload["next_assign"] - 1 > self.received:
            self._maybe_request_retrans()
        self._note_commit(payload["committed"])
        self._ack("echo")
        self._prune_history()

    # -- failure ----------------------------------------------------------

    def fail_group(self, reason: str, announce: bool = False, suspect=None) -> None:
        """Mark the group failed; every blocked primitive wakes with
        GroupFailure and the application is expected to reset/recover.
        A failure detector names the member it blames as *suspect*."""
        if self.state != STATE_MEMBER:
            return
        self.state = STATE_FAILED
        self.failure_reason = reason
        self.suspect = suspect
        self._c_failures.inc()
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "group", "grp.fail",
                lineage=("life", str(self.me)),
                reason=reason, announce=announce,
                suspect=None if suspect is None else str(suspect),
            )
        if announce:
            self._broadcast("fail", {
                "instance": self.instance, "inc": self.incarnation,
                "reason": reason, "suspect": suspect,
            })
        for pending in list(self.pending_sends.values()):
            self._fail_pending(pending)
        waiters, self.apply_waiters = self.apply_waiters, []
        for _, fut in waiters:
            fut.fail_if_pending(GroupFailure(reason or "group failed"))
        self.wakeup.notify_all()

    def _on_fail(self, packet) -> None:
        payload = packet.payload
        if not self._current(payload):
            return
        self.fail_group(f"peer reported: {payload['reason']}", suspect=payload["suspect"])

    # ------------------------------------------------------------------
    # view changes: join / leave
    # ------------------------------------------------------------------

    def _on_join_req(self, packet) -> None:
        payload = packet.payload
        if self.state != STATE_MEMBER or self.me != self.sequencer:
            return
        joiner = payload["joiner"]
        if joiner in self.view:
            # Re-announce the current view (the joiner's ack was lost).
            self._announce_view(joiner=joiner)
            return
        self.incarnation += 1
        self.view = sorted([*self.view, joiner], key=str)
        self.last_echo[joiner] = self.sim.now
        self.ack_progress.setdefault(joiner, self.committed)
        self._c_joins_admitted.inc()
        self._announce_view(joiner=joiner)
        self._log_view("join")
        self.wakeup.notify_all()

    def _sequencer_remove_member(self, member) -> None:
        """A member's leave, or the sequencer's own (a handover)."""
        self.incarnation += 1
        new_view = [m for m in self.view if m != member]
        if member == self.me:
            # Sequencer hands over to the next member (graceful leave).
            new_sequencer = new_view[0] if new_view else None
            tail_base = min(
                [self.ack_progress.get(m, -1) for m in new_view] + [self.committed]
            )
            self._announce_view(
                view=new_view,
                sequencer=new_sequencer,
                left=member,
                tail=self._held_after(tail_base),
            )
            self.state = STATE_IDLE
            self._log_view("handover", view=new_view, sequencer=new_sequencer)
        else:
            self.view = new_view
            self.ack_progress.pop(member, None)
            self.last_echo.pop(member, None)
            self._announce_view(left=member)
            self._log_view("leave")
            self._advance_commit()
        self.wakeup.notify_all()

    def _on_leave(self, packet) -> None:
        payload = packet.payload
        if not self._current(payload) or self.me != self.sequencer:
            return
        if payload["member"] in self.view:
            self._sequencer_remove_member(payload["member"])

    def _announce_view(
        self,
        view=None,
        sequencer=None,
        joiner=None,
        left=None,
        tail=(),
        prev_instance=None,
    ) -> None:
        """Broadcast a view. A joiner starts at the announced
        ``committed``; a new sequencer assigns from ``next_assign``."""
        self._broadcast(
            "view",
            {
                "instance": self.instance,
                "prev_instance": prev_instance,
                "inc": self.incarnation,
                "view": list(view if view is not None else self.view),
                "sequencer": sequencer if sequencer is not None else self.sequencer,
                "resilience": self.resilience,
                "committed": self.committed,
                "joiner": joiner,
                "left": left,
                "tail": list(tail),
                "next_assign": self.next_assign,
            },
            size=256,
        )

    def _on_view(self, packet) -> None:
        payload = packet.payload
        same_instance = (
            payload.get("instance") == self.instance
            or payload.get("prev_instance") == self.instance
        )
        am_joiner = (
            payload.get("joiner") == self.me
            and self._join_waiter is not None
            and self.state != STATE_MEMBER
        )
        if not same_instance and not am_joiner:
            return
        if same_instance and payload["inc"] <= self.incarnation:
            return
        view = payload["view"]
        if self.me == payload.get("left"):
            self.go_idle()  # our graceful leave completed
            self.wakeup.notify_all()
            return
        if self.me not in view:
            if self.state == STATE_MEMBER and same_instance:
                self.fail_group(f"excluded from view {view}")
            return
        if am_joiner or (same_instance and self.state in (STATE_MEMBER, STATE_FAILED)):
            self._adopt_view(payload)

    def _adopt_view(self, payload: dict) -> None:
        joining = payload["joiner"] == self.me and self.state != STATE_MEMBER
        instance_changed = payload["instance"] != self.instance
        if instance_changed and not joining:  # a reset's view
            self._withdraw_votes((payload["inc"], str(payload["sequencer"])))
        self.instance = payload["instance"]
        self.incarnation = payload["inc"]
        self.view = list(payload["view"])
        self.sequencer = payload["sequencer"]
        self.resilience = payload["resilience"]
        if joining:
            self._rebase(payload["committed"])
        elif instance_changed:
            # A reset formed a new instance: our above-gap speculation
            # from the old one must go before the tail installs, or it
            # would shadow the new instance's records at reused seqnos.
            self._drop_speculation()
        for record in payload["tail"]:
            self._hold(record)
        self._advance_received()
        if payload["committed"] > self.committed:
            self.committed = min(payload["committed"], self.received)
        if self.me == self.sequencer:
            self.next_assign = max(payload["next_assign"], self.received + 1)
        self._c_views.inc()
        self._enter_view("join" if joining else "adopt")
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "group", "grp.view",
                lineage=("life", str(self.me)),
                inc=self.incarnation, members=len(self.view),
                sequencer=str(self.sequencer), joining=joining,
            )
        if joining and self._join_waiter is not None:
            waiter, self._join_waiter = self._join_waiter, None
            waiter.resolve_if_pending(list(self.view))
        self._resubmit()

    def _rebase(self, base: int) -> None:
        """Start the message stream afresh at *base* (create and join)."""
        self.history.clear()
        self._pruned = base + 1
        self.sequenced_ids.clear()
        self._votes_cast = {}
        self.received = self.committed = self.taken = base
        self.next_assign = base + 1
        self._update_backlog()

    def _enter_view(self, trigger: str) -> None:
        """Become a member of the view just installed; every way into a
        view (create, join, adopt, reset) ends here."""
        if self.me == self.sequencer:
            others = [m for m in self.view if m != self.me]
            self.ack_progress = {m: self.ack_progress.get(m, self.committed) for m in others}
            self.last_echo = dict.fromkeys(others, self.sim.now)
        self.state = STATE_MEMBER
        self.failure_reason = ""
        self.suspect = None
        self._promise = (self.incarnation, "")
        self._note_heartbeat()
        self._log_view(trigger)
        if self.me != self.sequencer:
            self._watch_sequencer()
        elif self._ticker is None:
            self._ticker = self.sim.spawn(
                self._tick_loop(), f"grp({self.group}@{self.me}).ticker"
            )

    def _resubmit(self) -> None:
        """Re-send our unfinished sends to the (possibly new) sequencer,
        then resolve those the view's commit horizon already covers."""
        for pending in self.pending_sends.values():
            if not pending.future.resolved:
                self._transmit_request(pending)
        self._after_commit_advance()

    def _drop_speculation(self) -> None:
        """Discard uncommitted above-gap records at an instance boundary.

        A reset restarts seqno assignment at ``received + 1``, so
        records buffered beyond a gap in the *old* instance would
        collide with the new instance's assignments — ``_on_bc`` would
        keep the stale record, and its ``sequenced_ids`` entry would
        let ``_after_commit_advance`` resolve a send against a dead
        message. Dropping them is safe: nothing above the contiguous
        horizon was committed, and senders re-submit unfinished sends
        after every view change.
        """
        self._forget([s for s in self.history if s > self.received])

    # ------------------------------------------------------------------
    # reset (coordinator arbitration + vote collection)
    # ------------------------------------------------------------------

    def begin_reset_round(self, cand_inc: int) -> tuple | None:
        """Try to become reset coordinator at *cand_inc*.

        Returns the coordinator key on success, or None if a stronger
        candidate holds our promise already.
        """
        key = (cand_inc, str(self.me))
        if cand_inc <= self.incarnation or key < self._promise:
            return None
        self._promise = key
        self._reset_key = key
        self.reset_votes = {self.me: (self.received, [])}
        self._broadcast(
            "probe",
            {
                "instance": self.instance,
                "cand_inc": cand_inc,
                "coordinator": self.me,
                "coord_received": self.received,
            },
        )
        return key

    def reset_round_still_mine(self, key: tuple) -> bool:
        """Whether we kept the promise lock for our reset round."""
        return self._reset_key == key and self._promise == key

    def outbid(self, cand_inc: int) -> int:
        """The next candidate incarnation: above *cand_inc* and above
        the candidate that holds our promise."""
        return max(cand_inc, self._promise[0]) + 1

    def _on_probe(self, packet) -> None:
        payload = packet.payload
        if payload.get("instance") != self.instance or self.instance is None:
            return
        cand_inc = payload["cand_inc"]
        coordinator = payload["coordinator"]
        if coordinator == self.me:
            return
        key = (cand_inc, str(coordinator))
        if cand_inc <= self.incarnation or key < self._promise:
            return
        self._promise = key
        if self._reset_key is not None and self._reset_key < key:
            self._reset_key = None  # abandon our own weaker attempt
        self._votes_cast[key] = coordinator
        tail = self._held_after(payload["coord_received"])
        self._send(
            coordinator,
            "vote",
            {
                "instance": self.instance,
                "cand_inc": cand_inc,
                "coordinator": coordinator,
                "member": self.me,
                "received": self.received,
                "tail": tail,
            },
            size=CONTROL_SIZE + sum(r.size for r in tail),
        )

    def _on_vote(self, packet) -> None:
        payload = packet.payload
        if payload.get("instance") != self.instance:
            return
        key = (payload["cand_inc"], str(payload["coordinator"]))
        if payload["coordinator"] != self.me or self._reset_key != key:
            return
        if self.reset_votes is not None:
            self.reset_votes[payload["member"]] = (payload["received"], payload["tail"])
            if self.votes_in():
                self.wakeup.notify_all()

    def votes_in(self) -> bool:
        """Whether our reset round may end before its window: every
        unsuspected member of the failed view has voted. Every
        committed record is held by r + 1 members, so with at most r
        suspects some voter still holds it; a detector names one
        suspect, so that needs r >= 1. With no suspect there is no
        telling who is gone: the round waits out its window."""
        if self.reset_votes is None or self.suspect is None or self.resilience < 1:
            return False
        return all(m in self.reset_votes for m in self.view if m != self.suspect)

    def _withdraw_votes(self, kept: tuple) -> None:
        """We leave this instance for the view of round *kept*: tell the
        coordinator of every other round we voted in. Two coordinators
        that each blame the other need not wait for each other's vote,
        so both may conclude with the same voters; the one whose view
        the voters did not adopt learns it here."""
        for key, coordinator in self._votes_cast.items():
            if key != kept:
                self._send(
                    coordinator,
                    "withdraw",
                    {
                        "instance": self.instance,
                        "cand_inc": key[0],
                        "coordinator": coordinator,
                        "member": self.me,
                    },
                )
        self._votes_cast = {}

    def _on_withdraw(self, packet) -> None:
        """A voter of ours went into another view. A round still open
        stops counting it; a view we formed from its vote is not the
        one it adopted, so ours fails, blaming it."""
        payload = packet.payload
        if payload["coordinator"] != self.me:
            return
        key = (payload["cand_inc"], str(self.me))
        member = payload["member"]
        if self._reset_key == key and payload["instance"] == self.instance:
            self.reset_votes.pop(member, None)
        elif (
            self.instance == ("reset", payload["instance"], *key)
            and member in self.view
        ):
            self.fail_group(
                f"member {member!r} adopted another view", announce=True, suspect=member
            )

    def conclude_reset(self, key: tuple) -> list | None:
        """Form and announce the new view from collected votes.

        Returns the new view, or None if we lost the arbitration.
        """
        votes, self.reset_votes = self.reset_votes, None
        mine = self.reset_round_still_mine(key)
        self._reset_key = None
        if not mine or votes is None:
            return None
        # Merge histories: every record any survivor holds is kept.
        for _, tail in votes.values():
            for record in tail:
                self._hold(record)
        self._advance_received()
        self._drop_speculation()
        self._withdraw_votes(key)
        cand_inc = key[0]
        # A reset forms a NEW group instance: two disjoint survivor
        # sets (e.g. the two sides of a partition) must never produce
        # views whose traffic can be confused after the network heals.
        prev_instance = self.instance
        self.instance = ("reset", prev_instance, cand_inc, str(self.me))
        self.incarnation = cand_inc
        self.view = sorted(votes, key=str)
        self.sequencer = self.me
        self.next_assign = self.received + 1
        # Everything the survivors hold becomes committed: with the old
        # resilience degree, any message that completed a SendToGroup
        # was at every member, so recommitting the union is safe (and
        # every survivor counts as having acked it).
        self.committed = self.received
        self.ack_progress = {}
        self._c_resets.inc()
        self._enter_view("reset")
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                str(self.me), "group", "grp.reset",
                lineage=("life", str(self.me)),
                inc=self.incarnation, survivors=len(self.view),
            )
        base = min(received for received, _ in votes.values())
        self._announce_view(tail=self._held_after(base), prev_instance=prev_instance)
        self._resubmit()
        return list(self.view)

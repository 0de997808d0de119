"""Application-facing group-communication primitives.

:class:`GroupMember` exposes the seven calls of the paper's Fig. 1 as
simulation generators (use with ``yield from`` inside a process):

==================  =====================================================
``create``          CreateGroup — form a new group with only this member
``join``            JoinGroup — become a member of an existing group
``leave``           LeaveGroup — leave gracefully
``send_to_group``   SendToGroup — reliable, totally-ordered multicast
``receive``         ReceiveFromGroup — next message in sequence
``reset``           ResetGroup — rebuild the group after a failure
``info``            GetInfoGroup — group state snapshot (no sim time)
==================  =====================================================

``send_to_group`` returns only when the message is *r-safe*: with the
group's resilience degree ``r``, the message survives any ``r``
processor crashes. ``receive`` raises
:class:`~repro.errors.GroupFailure` when a member or sequencer failure
is detected, after which the application calls ``reset`` (or runs its
recovery protocol, as the directory service does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import GroupFailure, GroupResetFailed, TimeoutError as SimTimeout
from repro.group.kernel import (
    STATE_FAILED,
    STATE_MEMBER,
    BcRecord,
    GroupKernel,
)
from repro.group.timings import (
    JOIN_ATTEMPTS,
    JOIN_TIMEOUT_MS,
    RESET_BACKOFF_MAX_MS,
    RESET_BACKOFF_MIN_MS,
    RESET_ROUNDS,
    RESET_VOTE_WINDOW_MS,
    GroupTimings,
)
from repro.rpc.transport import Transport
from repro.sim.future import Future


@dataclass(frozen=True)
class GroupInfo:
    """Snapshot returned by GetInfoGroup."""

    state: str
    view: tuple
    incarnation: int
    sequencer: Any
    resilience: int
    #: Highest contiguous seqno this kernel holds (buffered messages).
    received: int
    #: Highest seqno known committed (deliverable).
    committed: int
    #: Highest seqno the application has consumed via receive().
    taken: int

    @property
    def buffered(self) -> int:
        """Messages the kernel holds that the app has not consumed.

        This is the quantity the paper's read path checks (Fig. 5): a
        server must apply everything it has *received* before serving
        a read, or a client could miss its own completed write.
        """
        return self.received - self.taken

    @property
    def size(self) -> int:
        return len(self.view)


class GroupMember:
    """One process's handle on one group."""

    def __init__(
        self,
        transport: Transport,
        group: str,
        timings: GroupTimings | None = None,
    ):
        self.transport = transport
        self.sim = transport.sim
        self.group = group
        self.kernel = GroupKernel(transport, group, timings)
        self._applied = None  # the progress counter wait_applied was given

    # -- introspection ------------------------------------------------------

    @property
    def address(self):
        return self.kernel.me

    @property
    def is_member(self) -> bool:
        return self.kernel.state == STATE_MEMBER

    @property
    def is_sequencer(self) -> bool:
        return self.is_member and self.kernel.sequencer == self.kernel.me

    def info(self) -> GroupInfo:
        """GetInfoGroup: a state snapshot. It takes no simulated time,
        but each call allocates a :class:`GroupInfo` and copies the
        view, so per-request and per-poll readers (the directory
        server's read path and cache barrier) read ``kernel.view`` /
        ``kernel.received`` / ``kernel.state`` instead. Only
        ``repro/group/`` writes those fields."""
        k = self.kernel
        return GroupInfo(
            state=k.state,
            view=tuple(k.view),
            incarnation=k.incarnation,
            sequencer=k.sequencer,
            resilience=k.resilience,
            received=k.received,
            committed=k.committed,
            taken=k.taken,
        )

    # -- membership -----------------------------------------------------------

    def create(self, resilience: int = 0) -> None:
        """CreateGroup: start a new group containing only this member."""
        self.kernel.create(resilience)

    def join(self):
        """JoinGroup: broadcast until an existing sequencer admits us.

        Returns the new view; raises GroupFailure when no group
        answered (the caller may then CreateGroup, as the recovery
        protocol in the paper's Fig. 6 does).
        """
        for _ in range(JOIN_ATTEMPTS):
            fut = self.kernel.start_join()
            try:
                view = yield self.sim.timeout(fut, JOIN_TIMEOUT_MS, "join timeout")
                return view
            except SimTimeout:
                continue
        self.kernel.stop_join()
        raise GroupFailure(f"no sequencer answered {JOIN_ATTEMPTS} join broadcasts")

    def leave(self):
        """LeaveGroup: graceful departure (waits for the view change)."""
        self.kernel.announce_leave()
        yield from self.kernel.wakeup.wait_until(
            lambda: self.kernel.state != STATE_MEMBER
        )
        self.kernel.go_idle()

    # -- messaging ----------------------------------------------------------------

    def send_to_group(self, payload: Any, size: int = 128, msg_id: tuple | None = None):
        """SendToGroup: returns the assigned seqno once r-safe.

        *msg_id* lets the application pre-mint the message id (via
        ``kernel.new_msg_id()``) so trace events emitted before the
        submit share the message's lineage.
        """
        seqno = yield self.kernel.submit(payload, size, msg_id=msg_id)
        return seqno

    def receive(self):
        """ReceiveFromGroup: the next message in total order.

        Returns a :class:`BcRecord`; raises GroupFailure when the
        kernel detects a member/sequencer failure (call ``reset``).
        """
        kernel = self.kernel
        while True:
            if kernel.state == STATE_FAILED:
                raise GroupFailure(kernel.failure_reason or "group failed")
            record = self.try_receive()
            if record is not None:
                return record
            yield kernel.wakeup.wait()

    def receive_ready(self, limit: int | None = None) -> list[BcRecord]:
        """Drain every currently deliverable message without blocking.

        Returns the (possibly empty) list of records that were already
        committed and buffered, in total order — the group-commit
        batching hook: after a blocking :meth:`receive` returns the
        head of a burst, the application grabs the rest of the burst
        here and persists the whole batch in one storage operation.
        It may be called any number of times per :meth:`receive` (the
        directory server tops its batch up until this returns
        nothing); seqnos replayed after a view change are handed
        over like any other, for the caller to skip. *limit* bounds
        the drain (``None`` = everything deliverable). Costs zero
        simulated time and never raises — on a failed group it
        returns nothing, and the next ``receive`` reports the failure.
        """
        batch: list[BcRecord] = []
        while limit is None or len(batch) < limit:
            record = self.try_receive()
            if record is None:
                break
            batch.append(record)
        return batch

    def try_receive(self) -> BcRecord | None:
        """Non-blocking receive; None when nothing is deliverable."""
        return self.kernel.take()

    # -- reset ------------------------------------------------------------------

    def reset(self):
        """ResetGroup: rebuild from surviving members after a failure.

        Returns the new view. Concurrent resetters arbitrate by
        (incarnation, address); losers adopt the winner's view. Raises
        GroupResetFailed when no view forms within ``RESET_ROUNDS``.
        """
        kernel = self.kernel
        rng = self.sim.rng.stream(f"grp.reset.{kernel.me}")
        cand_inc = kernel.incarnation + 1
        for _ in range(RESET_ROUNDS):
            if kernel.state == STATE_MEMBER:
                return list(kernel.view)  # someone else's reset included us
            key = kernel.begin_reset_round(cand_inc)
            if key is not None:
                # The vote window, or less: until every unsuspected
                # member has voted or a view reaches us.
                yield from self._await(
                    lambda: kernel.state == STATE_MEMBER or kernel.votes_in(),
                    RESET_VOTE_WINDOW_MS,
                    "reset vote window",
                )
                if kernel.state == STATE_MEMBER:
                    return list(kernel.view)
                view = kernel.conclude_reset(key)
                if view is not None:
                    return view
            # A stronger candidate holds our promise — from the start,
            # or it pre-empted us inside our vote window. Its window is
            # still open: out-bidding it now would land a probe on it
            # just as it concludes. Wait for its view instead; only if
            # none comes (it died too) do we bid again, higher.
            yield from self._await(
                lambda: kernel.state == STATE_MEMBER,
                RESET_VOTE_WINDOW_MS
                + rng.uniform(RESET_BACKOFF_MIN_MS, RESET_BACKOFF_MAX_MS),
                "reset backoff",
            )
            cand_inc = kernel.outbid(cand_inc)
        if kernel.state == STATE_MEMBER:
            return list(kernel.view)
        raise GroupResetFailed(
            f"reset of group {self.group!r} failed after {RESET_ROUNDS} rounds"
        )

    def _await(self, done, bound_ms: float, what: str):
        """Sleep until ``done()`` holds, at most *bound_ms*. The kernel
        notifies its wakeup whenever a view reaches it or a reset
        round's votes are all in."""
        kernel = self.kernel
        deadline = self.sim.now + bound_ms
        while not done() and self.sim.now < deadline:
            try:
                yield self.sim.timeout(kernel.wakeup.wait(), deadline - self.sim.now, what)
            except SimTimeout:
                return

    # -- waiting helpers (used by the directory server's read path) -----------

    def wait_applied(self, target_seqno: int, applied: "callable"):
        """Block until ``applied() >= target_seqno`` or the group fails.

        *applied* is the application's own progress counter (the
        directory server's last-applied kernel seqno). The application
        must call :meth:`notify_progress` after advancing it; a group
        failure fails the wait with :class:`GroupFailure`. Mirrors the
        ``wait until seqno = buffered_seqno`` step of Fig. 5.
        """
        if applied() >= target_seqno:
            return
        kernel = self.kernel
        if kernel.state == STATE_FAILED:
            raise GroupFailure(kernel.failure_reason or "group failed")
        self._applied = applied
        entry = (target_seqno, Future("wait_applied"))
        kernel.apply_waiters.append(entry)
        try:
            yield entry[1]
        except GeneratorExit:  # killed while parked: the entry goes too
            if entry in kernel.apply_waiters:
                kernel.apply_waiters.remove(entry)
            raise

    def notify_progress(self) -> None:
        """Resume the :meth:`wait_applied` callers whose target is reached,
        in registration order (call after applying a received message).
        Most applies reach no waiter's target: they pay one pass."""
        kernel = self.kernel
        waiters = kernel.apply_waiters
        if waiters:
            applied = self._applied()
            ready = [fut for target, fut in waiters if target <= applied]
            if ready:
                kernel.apply_waiters = [e for e in waiters if e[0] > applied]
                for fut in ready:
                    fut.resolve_if_pending()

    def crash(self) -> None:
        """Tear down with the machine (kills the kernel ticker)."""
        self.kernel.crash()

"""Reliable, totally-ordered group communication (Amoeba-style).

This package implements the primitives of the paper's Fig. 1 —
CreateGroup, JoinGroup, LeaveGroup, SendToGroup, ReceiveFromGroup,
ResetGroup, GetInfoGroup — using the sequencer-based ("PB method")
protocol of Kaashoek & Tanenbaum (1991):

* a member sends its message point-to-point to the current
  **sequencer**;
* the sequencer assigns the next global sequence number and
  *multicasts* the message (one frame on the wire);
* with resilience degree ``r > 0``, members acknowledge receipt and
  the sequencer only **commits** (allows delivery of) a message once
  ``r`` other members hold it, so the message survives any ``r``
  processor failures;
* gaps are repaired by retransmission requests; sequencer heartbeats
  carry the commit horizon and double as the failure detector.

A ``SendToGroup`` with ``r = 2`` in a three-member group costs five
packets (request, multicast, two acks, commit) — the exact count the
paper's section 3.1 analysis uses.

Failures surface as :class:`~repro.errors.GroupFailure` from the send
and receive primitives; the application then calls ``reset`` to
rebuild the group from the surviving members (two-phase, coordinator
arbitrated), or runs its own recovery if the reset cannot reach the
quorum it needs.
"""

from repro.group.kernel import GroupKernel
from repro.group.member import GroupInfo, GroupMember
from repro.group.timings import GroupTimings

__all__ = [
    "GroupInfo",
    "GroupKernel",
    "GroupMember",
    "GroupTimings",
]

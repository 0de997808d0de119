"""Protocol timing knobs for the group layer."""

from __future__ import annotations

from dataclasses import dataclass

#: Retransmission attempts before a sender declares group failure.
SEND_RETRIES = 3
#: A sender retransmits its request if not sequenced within this time.
SEND_RETRY_MS = 60.0
#: How long one join broadcast waits for a sequencer's answer.
JOIN_TIMEOUT_MS = 40.0
#: Join broadcast attempts before JoinGroup gives up.
JOIN_ATTEMPTS = 3
#: Reset rounds before ResetGroup gives up.
RESET_ROUNDS = 8
#: The longest a reset coordinator collects votes before forming a view
#: (it stops sooner once every unsuspected member has voted).
RESET_VOTE_WINDOW_MS = 25.0
#: Backoff bounds before a losing reset coordinator retries.
RESET_BACKOFF_MIN_MS = 10.0
RESET_BACKOFF_MAX_MS = 40.0


@dataclass
class GroupTimings:
    """The group-protocol timeouts a deployment may tune, in
    simulated milliseconds (the module constants above are fixed).

    The defaults suit the paper's LAN: packet latency well under a
    millisecond, so tens of milliseconds of silence mean trouble.
    Recovery benchmarks vary these to study detection-latency
    trade-offs.
    """

    #: Sequencer heartbeat period (heartbeats carry the commit horizon).
    heartbeat_interval_ms: float = 25.0
    #: A member declares the sequencer dead after this much heartbeat
    #: silence, and the sequencer a member after this much echo silence.
    heartbeat_timeout_ms: float = 120.0

"""The recovery protocol of the group directory service (Fig. 6).

A server runs recovery when it boots (fresh or after a crash) and when
its group loses the majority. The protocol, following the paper:

1. **(Re)join** the server group, or create it if no sequencer
   answers.
2. **Wait** until the group holds a majority of the configured
   servers; on timeout, leave and start over (two minority groups may
   have formed on both sides of a partition — neither may proceed).
3. **Skeen's algorithm**: exchange mourned sets and sequence numbers
   with every group member over RPC. The *last set* (all servers
   minus the union of mourned sets) is the set of servers that may
   have performed the latest update; unless it is a subset of the new
   group, recovery must wait for its members — except under the §3.2
   *improved rule*: a server that never went down and holds the
   highest sequence number cannot have missed an update, so it may
   proceed (no majority existed while it was failed, hence no updates
   happened).
4. **State transfer** from the member with the highest sequence
   number, installed by the store in one write-out; the *recovering*
   flag is set in the commit block for the duration, so a crash
   mid-transfer is detected at next boot (such a server reports
   sequence number zero — a pass the power cut persists a prefix, so
   its state may be a mixture).
5. Write the final commit block (new configuration vector, recovering
   cleared) and enter normal operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    GroupFailure,
    GroupResetFailed,
    LocateError,
    RpcError,
    ServiceDown,
)

# Timeouts of the Fig. 6 recovery protocol (simulated ms).
#: Poll interval while waiting for a majority to assemble.
POLL_MS = 20.0
#: How long to wait for a majority before leaving and retrying.
MAJORITY_WAIT_MS = 400.0
#: Backoff bounds between recovery attempts.
BACKOFF_MIN_MS = 40.0
BACKOFF_MAX_MS = 120.0
#: RPC timeout for the mourned-set/seqno exchange.
EXCHANGE_TIMEOUT_MS = 200.0
#: RPC timeout for the state transfer (snapshots can be big).
TRANSFER_TIMEOUT_MS = 30_000.0


@dataclass
class RecoveryOutcome:
    """What one successful recovery did (metrics for bench E7)."""

    rounds: int
    donor: object
    transferred_dirs: int
    applied_kernel: int
    duration_ms: float
    used_improved_rule: bool


def run_recovery(server):
    """Run Fig. 6 to completion for *server* (``yield from``).

    Returns a :class:`RecoveryOutcome`; loops until recovery succeeds.
    """
    sim = server.sim
    cfg = server.config
    rng = sim.rng.stream(f"dir.recovery.{server.me}")
    started = sim.now

    if not getattr(server, "_admin_loaded", False):
        yield from server.admin.load()
        server._admin_loaded = True
        # The crashed-during-recovery rule applies to the disk as
        # found at boot; capture it once (the flag may be set again
        # by our own transfer below without zeroing our claim).
        server.boot_seqno = server.admin.highest_seqno()

    tracer = sim.obs.tracer

    def trace_phase(phase: str, **args) -> None:
        if tracer.enabled:
            tracer.emit(str(server.me), "dir", "dir.recover.phase",
                        phase=phase, round=rounds, **args)

    rounds = 0
    used_improved_rule = False
    joined_fresh = False
    while True:
        rounds += 1

        # -- Phase 1: rejoin the server group, or create it ------------
        trace_phase("join")
        member = server.member
        if not member.is_member:
            member.kernel.go_idle()
            # A join (unlike a reset) truncates kernel history to the
            # sequencer's floor and re-bases our delivery horizon; if
            # we carried applied state in, its continuity with what the
            # group will deliver next is now suspect (phase 4 cares).
            joined_fresh = True
            try:
                yield from member.join()
            except GroupFailure:
                member.create(cfg.resilience)

        # -- Phase 2: wait for a majority -------------------------------
        deadline = sim.now + MAJORITY_WAIT_MS
        while sim.now < deadline and server.members_present() < cfg.majority:
            yield sim.sleep(POLL_MS)
            if member.info().state == "failed":
                try:
                    yield from member.reset()
                except GroupResetFailed:
                    break
        override = getattr(server, "_admin_override", False)
        if (
            server.members_present() < cfg.majority and not override
        ) or not member.is_member:
            yield from _leave_quietly(server)
            yield sim.sleep(
                rng.uniform(BACKOFF_MIN_MS, BACKOFF_MAX_MS)
            )
            continue

        # -- Phase 3: Skeen's algorithm ---------------------------------
        trace_phase("exchange")
        my_seqno = server.best_known_seqno()
        mourned = set(server.mourned_set())
        newgroup = {server.me}
        seqnos = {server.me: my_seqno}
        operational_peers = set()
        peers = [a for a in member.info().view if a != server.me]
        for peer in peers:
            try:
                reply = yield from server.rpc_client.trans(
                    cfg.recovery_port(peer),
                    {"op": "exchange"},
                    reply_timeout_ms=EXCHANGE_TIMEOUT_MS,
                )
            except (RpcError, LocateError):
                continue
            newgroup.add(peer)
            seqnos[peer] = reply["seqno"]
            mourned |= set(reply["mourned"])
            if reply.get("operational"):
                operational_peers.add(peer)
        last_set = set(cfg.server_addresses) - mourned
        proceed = last_set <= newgroup
        if override:
            # §3.1's administrator escape: the operator asserts that
            # the missing servers' data is gone for good.
            proceed = True
        if not proceed and cfg.improved_recovery_rule and server.stayed_up:
            # §3.2: we stayed up the whole time; while the group lacked
            # a majority nobody performed updates, so if our sequence
            # number is the highest we cannot be missing anything.
            if seqnos[server.me] >= max(seqnos.values()):
                proceed = True
                used_improved_rule = True
        if not proceed:
            # Wait for members of the last set to come back, then retry.
            yield sim.sleep(
                rng.uniform(BACKOFF_MIN_MS, BACKOFF_MAX_MS)
            )
            continue

        # -- Phase 4: state transfer from the freshest member -----------
        donor = max(seqnos, key=lambda a: (seqnos[a], str(a)))
        info = member.info()
        # A fresh join re-bases our delivery horizon at the
        # sequencer's floor: joining at a non-genesis base leaves a
        # *blind span* of the group's history this kernel will never
        # see delivered. Likewise, state applied before the join may
        # belong to a stream the rejoined kernel no longer vouches
        # for (after a group re-formation the numbers can even line
        # up while naming different records). Either way, neither our
        # own image nor a recovering peer's can certify the current
        # stream — only an operational member can: it is applying the
        # live instance, and get_state makes it wait until it has
        # applied our committed horizon, so redirecting to it cannot
        # lose updates.
        blind_join = joined_fresh and info.taken > -1
        stream_suspect = server._state_loaded and (
            joined_fresh or info.taken > server._applied_kernel
        )
        if blind_join or stream_suspect:
            candidates = operational_peers & set(seqnos)
            if candidates:
                if donor not in candidates:
                    donor = max(candidates, key=lambda a: (seqnos[a], str(a)))
            elif blind_join or info.taken > server._applied_kernel:
                # Records exist that nobody reachable can vouch for:
                # back off and retry until a member that holds them
                # finishes its own recovery and turns operational.
                yield sim.sleep(
                    rng.uniform(BACKOFF_MIN_MS, BACKOFF_MAX_MS)
                )
                continue
            # else: fresh join at the group's genesis with no
            # operational member anywhere — the whole group is
            # re-forming and redelivery from the base covers the
            # stream; proceed from the freshest image (the paper's
            # re-formation case: state comes from the best disk).
        trace_phase("transfer", donor=str(donor),
                    improved_rule=used_improved_rule)
        transferred = 0
        applied_kernel = member.info().taken
        if donor == server.me:
            yield from server.load_state()
        else:
            try:
                reply = yield from server.rpc_client.trans(
                    cfg.recovery_port(donor),
                    {"op": "get_state", "min_kernel": member.info().committed},
                    reply_timeout_ms=TRANSFER_TIMEOUT_MS,
                )
            except (RpcError, LocateError, ServiceDown):
                # ServiceDown: the donor's own group failed while it
                # served the transfer — retry the round like any other
                # transfer failure.
                yield sim.sleep(
                    rng.uniform(BACKOFF_MIN_MS, BACKOFF_MAX_MS)
                )
                continue
            # The install is one arm pass, but a pass the power cuts
            # leaves some directories new and some old (and the NVRAM
            # store flushes again before the seal): mark the commit
            # block so a crash here is detected at the next boot (the
            # paper's recovering flag).
            new_state = type(server.state).from_snapshot(cfg.port, reply["snapshot"])
            server._installing = True
            try:
                yield from server.admin.write_commit_block(recovering=True)
                transferred = yield from server.store.install(
                    new_state, reply["entry_seqnos"]
                )
                server.adopt_state(new_state)
            finally:
                server._installing = False
            if reply.get("operational"):
                # The donor applied the live instance's stream, so its
                # horizon is in our numbering: fast-forward past the
                # history its snapshot already covers.
                applied_kernel = max(applied_kernel, reply["applied_kernel"])
                member.kernel.skip_delivered(applied_kernel)
            # A recovering donor's horizon may refer to an earlier
            # instance; leave our delivery base alone and let
            # redelivery (session-deduplicated) close the overlap.

        # -- Seal: final commit block, back to normal operation ---------
        yield from server.store.seal(server.config_vector())
        return RecoveryOutcome(
            rounds=rounds,
            donor=donor,
            transferred_dirs=transferred,
            applied_kernel=applied_kernel,
            duration_ms=sim.now - started,
            used_improved_rule=used_improved_rule,
        )


def _leave_quietly(server):
    """Abandon the current (minority) group and go idle."""
    member = server.member
    if member.is_member:
        member.kernel.announce_leave()
        yield server.sim.sleep(10.0)
    member.kernel.go_idle()

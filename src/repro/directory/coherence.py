"""Server half of client cache coherence (docs/PROTOCOL.md).

Each replica runs one :class:`CoherenceManager`. The protocol in one
paragraph: a replica grants a *read lease* to each client it answers a
:class:`~repro.directory.operations.CoherentLookup` for, remembering
the client address until the lease expires. Because every replica
applies every write in the same total order (the sequencer stream),
each replica can invalidate *its own* leased clients as it applies:
on apply it pushes a ``cache.inval`` record — the write's update
seqno plus the ``(object, name)`` keys it dirties — to every leased
client, and tracks the outstanding acknowledgements. A replica's
**clean seqno** is the highest update seqno such that every
invalidation at or below it has been acknowledged (or the lease of
the unresponsive client has expired). Replicas exchange clean seqnos
(``cache.clean``, pushed eagerly on advance and re-sent every
``CLEAN_EXCHANGE_MS`` in case of loss), and the initiator of a
write holds the client's reply until every replica in the current
view reports clean ≥ the write's seqno — the *write barrier*.

Why this is linearizable: a cached entry can only serve a stale value
for a write W during the window between W's apply and the eviction
ack — and in that window W's reply is still held by the barrier, so W
has not completed and the stale read legally linearizes before it.
Once W's initiator replies, every lease-holding client has evicted.

View changes: a replica that drops out of the view can no longer
invalidate its leased clients, and its clean seqno leaves the
barrier. Writes are therefore *fenced* for ``cache_lease_ms +
FENCE_SLACK_MS`` after a membership loss is observed — by then
every lease the departed replica could have granted has expired (the
slack covers failure-detection lag, the same residual window as the
paper's §3.1 minority-read argument; clients recompute expiry from
their request's *send* time, so a client never believes its lease
outlives the server's grant).
"""

from __future__ import annotations

from repro.errors import NoMajority

#: Transport frame kinds (all unicast, outside the RPC state machine).
KIND_INVAL = "cache.inval"
KIND_INVACK = "cache.invack"
KIND_CLEAN = "cache.clean"

#: Poll interval of the write barrier (simulated ms). Acks and clean
#: exchanges arrive as ordinary frames; the barrier just re-checks.
BARRIER_POLL_MS = 1.0
#: Period of the coherence housekeeping sweep: lease expiry and
#: clean-seqno exchange between replicas (simulated ms).
CLEAN_EXCHANGE_MS = 50.0
#: Extra margin added to the view-change write fence beyond
#: ``cache_lease_ms``, covering the failure-detection lag during
#: which a replica outside the new view may still have been
#: granting leases (same residual window as the paper's §3.1
#: minority-read argument).
FENCE_SLACK_MS = 500.0


class CoherenceManager:
    """Leases, invalidations and the write barrier for one replica."""

    def __init__(self, server):
        self.server = server
        self.sim = server.sim
        self.config = server.config
        self.transport = server.transport
        #: client address -> lease expiry (simulated ms).
        self.leases: dict = {}
        #: update seqno -> client addresses that have not acked yet.
        self.pending: dict[int, set] = {}
        #: peer server address -> last clean seqno it reported.
        self.peer_clean: dict = {}
        #: Writes may not complete before this time (view-change fence).
        self.fence_until = 0.0
        self._last_members: frozenset | None = None
        self._clean_sent = -1
        registry = self.sim.obs.registry
        node = str(server.me)
        self._obs = self.sim.obs
        self._g_leases = registry.gauge(node, "cache.leases")
        self._c_invals = registry.counter(node, "cache.invals_sent")
        self._c_acks = registry.counter(node, "cache.inval_acks")
        self._c_lease_expiries = registry.counter(node, "cache.lease_expiries")
        self._c_fences = registry.counter(node, "cache.fences")
        self._h_barrier = registry.histogram(node, "cache.write_barrier_ms")
        self.transport.register(KIND_INVACK, self._on_invack)
        self.transport.register(KIND_CLEAN, self._on_clean)

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------

    def grant_lease(self, client) -> float:
        """Grant/renew *client*'s read lease; returns its duration."""
        self.leases[client] = self.sim.now + self.config.cache_lease_ms
        self._g_leases.set(len(self.leases))
        return self.config.cache_lease_ms

    def _expire_leases(self) -> None:
        now = self.sim.now
        expired = [c for c, expiry in self.leases.items() if expiry <= now]
        if not expired:
            return
        for client in expired:
            del self.leases[client]
        self._c_lease_expiries.inc(len(expired))
        self._g_leases.set(len(self.leases))
        # An expired lease counts as acknowledged: the client's own
        # clock (measured from its request send time, which cannot be
        # later than our grant) has already forced it to stop serving
        # from cache.
        doomed = []
        for seqno, waiting in self.pending.items():
            waiting.difference_update(expired)
            if not waiting:
                doomed.append(seqno)
        for seqno in doomed:
            del self.pending[seqno]
        if doomed:
            self._push_clean()

    # ------------------------------------------------------------------
    # invalidation (called by the group thread at each apply)
    # ------------------------------------------------------------------

    def note_apply(self, useqno: int, keys, lineage=None) -> None:
        """A write with update seqno *useqno* just applied locally.

        Push its invalidation record to every leased client and track
        the outstanding acks. With no keys (reads never get here;
        CreateDir and deterministic failures dirty nothing) or no
        leases, the apply is immediately clean.
        """
        if keys:
            self._expire_leases()
            if self.leases:
                payload = {
                    "server": self.server.me,
                    "seqno": useqno,
                    "keys": list(keys),
                }
                size = 64 + 24 * len(keys)
                for client in self.leases:
                    self.transport.send(client, KIND_INVAL, payload, size)
                self.pending[useqno] = set(self.leases)
                self._c_invals.inc(len(self.leases))
                if self._obs.tracer.enabled:
                    self._obs.tracer.emit(
                        str(self.server.me), "cache", "cache.inval.send",
                        lineage=lineage, seqno=useqno,
                        keys=len(keys), clients=len(self.leases),
                    )
                return
        # Nothing outstanding for this seqno: the clean horizon may
        # have advanced, so let the peers know without waiting for the
        # periodic exchange.
        self._push_clean()

    def clean_seqno(self) -> int:
        """Highest update seqno with no outstanding invalidations."""
        if self.pending:
            return min(self.pending) - 1
        return self.server.state.update_seqno

    # ------------------------------------------------------------------
    # frame handlers (sync callbacks inside the delivery event)
    # ------------------------------------------------------------------

    def _on_invack(self, packet) -> None:
        if not self.server.alive:
            return
        payload = packet.payload
        seqno = payload["seqno"]
        self._c_acks.inc()
        waiting = self.pending.get(seqno)
        if waiting is None:
            return
        waiting.discard(payload["client"])
        if not waiting:
            del self.pending[seqno]
            self._push_clean()

    def _on_clean(self, packet) -> None:
        if not self.server.alive:
            return
        payload = packet.payload
        previous = self.peer_clean.get(payload["server"], -1)
        if payload["seqno"] > previous:
            self.peer_clean[payload["server"]] = payload["seqno"]

    def _push_clean(self, force: bool = False) -> None:
        clean = self.clean_seqno()
        if not force and clean == self._clean_sent:
            return
        self._clean_sent = clean
        payload = {"server": self.server.me, "seqno": clean}
        for address in self.config.server_addresses:
            if address != self.server.me:
                self.transport.send(address, KIND_CLEAN, payload, 64)

    # ------------------------------------------------------------------
    # the write barrier
    # ------------------------------------------------------------------

    def observe_view(self) -> None:
        """Fence writes when a replica leaves the current view."""
        if not self.server.member.is_member:
            return
        view = self.server.member.kernel.view
        members = frozenset(
            a for a in self.config.server_addresses if a in view
        )
        if self._last_members is not None:
            departed = self._last_members - members
            if departed:
                fence = (
                    self.sim.now
                    + self.config.cache_lease_ms
                    + FENCE_SLACK_MS
                )
                if fence > self.fence_until:
                    self.fence_until = fence
                    self._c_fences.inc()
                    if self._obs.tracer.enabled:
                        self._obs.tracer.emit(
                            str(self.server.me), "cache", "cache.fence",
                            lineage=("life", str(self.server.me)),
                            departed=[str(a) for a in sorted(departed, key=str)],
                            until=round(fence, 3),
                        )
                # The departed replica's clean report is stale the
                # moment it leaves; drop it so a rejoin starts fresh.
                for address in departed:
                    self.peer_clean.pop(address, None)
        self._last_members = members

    def _barrier_seqno(self) -> int:
        """min(own clean, every view peer's reported clean)."""
        view = self.server.member.kernel.view
        clean = self.clean_seqno()
        for address in self.config.server_addresses:
            if address == self.server.me or address not in view:
                continue
            peer = self.peer_clean.get(address, -1)
            if peer < clean:
                clean = peer
        return clean

    def wait_clean(self, target: int):
        """Hold a write's reply until the barrier covers *target*.

        ``yield from`` from the initiator's server thread. Returns
        normally once every replica in the current view has reported
        clean ≥ *target* and no view-change fence is active; raises
        :class:`NoMajority` when the server is without a majority —
        which includes the length of a group reset: the caller rides
        that out and, if the majority survived, calls again.
        """
        started = self.sim.now
        while True:
            self._expire_leases()
            self.observe_view()
            if self.sim.now >= self.fence_until and self._barrier_seqno() >= target:
                self._h_barrier.observe(self.sim.now - started)
                return
            if not self.server.alive or not self.server.has_majority():
                raise NoMajority(
                    "majority lost while write waited on the cache barrier"
                )
            yield self.sim.sleep(BARRIER_POLL_MS)

    # ------------------------------------------------------------------
    # housekeeping sweep
    # ------------------------------------------------------------------

    def sweeper(self):
        """Periodic lease expiry + clean re-broadcast (loss repair)."""
        while self.server.alive:
            yield self.sim.sleep(CLEAN_EXCHANGE_MS)
            if not self.server.operational:
                continue
            self._expire_leases()
            self.observe_view()
            self._push_clean(force=True)

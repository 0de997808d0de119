"""Client-side API of the directory service.

A :class:`DirectoryClient` wraps an RPC client and the service's
public port. Any of the four server implementations answers the same
requests, so benchmarks and examples drive them all through this one
class. All methods are simulation generators: call with
``yield from`` inside a process.

Server selection follows Amoeba's locate heuristic (first HEREIS
responder, NOTHERE fail-over) — the behaviour whose load-balancing
imperfection shapes the throughput curves of the paper's Fig. 8.
"""

from __future__ import annotations

from repro.amoeba.capability import Capability, Port
from repro.directory.cache import MISS, LookupCache
from repro.directory.coherence import KIND_INVACK, KIND_INVAL
from repro.directory.model import DEFAULT_COLUMNS
from repro.directory.operations import (
    AppendRow,
    ChmodRow,
    CoherentLookup,
    CreateDir,
    DeleteDir,
    DeleteRow,
    DirectoryOp,
    ListDir,
    LookupSet,
    ReplaceSet,
    SessionOp,
)
from repro.errors import LocateError, NoMajority, RpcError, ServiceDown
from repro.rpc.client import RpcClient, RpcTimings
from repro.rpc.transport import Transport

#: Rounds of end-to-end resends a retry-safe client performs on top of
#: the RPC layer's own fail-over attempts (total RPC-layer requests =
#: 1 initial send + this many resends; see _request_retry_safe).
RETRY_SAFE_ROUNDS = 3

#: CPU cost charged for a lookup served from the local cache
#: (simulated ms) — a hash probe, not an RPC. Non-zero so cache-hit
#: loops still yield to the event loop every iteration.
CACHE_HIT_COST_MS = 0.01


class DirectoryClient:
    """One client machine's handle on a directory service.

    With ``retry_safe=True`` every mutating operation is stamped with
    ``(client_id, session_seqno)`` and wrapped in a
    :class:`~repro.directory.operations.SessionOp`; the servers'
    session tables then make blind resends safe (exactly-once
    semantics), so the client retries RPC-level failures — including
    reply timeouts, where the first attempt may have committed —
    instead of surfacing them.
    """

    def __init__(
        self,
        transport: Transport,
        port: Port,
        timings: RpcTimings | None = None,
        retry_safe: bool = False,
        cache_size: int = 0,
        cache_nocoherence: bool = False,
    ):
        self.transport = transport
        self.port = port
        self.rpc = RpcClient(transport, timings or RpcTimings())
        self.operations_sent = 0
        self.retry_safe = retry_safe
        self.client_id = str(transport.address)
        self._session_seqno = 0
        self.resends = 0  # end-to-end resends actually used
        # Coherent lookup cache (docs/PROTOCOL.md "Client cache
        # coherence"). cache_size=0 (the default) keeps this client
        # byte-identical to one predating the cache: lookups go out as
        # plain LookupSet, no handler registers, no cache.* frame ever
        # appears on the wire. With a cache, lookups go out as
        # CoherentLookup, replies grant per-replica leases, and the
        # servers push invalidations which we must acknowledge.
        self.cache: LookupCache | None = None
        self.cache_served = 0  # lookup_set calls answered locally
        self.last_lookup_from_cache = False
        #: Per-replica lease expiry, computed from the *send* time of
        #: the request whose reply granted it (send ≤ grant, so we
        #: always expire no later than the server thinks we do).
        self._server_leases: dict = {}
        #: Highest invalidation seqno ever received: a reply whose
        #: epoch is older must not fill the cache (its values may
        #: predate an already-acknowledged invalidation).
        self._inval_floor = -1
        #: When False (the chaos suite's cache_nocoherence control and
        #: nothing else), invalidations are acknowledged but *ignored*
        #: — the client keeps serving doomed entries, which the
        #: extended linearizability checker must flag as stale reads.
        self._coherent = not cache_nocoherence
        if cache_size > 0:
            sim = transport.sim
            self.cache = LookupCache(
                cache_size,
                registry=sim.obs.registry,
                node=str(transport.address),
            )
            self._obs = sim.obs
            transport.register(KIND_INVAL, self._on_cache_inval)

    # -- raw request ------------------------------------------------------

    def request(
        self,
        op: DirectoryOp,
        reply_timeout_ms: float | None = None,
        spread: bool = False,
    ):
        """Send one operation and return the server's result.

        *spread* routes the request to a deterministically-random
        cached server instead of the first-HEREIS pin; only coherent
        lookups use it (cache-off clients keep the Fig. 8 heuristic
        bit-for-bit).
        """
        self.operations_sent += 1
        if self.retry_safe and not op.is_read:
            result = yield from self._request_retry_safe(op, reply_timeout_ms)
            return result
        result = yield from self.rpc.trans(
            self.port,
            op,
            size=op.wire_size(),
            reply_timeout_ms=reply_timeout_ms,
            spread=spread,
        )
        return result

    def _request_retry_safe(
        self, op: DirectoryOp, reply_timeout_ms: float | None
    ):
        """Wrap *op* in a session envelope and resend until it lands.

        The same ``(client_id, session_seqno)`` stamp is reused across
        resends, so a server that already applied the operation
        answers from its reply cache instead of applying it twice.
        Definitive directory errors (AlreadyExists, NotFound, ...)
        propagate immediately; ServiceDown and NoMajority do *not*
        count as definitive — a replica whose group reset ends without
        a majority answers ServiceDown for updates that may already be
        r-safe — so they are retried like any lost reply. (A reset
        that *keeps* the majority surfaces nothing: the replica holds
        the request and carries on with it.)

        Round accounting (made explicit after the historical
        off-by-one): the RPC layer is asked ``1 + RETRY_SAFE_ROUNDS``
        times — one initial send plus ``RETRY_SAFE_ROUNDS`` resends —
        and *every* failed attempt is followed by one jittered backoff sleep,
        including the last. A reply timeout means the operation may
        still commit server-side, so the final backoff lets in-flight
        applies land before we surface the ambiguous RpcError to the
        caller (previously the final round's failure consumed no
        sleep, and the round count silently meant "total attempts").
        """
        self._session_seqno += 1
        wrapped = SessionOp(op, self.client_id, self._session_seqno)
        last_error: Exception | None = None
        attempts = 1 + RETRY_SAFE_ROUNDS
        for attempt in range(attempts):
            if attempt:
                self.resends += 1
            try:
                result = yield from self.rpc.trans(
                    self.port,
                    wrapped,
                    size=wrapped.wire_size(),
                    reply_timeout_ms=reply_timeout_ms,
                )
                return result
            except (RpcError, LocateError, ServiceDown, NoMajority) as failure:
                last_error = failure
                yield self.sim_sleep_backoff(attempt + 1)
        raise RpcError(
            f"retry-safe request {op!r} failed after {attempts} attempts "
            f"({RETRY_SAFE_ROUNDS} resends): {last_error!r}"
        )

    def sim_sleep_backoff(self, round_no: int):
        """Deterministic jittered pause between end-to-end resends."""
        sim = self.transport.sim
        delay = min(2000.0, 100.0 * 2.0**round_no) * sim.rng.uniform(
            f"dir.client.retry.{self.client_id}", 0.5, 1.5
        )
        return sim.sleep(delay)

    # -- Fig. 2 operations ---------------------------------------------------

    def create_dir(self, columns=DEFAULT_COLUMNS):
        """Create a directory; returns its owner capability."""
        cap = yield from self.request(CreateDir(columns=tuple(columns)))
        return cap

    def delete_dir(self, cap: Capability, force: bool = False):
        """Delete a directory (must be empty unless *force*)."""
        result = yield from self.request(DeleteDir(cap, force))
        return result

    def list_dir(self, cap: Capability):
        """Rows visible through *cap*'s column mask."""
        rows = yield from self.request(ListDir(cap))
        return rows

    def append_row(self, cap: Capability, name: str, capabilities):
        """Add a (name, capabilities) row."""
        result = yield from self.request(AppendRow(cap, name, tuple(capabilities)))
        return result

    def chmod_row(self, cap: Capability, name: str, column_mask: int, capabilities):
        """Change the protection columns of a row."""
        result = yield from self.request(
            ChmodRow(cap, name, column_mask, tuple(capabilities))
        )
        return result

    def delete_row(self, cap: Capability, name: str):
        """Remove a row."""
        result = yield from self.request(DeleteRow(cap, name))
        return result

    def lookup_set(self, items):
        """Look up a set of (dir capability, name) pairs.

        With a cache (``cache_size > 0``) the whole set is served
        locally iff every pair is cached under a current replica
        lease; otherwise one :class:`CoherentLookup` goes remote (to a
        spread-chosen replica) and the reply refills the cache. With
        no cache this is exactly the pre-cache wire behaviour.
        """
        items = tuple(items)
        if self.cache is None:
            results = yield from self.request(LookupSet(items))
            return results
        results = yield from self._lookup_coherent(items)
        return results

    def _lookup_coherent(self, items, one: bool = False):
        """:meth:`lookup_set` through the cache; with *one*, the single
        pair's result instead of the list."""
        sim = self.transport.sim
        if one:
            ((cap, name),) = items
            keys = ((cap.object_number, cap.rights, name),)
        else:
            keys = [
                (cap.object_number, cap.rights, name) for cap, name in items
            ]
        values = self._serve_from_cache(keys)
        if values is not None:
            self.cache.count_hit()
            self.cache_served += 1
            self.last_lookup_from_cache = True
            # A local probe, but still a yield point: closed-loop
            # callers must not monopolize the event loop on hits.
            yield sim.sleep(CACHE_HIT_COST_MS)
            return values[0] if one else values
        self.cache.count_miss()
        self.last_lookup_from_cache = False
        sent_at = sim.now
        # request(op, spread=True), inline: a read is never wrapped.
        op = CoherentLookup(items)
        self.operations_sent += 1
        reply = yield from self.rpc.trans(
            self.port, op, size=op.wire_size(), spread=True
        )
        if not isinstance(reply, dict):
            # Talking to a server without coherence enabled: behave
            # like an uncached client (never fill from a reply that
            # grants no lease).
            return reply[0] if one else reply
        results = reply["results"]
        server = reply["server"]
        expiry = sent_at + reply["lease_ms"]
        held = self._server_leases.get(server, 0.0)
        if sim.now >= held:
            # The previous lease from this replica lapsed before the
            # renewal arrived: the replica may have written us off and
            # stopped pushing invalidations in between, so entries
            # filled under the old lease must not become servable again
            # under the new one.
            self.cache.drop_server(server)
        if expiry > held:
            self._server_leases[server] = expiry
        if reply["epoch"] >= self._inval_floor:
            # Fill guard: a reply computed at an older epoch than an
            # invalidation we have already acknowledged could
            # resurrect the very entry that invalidation evicted.
            # Skipping the fill costs a future miss, never correctness.
            for key, value in zip(keys, results):
                self.cache.put(key, value, server)
        return results[0] if one else list(results)

    def _serve_from_cache(self, keys):
        """Values for *keys* if all are cached under live leases."""
        now = self.transport.sim.now
        values = []
        for key in keys:
            entry = self.cache.get(key)
            if entry is MISS:
                return None
            value, server = entry
            if now >= self._server_leases.get(server, 0.0):
                # The granting replica's lease lapsed (it may have
                # crashed, or we simply went quiet): its invalidations
                # no longer reach us, so the entry is unservable.
                self.cache.drop(key)
                return None
            values.append(value)
        return values

    def _on_cache_inval(self, packet) -> None:
        """``cache.inval`` push from a replica applying a write."""
        payload = packet.payload
        seqno = payload["seqno"]
        if self._coherent:
            if seqno > self._inval_floor:
                self._inval_floor = seqno
            dropped = 0
            for obj, name in payload["keys"]:
                dropped += self.cache.invalidate(obj, name)
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(
                    str(self.transport.address), "cache", "cache.inval.recv",
                    lineage=("cacheinv", str(packet.src), seqno),
                    seqno=seqno, keys=len(payload["keys"]), dropped=dropped,
                )
        # Always acknowledge — even the nocoherence control does (a
        # silent client would wedge the write barrier into a lease-
        # expiry stall instead of demonstrating a stale read).
        self.transport.send(
            packet.src,
            KIND_INVACK,
            {"client": self.transport.address, "seqno": seqno},
            64,
        )

    def replace_set(self, items):
        """Replace capabilities in a set of rows, indivisibly."""
        result = yield from self.request(ReplaceSet(tuple(items)))
        return result

    # -- conveniences ----------------------------------------------------------

    def lookup(self, cap: Capability, name: str):
        """Single-name lookup (``yield from``); returns the capability or
        None. :meth:`lookup_set` of one pair, but not a generator itself:
        it hands back the one generator that does the work."""
        items = ((cap, name),)
        if self.cache is None:
            return self._lookup_remote(LookupSet(items))
        return self._lookup_coherent(items, one=True)

    def _lookup_remote(self, op: LookupSet):
        """The single result of an uncached *op* (``request``, inline:
        a read is never wrapped)."""
        self.operations_sent += 1
        [result] = yield from self.rpc.trans(self.port, op, size=op.wire_size())
        return result

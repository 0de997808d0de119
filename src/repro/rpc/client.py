"""Client side of Amoeba RPC: trans().

``trans`` is a generator (run it inside a simulation process with
``yield from``). It implements the fail-over heuristic the paper
describes: send to the first server in the port cache; on NOTHERE or
timeout drop that server from the cache and try the next one,
re-locating when the cache runs dry. A reply that is overdue is not
simply waited for: the client asks the server's kernel whether it
still holds the transaction (see :meth:`RpcClient._await_reply`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.amoeba.capability import Port
from repro.errors import (
    HostUnreachable,
    LocateError,
    RpcError,
    TimeoutError as SimTimeout,
)
from repro.rpc.kernel import (
    ENQUIRY_MS,
    NotHereBounce,
    TransactionLost,
    rpc_kernel,
)
from repro.rpc.transport import Transport


#: How long one locate round waits for a HEREIS before rebroadcasting.
LOCATE_TIMEOUT_MS = 30.0
#: Base backoff before retrying when a server bounced or refused us;
#: doubles per retry up to the cap, with deterministic jitter.
RETRY_BACKOFF_MS = 2.0
RETRY_BACKOFF_CAP_MS = 256.0
#: Relative jitter: each backoff is scaled by a factor drawn uniformly
#: from [1 - jitter, 1 + jitter] out of the *seeded* simulation RNG
#: (stream "rpc.backoff.<machine>"), so retry storms decorrelate
#: without breaking determinism.
RETRY_JITTER = 0.5
#: Port-cache entries populated by an actual locate go stale after
#: this long: the next pick forgets the port and re-locates,
#: so restarted/recovered replicas re-enter the cache and the
#: first-HEREIS responder pin stops skewing load forever. Entries
#: pinned directly into the kernel's port_cache (tests, benches) carry
#: no locate stamp and never age.
LOCATE_TTL_MS = 20_000.0
#: On a NOTHERE bounce, accelerate the entry's expiry to at most this
#: far away — a bouncing deployment re-locates within ~1 s instead of
#: waiting out the full TTL (rate-limited by being an expiry, not an
#: immediate flush: at most one extra locate per refresh interval
#: however many NOTHEREs arrive).
NOTHERE_REFRESH_MS = 1_000.0


@dataclass
class RpcTimings:
    """Client-side RPC tunables (simulated milliseconds)."""

    #: Locate rounds before giving up with LocateError.
    locate_attempts: int = 5
    #: How long to wait for a reply whatever the server's kernel says
    #: when asked (a crash is noticed sooner: RpcClient._await_reply).
    reply_timeout_ms: float = 4000.0
    #: Distinct servers tried (via NOTHERE/timeout fail-over) per trans.
    max_attempts: int = 8


class RpcClient:
    """One machine's client-side RPC interface."""

    def __init__(self, transport: Transport, timings: RpcTimings | None = None):
        self.transport = transport
        self.sim = transport.sim
        self.timings = timings or RpcTimings()
        self._kernel = rpc_kernel(transport)
        self.transactions = 0
        self.bounces = 0  # NOTHERE responses seen (for Fig. 8 analysis)
        #: Every retried attempt (bounce, refusal, reply timeout, or an
        #: enquiry that ended the wait) — the health monitor's
        #: per-client retry-rate signal.
        self._registry = self.sim.obs.registry
        self._node = str(transport.address)
        self._c_retries = self._registry.counter(self._node, "rpc.retries")

    # -- public API -------------------------------------------------------

    def trans(
        self,
        port: Port,
        body: Any,
        size: int = 128,
        reply_timeout_ms: float | None = None,
        spread: bool = False,
    ):
        """Perform one RPC transaction; returns the reply body.

        Raises whatever exception the server handler raised, or
        :class:`RpcError`/:class:`LocateError` when no server could be
        reached. Use as ``reply = yield from client.trans(...)``.

        *spread* picks a deterministically-random cached server per
        attempt instead of the first-HEREIS pin — read fan-out for
        cache-enabled directory clients (any replica may answer a
        coherent lookup). Default off: the paper's Fig. 8 locate
        heuristic, bit-for-bit.
        """
        timeout = reply_timeout_ms or self.timings.reply_timeout_ms
        overhead = self.transport.nic.network.latency.cpu.client_overhead_ms
        if overhead:
            yield self.sim.sleep(overhead)
        last_error: Exception | None = None
        for attempt in range(self.timings.max_attempts):
            server = self._cached_server(port, spread)
            if server is None:
                server = yield from self._pick_server(port, spread)
            txid = self._kernel.new_txid()
            fut = self._kernel.send_request(server, port, txid, body, size)
            try:
                reply = yield from self._await_reply(fut, server, txid, timeout)
            except NotHereBounce as bounce:
                self.bounces += 1
                self._c_retries.inc()
                self._kernel.drop_cached_server(port, bounce.server)
                self._accelerate_relocate(port)
                last_error = bounce
                yield self.sim.sleep(self._backoff_ms(attempt))
                continue
            except HostUnreachable as refused:
                # Connection refused (dead NIC): evict immediately so
                # the next attempt goes to a live replica instead of
                # burning a full reply timeout on the corpse.
                self._c_retries.inc()
                self._kernel.drop_cached_server(port, server)
                last_error = refused
                yield self.sim.sleep(self._backoff_ms(attempt))
                continue
            except (SimTimeout, TransactionLost) as timed_out:
                self._c_retries.inc()
                self._kernel.forget_transaction(txid)
                self._kernel.drop_cached_server(port, server)
                last_error = timed_out
                continue
            # Server-raised exceptions surface here via fut.fail().
            self.transactions += 1
            return reply
        raise RpcError(
            f"trans to port {port} failed after "
            f"{self.timings.max_attempts} attempts: {last_error!r}"
        )

    def _await_reply(self, fut, server, txid, timeout: float):
        """The reply to *txid*, or the exception that ends the attempt.

        Each wait is one entry in the kernel's deadline table
        (:meth:`RpcKernel.expect`), not a timer of its own. Every
        ENQUIRY_MS of silence the kernel asks *server*'s kernel
        about the transaction. ``rpc.alive`` keeps us waiting (a slow
        server — say a write held by the cache fence — is not a dead
        one); a down NIC refuses the enquiry (HostUnreachable, as for
        a refused request); a kernel that rebooted since answers that
        it does not know the id (TransactionLost); a partition answers
        nothing, and after ENQUIRY_LIMIT silent enquiries we stop
        waiting. *timeout* (``reply_timeout_ms``) stays the outer
        bound whatever the server says.
        """
        # The two counters below are made on first use: a run in which
        # no reply is ever overdue keeps the registry (and the recorded
        # digests of it) as it was.
        kernel = self._kernel
        asked = False
        left = timeout
        while True:
            wait = min(ENQUIRY_MS, left)
            left -= wait
            kernel.expect(txid, server, wait)
            try:
                reply = yield fut
                return reply
            except SimTimeout:
                # The wait ran out. A reply or a bounce that came
                # since, before we resumed, still ends the attempt.
                if left <= 0.0 or (fut := kernel.renew(txid)) is None:
                    raise
                if not kernel.enquire(server, txid):
                    self._registry.counter(self._node, "rpc.enquiry_failed").inc()
                    raise
                self._registry.counter(self._node, "rpc.enquiries").inc()
                asked = True
            except (HostUnreachable, TransactionLost):
                if asked:
                    self._registry.counter(self._node, "rpc.enquiry_failed").inc()
                raise
            except GeneratorExit:  # killed while waiting: the entries go too
                kernel.forget_transaction(txid)
                raise

    def _backoff_ms(self, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter."""
        delay = min(RETRY_BACKOFF_CAP_MS, RETRY_BACKOFF_MS * 2.0**attempt)
        return delay * self.sim.rng.uniform(
            f"rpc.backoff.{self.transport.address}",
            1.0 - RETRY_JITTER,
            1.0 + RETRY_JITTER,
        )

    # -- locate ------------------------------------------------------------

    def _cached_server(self, port: Port, spread: bool = False):
        """The preferred cached server for *port*, or None when the
        cache is empty or its locate stamp has aged past
        ``LOCATE_TTL_MS`` (the staleness bugfix: the first-HEREIS pin
        used to live until a hard failure, so one replica absorbed a
        client's whole lifetime of reads and restarted replicas never
        came back). An entry pinned directly (tests/benches) has no
        stamp and never ages."""
        kernel = self._kernel
        servers = kernel.port_cache.get(port)
        if not servers:
            return None
        stamp = kernel.port_expiry.get(port)
        if stamp is not None and self.sim.now >= stamp:
            # Forget before re-locating: HEREIS only appends servers
            # the cache doesn't already hold, so without the forget a
            # re-locate could never refresh the responder order.
            del kernel.port_cache[port]
            del kernel.port_expiry[port]
            return None
        if spread and len(servers) > 1:
            index = self.sim.rng.stream(
                f"rpc.spread.{self.transport.address}"
            ).randrange(len(servers))
            return servers[index]
        return servers[0]

    def _pick_server(self, port: Port, spread: bool = False):
        """The preferred server for *port* (``yield from``), locating
        when :meth:`_cached_server` has none."""
        server = self._cached_server(port, spread)
        if server is None:
            yield from self._locate(port)
            server = self._cached_server(port, spread)
            if server is None:
                raise LocateError(f"locate for port {port} found no servers")
        return server

    def _accelerate_relocate(self, port: Port) -> None:
        """A NOTHERE bounce hints the cached responder order is stale
        (busy or reconfiguring deployment); pull the entry's expiry in
        so the next pick after ``NOTHERE_REFRESH_MS`` re-locates."""
        stamp = self._kernel.port_expiry.get(port)
        if stamp is None:
            return  # pinned entry: leave it alone
        target = self.sim.now + NOTHERE_REFRESH_MS
        if target < stamp:
            self._kernel.port_expiry[port] = target

    def _locate(self, port: Port):
        for _ in range(self.timings.locate_attempts):
            locate_id, fut = self._kernel.start_locate(port)
            try:
                yield self.sim.timeout(fut, LOCATE_TIMEOUT_MS, f"locate {port}")
                self._kernel.port_expiry[port] = self.sim.now + LOCATE_TTL_MS
                return
            except SimTimeout:
                continue
            finally:
                self._kernel.end_locate(locate_id)
        raise LocateError(
            f"no server answered {self.timings.locate_attempts} locate "
            f"broadcasts for port {port}"
        )

"""The kernel half of Amoeba RPC: dispatch, port cache, locate.

One :class:`RpcKernel` exists per machine (lazily attached to the
machine's :class:`~repro.rpc.transport.Transport`). It plays the role
Amoeba's kernel plays in the paper's section 4.2:

* keeps the **port cache** mapping service ports to the network
  addresses of servers that answered a locate broadcast;
* broadcasts **locate** messages and collects **HEREIS** replies,
  caching every responder in arrival order;
* delivers incoming requests to a listening server thread, or bounces
  them with **NOTHERE** when no thread is blocked in ``getreq`` —
  which is what makes clients fail over and (imperfectly) balance
  load across replicas;
* remembers every request it delivered until the reply leaves, and
  answers a client kernel's **ENQUIRY** about one with **ALIVE** — so
  a client whose reply is overdue can tell a slow server (wait) from
  a dead or rebooted one (give up now) instead of sitting out its
  whole reply timeout;
* bounds every wait for a reply with one **deadline table** and one
  timer, armed for the earliest deadline and never cancelled: a reply
  takes its entry out of the table, so one that arrives in time (nearly
  every one) costs the scheduler nothing for its deadline.
"""

from __future__ import annotations

import heapq
import math
from typing import Any

from repro.amoeba.capability import Port
from repro.errors import HostUnreachable, TimeoutError as SimTimeout
from repro.net.network import Packet
from repro.rpc.transport import Transport
from repro.sim.future import Future

KIND_LOCATE = "rpc.locate"
KIND_HEREIS = "rpc.hereis"
KIND_REQUEST = "rpc.request"
KIND_REPLY = "rpc.reply"
KIND_NOTHERE = "rpc.nothere"
KIND_ACK = "rpc.ack"
#: Synthesized by the network when a request's or an enquiry's
#: destination NIC is down (the simulation's connection-refused signal).
KIND_UNREACH = "rpc.unreach"
#: "Are you still working on this transaction?" — client kernel to
#: server kernel, once the reply is overdue — and the answer.
KIND_ENQUIRY = "rpc.enquiry"
KIND_ALIVE = "rpc.alive"

#: Wire sizes (bytes) for the small fixed-format control packets.
CONTROL_PACKET_SIZE = 64

#: How overdue a reply must be before the client's kernel enquires, and
#: the period of further enquiries while the server answers "alive".
#: Not a tunable: it exceeds the longest healthy single wait of the
#: deployments we run, so fault-free steady state puts no enquiry on
#: the wire. (A boot-time state transfer may cross it; the enquiry it
#: earns re-times nobody, each link draws its jitter from its own
#: stream.)
ENQUIRY_MS = 1_000.0
#: Enquiries in a row that may go unanswered (a partition answers
#: nothing) before the transaction is given up.
ENQUIRY_LIMIT = 3


class NotHereBounce(Exception):
    """Internal signal: the addressed server was not listening."""

    def __init__(self, server):
        super().__init__(f"server {server!r} not listening")
        self.server = server


class TransactionLost(Exception):
    """Internal signal: the server's kernel does not know the
    transaction we enquired about (it rebooted since, or the request
    never arrived)."""

    def __init__(self, server):
        super().__init__(f"server {server!r} does not hold the transaction")
        self.server = server


def rpc_kernel(transport: Transport) -> "RpcKernel":
    """The machine's RPC kernel, created on first use."""
    kernel = getattr(transport, "_rpc_kernel", None)
    if kernel is None or not kernel.attached:
        kernel = RpcKernel(transport)
        transport._rpc_kernel = kernel
    return kernel


class RpcKernel:
    """Per-machine RPC state shared by all local clients and servers."""

    def __init__(self, transport: Transport):
        self.transport = transport
        self.sim = transport.sim
        self.attached = True
        self.port_cache: dict[Port, list[Any]] = {}
        #: Absolute expiry time (sim ms) of each port-cache entry that
        #: was filled by an actual locate; entries without one (pinned
        #: directly by tests/benches) never age. Maintained by
        #: RpcClient (locate stamps it, TTL expiry clears it).
        self.port_expiry: dict[Port, float] = {}
        self._servers: dict[Port, ServerEndpoint] = {}
        self._pending: dict[tuple, Future] = {}
        #: Per transaction whose current wait has not ended: the
        #: instant it ends, and the server waited on.
        self._deadlines: dict[tuple, tuple[float, Any]] = {}
        #: When the earliest of this kernel's timers fires (inf: none).
        self._alarm_at = math.inf
        #: Client half of the enquiry: per overdue transaction, how
        #: many enquiries have gone out since the last ``rpc.alive``.
        self._unanswered: dict[tuple, int] = {}
        #: Server half: transactions delivered to a local server
        #: thread whose reply has not left yet.
        self._in_progress: set[tuple] = set()
        self._locate_waiters: dict[int, Future] = {}
        self._next_txid = 0
        self._next_locate = 0
        for kind, handler in [
            (KIND_HEREIS, self._on_hereis),
            (KIND_REQUEST, self._on_request),
            (KIND_REPLY, self._on_reply),
            (KIND_NOTHERE, self._on_nothere),
            (KIND_ACK, self._on_ack),
            (KIND_UNREACH, self._on_unreach),
            (KIND_ENQUIRY, self._on_enquiry),
            (KIND_ALIVE, self._on_alive),
        ]:
            transport.register(kind, handler)

    # -- server registry ---------------------------------------------------

    def register_server(self, port: Port, endpoint: ServerEndpoint) -> None:
        # Only a machine that serves some port listens on the locate
        # multicast address; pure clients never see locate broadcasts.
        self.transport.register(KIND_LOCATE, self._on_locate)
        self._servers[port] = endpoint

    def unregister_server(self, port: Port) -> None:
        self._servers.pop(port, None)

    # -- client-side API ------------------------------------------------------

    def new_txid(self) -> tuple:
        self._next_txid += 1
        return (self.transport.address, self._next_txid)

    def send_request(self, server, port: Port, txid, body, size: int) -> Future:
        """Fire a request at *server*; the future settles with the reply
        body, a :class:`NotHereBounce`, the server-raised exception, or
        — once :meth:`expect`'s wait runs out — a
        :class:`repro.errors.TimeoutError`."""
        fut = self._pending[txid] = Future("trans")
        self.transport.send(
            server,
            KIND_REQUEST,
            {"txid": txid, "port": port, "body": body},
            size,
        )
        return fut

    def expect(self, txid, server, wait: float) -> None:
        """Fail *txid*'s pending future with a timeout *wait* ms from
        now unless it settles first."""
        sim = self.sim
        when = sim.now + wait
        self._deadlines[txid] = (when, server)
        if when < self._alarm_at:
            self._arm(when)

    def renew(self, txid) -> Future | None:
        """A fresh future for *txid* after its wait ran out; None when
        a reply or a bounce has settled the transaction since."""
        if txid not in self._pending:
            return None
        fut = self._pending[txid] = Future("trans")
        return fut

    def forget_transaction(self, txid) -> None:
        """Drop a pending transaction (after a timeout)."""
        self._settle(txid)

    def _settle(self, txid) -> Future | None:
        """Take a transaction out of the pending table."""
        self._unanswered.pop(txid, None)
        self._deadlines.pop(txid, None)
        return self._pending.pop(txid, None)

    def _arm(self, when: float) -> None:
        """Put the timer in the heap for exactly *when*."""
        self._alarm_at = when
        sim = self.sim
        heapq.heappush(sim._heap, (when, sim._sequence, None, self._on_alarm))
        sim._sequence += 1

    def _on_alarm(self) -> None:
        """The timer: fail the waits that are due, in the order they
        began, then re-arm for the earliest deadline left."""
        now = self.sim.now
        if now < self._alarm_at:
            return  # stale: the timer before it re-armed for later
        deadlines = self._deadlines
        for txid in [t for t, (when, _) in deadlines.items() if when <= now]:
            _, server = deadlines.pop(txid)
            self._pending[txid].fail_if_pending(SimTimeout(f"rpc to {server}"))
        self._alarm_at = math.inf
        if deadlines:
            self._arm(min(when for when, _ in deadlines.values()))

    def enquire(self, server, txid) -> bool:
        """Ask *server*'s kernel whether it still holds *txid*.

        False — and nothing is sent — once ENQUIRY_LIMIT enquiries in
        a row have gone unanswered. A down NIC refuses the frame
        (``rpc.unreach``), a kernel that does not know the id fails
        the transaction with :class:`TransactionLost`; both settle the
        pending future, so the caller just keeps waiting on it.
        """
        silent = self._unanswered.get(txid, 0)
        if silent >= ENQUIRY_LIMIT:
            return False
        self._unanswered[txid] = silent + 1
        self.transport.send(
            server, KIND_ENQUIRY, {"txid": txid}, CONTROL_PACKET_SIZE
        )
        return True

    def start_locate(self, port: Port) -> tuple[int, Future]:
        """Broadcast one locate round; future resolves at first HEREIS."""
        self._next_locate += 1
        locate_id = self._next_locate
        fut = Future(f"locate({port})")
        self._locate_waiters[locate_id] = fut
        self.transport.broadcast(
            KIND_LOCATE,
            {"port": port, "client": self.transport.address, "locate_id": locate_id},
            CONTROL_PACKET_SIZE,
        )
        return locate_id, fut

    def end_locate(self, locate_id: int) -> None:
        self._locate_waiters.pop(locate_id, None)

    def drop_cached_server(self, port: Port, server) -> None:
        servers = self.port_cache.get(port)
        if servers and server in servers:
            servers.remove(server)

    # -- packet handlers -----------------------------------------------------

    def _on_locate(self, packet: Packet) -> None:
        payload = packet.payload
        endpoint = self._servers.get(payload["port"])
        if endpoint is None or not endpoint.listening:
            return  # a busy or absent server stays silent at locate time
        self.transport.send(
            payload["client"],
            KIND_HEREIS,
            {
                "port": payload["port"],
                "server": self.transport.address,
                "locate_id": payload["locate_id"],
            },
            CONTROL_PACKET_SIZE,
        )

    def _on_hereis(self, packet: Packet) -> None:
        payload = packet.payload
        servers = self.port_cache.setdefault(payload["port"], [])
        if payload["server"] not in servers:
            servers.append(payload["server"])
        waiter = self._locate_waiters.get(payload["locate_id"])
        if waiter is not None:
            waiter.resolve_if_pending(payload["server"])

    def _on_request(self, packet: Packet) -> None:
        payload = packet.payload
        endpoint = self._servers.get(payload["port"])
        if endpoint is None or not endpoint.listening:
            self.transport.send(
                packet.src,
                KIND_NOTHERE,
                {"txid": payload["txid"], "port": payload["port"]},
                CONTROL_PACKET_SIZE,
            )
            return
        endpoint.deliver(payload["body"], packet.src, payload["txid"])
        self._in_progress.add(payload["txid"])

    def _on_enquiry(self, packet: Packet) -> None:
        txid = packet.payload["txid"]
        self.transport.send(
            packet.src,
            KIND_ALIVE,
            {"txid": txid, "known": txid in self._in_progress},
            CONTROL_PACKET_SIZE,
        )

    def _on_alive(self, packet: Packet) -> None:
        payload = packet.payload
        txid = payload["txid"]
        if payload["known"]:
            if txid in self._unanswered:
                self._unanswered[txid] = 0
            return
        # The reply cannot be behind this frame (links are FIFO per
        # pair): if the transaction is still pending here, its server
        # will never answer it. When the enquiry merely crossed the
        # reply on the wire, the transaction is settled already and
        # nothing happens. (Under a Reorder link policy the reply *can*
        # be behind; the attempt is then retried like one that timed
        # out, which trans() has always been free to do.)
        fut = self._settle(txid)
        if fut is not None:
            fut.fail_if_pending(TransactionLost(packet.src))

    def _on_reply(self, packet: Packet) -> None:
        payload = packet.payload
        fut = self._settle(payload["txid"])
        # Acknowledge regardless: the server's kernel frees the
        # transaction state (third packet of the Amoeba 3-packet RPC).
        self.transport.send(
            packet.src, KIND_ACK, {"txid": payload["txid"]}, CONTROL_PACKET_SIZE
        )
        if fut is None:
            return  # duplicate or timed-out transaction
        error = payload.get("error")
        if error is not None:
            fut.fail_if_pending(error)
        else:
            fut.resolve_if_pending(payload["body"])

    def _on_nothere(self, packet: Packet) -> None:
        payload = packet.payload
        fut = self._settle(payload["txid"])
        if fut is not None:
            fut.fail_if_pending(NotHereBounce(packet.src))

    def _on_ack(self, packet: Packet) -> None:
        pass  # transaction state is implicit in the simulation

    def _on_unreach(self, packet: Packet) -> None:
        """Connection refused: the destination NIC of the request (or
        of an enquiry about it) is down."""
        fut = self._settle(packet.payload["txid"])
        if fut is not None:
            fut.fail_if_pending(
                HostUnreachable(f"server {packet.src!r} unreachable")
            )

    def send_reply(self, client, txid, body, error, size: int) -> None:
        """Server half: transmit a reply packet."""
        self._in_progress.discard(txid)
        self.transport.send(
            client,
            KIND_REPLY,
            {"txid": txid, "body": body, "error": error},
            size,
        )


class ServerEndpoint:
    """Protocol expected from objects registered as servers."""

    @property
    def listening(self) -> bool:  # pragma: no cover - interface only
        raise NotImplementedError

    def deliver(self, body, client, txid) -> None:  # pragma: no cover
        raise NotImplementedError

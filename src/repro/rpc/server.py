"""Server side of Amoeba RPC: getreq / putrep.

A service creates one :class:`RpcServer` per port and runs one or more
server threads, each looping ``yield server.getreq()`` →  handle →
``handle.reply(...)``. While no thread is blocked in ``getreq`` the
server is *not listening*: locate broadcasts go unanswered and
incoming requests bounce with NOTHERE (see section 4.2 of the paper).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.amoeba.capability import Port
from repro.rpc.kernel import RpcKernel, rpc_kernel
from repro.rpc.transport import Transport
from repro.sim.future import Future


class ReplyHandle:
    """Ticket for answering one request exactly once."""

    __slots__ = ("_kernel", "client", "_txid", "_used")

    def __init__(self, kernel: RpcKernel, client, txid):
        self._kernel = kernel
        self.client = client
        self._txid = txid
        self._used = False

    def reply(self, body: Any = None, size: int = 128) -> None:
        """Send a successful reply to the client."""
        self._send(body, None, size)

    def error(self, exc: Exception, size: int = 64) -> None:
        """Send a failure reply; *exc* is re-raised at the client."""
        self._send(None, exc, size)

    def _send(self, body, error, size) -> None:
        if self._used:
            return  # a crashed-and-restarted handler may double-reply
        self._used = True
        self._kernel.send_reply(self.client, self._txid, body, error, size)


class RpcServer:
    """One service port's accept queue on one machine."""

    def __init__(self, transport: Transport, port: Port, name: str = ""):
        self.transport = transport
        self.port = port
        self.name = name or f"server({port})"
        self._getreq_name = f"{self.name}.getreq"
        self._kernel = rpc_kernel(transport)
        self._waiting: Deque[Future] = deque()
        #: Cleared while the service behind the port cannot take
        #: requests whatever its threads are doing (a replica inside
        #: its recovery): the port then looks like one nobody listens
        #: on — no HEREIS, requests bounce NOTHERE — and clients fail
        #: over instead of being handed an error.
        self.open = True
        self.requests_served = 0
        self._kernel.register_server(port, self)

    # -- ServerEndpoint protocol ------------------------------------------

    @property
    def listening(self) -> bool:
        """True while the port is open and at least one thread is
        blocked in getreq(). Settled (interrupted) futures leave from
        the head, so a pending head answers for the whole queue."""
        waiting = self._waiting
        while waiting and waiting[0].resolved:
            waiting.popleft()
        return self.open and bool(waiting)

    def deliver(self, body, client, txid) -> None:
        while self._waiting:
            fut = self._waiting.popleft()
            if fut.resolve_if_pending((body, ReplyHandle(self._kernel, client, txid))):
                self.requests_served += 1
                return
        raise AssertionError("deliver() called while not listening")

    # -- server API -----------------------------------------------------------

    def getreq(self) -> Future:
        """Future resolving with ``(request_body, ReplyHandle)``."""
        fut = Future(self._getreq_name)
        self._waiting.append(fut)
        return fut

    def withdraw(self) -> None:
        """Deregister the port (server shutdown); waiting threads are
        interrupted."""
        self._kernel.unregister_server(self.port)
        waiting, self._waiting = self._waiting, deque()
        for fut in waiting:
            fut.interrupt(f"{self.name} withdrawn")

"""The RPC-based directory service (the paper's previous design).

Two servers, each on its own machine with its own Bullet server and
disk. Semantics per sections 1 and 5 of the paper:

* **reads** are served by either server without communication;
* an **update** arriving at one server triggers an RPC to the other
  server with the intended update; if the peer is *not busy with a
  conflicting operation* it stores the intentions (write-behind — the
  acknowledgement is not delayed by the disk) and answers OK; the
  initiator then performs the update — new Bullet file, object-table
  commit, plus the extra intentions-bookkeeping disk write the paper's
  analysis charges the RPC design for — and replies to the client;
* replication is **lazy**: the peer applies the update in the
  background after acknowledging, so for a window only one disk holds
  the new directory (the availability weakness the paper points out);
* **no partition tolerance**: when the peer stops answering, the
  initiator soldiers on alone — exactly the behaviour that makes the
  RPC design unsafe under network partitions (both halves would
  diverge).

Concurrency control: the intent/OK handshake doubles as a service-wide
write lock — a peer refuses intents while it is initiating an update
itself or still has unapplied intentions queued, and the initiator
retries. A deterministic index priority (lower index wins) breaks the
symmetric-deadlock case where both servers initiate at once.

Object numbers are allocated from disjoint parity classes (server 0
even, server 1 odd) and shipped inside the CreateDir operation, so the
lazy replica mints the identical capability.
"""

from __future__ import annotations

from collections import deque

from repro.directory.admin import AdminPartition
from repro.directory.config import ServiceConfig
from repro.directory.operations import DirectoryOp, mint_check
from repro.directory.state import DirectoryState
from repro.directory.store import Change, DirectoryStore
from repro.errors import (
    CapabilityError,
    DirectoryError,
    Interrupted,
    LocateError,
    RpcError,
    ServiceDown,
)
from repro.rpc.client import RpcClient, RpcTimings
from repro.rpc.server import RpcServer
from repro.rpc.transport import Transport
from repro.sim.primitives import Mutex
from repro.storage.bullet import BulletClient


class PeerBusy(ServiceDown):
    """The peer refused an intent because a conflicting op is active."""


class RpcDirectoryServer:
    """One of the two replicas of the RPC directory service."""

    def __init__(
        self,
        config: ServiceConfig,
        index: int,
        transport: Transport,
        bullet_port,
        admin: AdminPartition,
    ):
        self.config = config
        self.index = index
        #: The RNG stream this server mints new directories' checks from.
        self.check_stream = f"rpcdir.{config.name}.check.{index}"
        self.transport = transport
        self.sim = transport.sim
        self.me = transport.address
        self.admin = admin

        self.state = DirectoryState(config.port, config.root_check)
        self._configure_state(self.state)
        # Disjoint object-number classes: server 0 allocates even,
        # server 1 odd (root is object 1, so start above it).
        self._next_alloc = 2 + index
        self.rpc_server = RpcServer(transport, config.port, f"rpcdir.{index}")
        self.private_rpc = RpcServer(transport, config.recovery_port(self.me))
        self.peer_port = config.recovery_port(config.server_addresses[1 - index])
        self.rpc_client = RpcClient(transport, RpcTimings(reply_timeout_ms=500.0))
        self.store = DirectoryStore(
            self, admin, BulletClient(self.rpc_client, bullet_port), f"rpcdir.{index}"
        )

        self.operational = False
        self.alive = True
        self.peer_reachable = True
        self._update_mutex = Mutex(f"rpcdir.{index}.update")
        self._lazy_queue: deque = deque()
        self._processes = []

        self._obs = self.sim.obs
        registry = self.sim.obs.registry
        node = str(self.me)
        self._c_reads = registry.counter(node, "dir.reads")
        self._c_writes = registry.counter(node, "dir.writes")
        self._c_intents_stored = registry.counter(node, "dir.intents_stored")
        self._c_lazy_applied = registry.counter(node, "dir.lazy_applied")
        self._c_peer_busy = registry.counter(node, "dir.peer_busy")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        spawn = self.sim.spawn
        self._processes = [
            spawn(self._boot(), f"rpcdir.{self.index}.boot"),
            spawn(self._peer_service(), f"rpcdir.{self.index}.peer-svc"),
            spawn(self._lazy_applier(), f"rpcdir.{self.index}.lazy"),
            spawn(self._peer_probe(), f"rpcdir.{self.index}.probe"),
        ]
        for t in range(self.config.server_threads):
            self._processes.append(
                spawn(self._server_thread(), f"rpcdir.{self.index}.srv{t}")
            )

    def _boot(self):
        """Load disk state; prefer a fresher copy from the peer."""
        yield from self.admin.load()
        try:
            reply = yield from self.rpc_client.trans(
                self.peer_port, {"op": "get_state"}, reply_timeout_ms=2000.0
            )
            peer_state = DirectoryState.from_snapshot(
                self.config.port, reply["snapshot"]
            )
            if peer_state.update_seqno >= self.admin.highest_seqno():
                yield from self.store.install(peer_state, reply["entry_seqnos"])
                self.adopt_state(peer_state)
            else:
                yield from self.store.read_directories()
        except (RpcError, LocateError):
            self.peer_reachable = False
            yield from self.store.read_directories()
        self._next_alloc = max(
            self._next_alloc,
            _next_in_class(self.state.next_object, self.index),
        )
        self.operational = True

    def _configure_state(self, state: DirectoryState) -> None:
        state.dedup_enabled = self.config.dedup_enabled

    def adopt_state(self, state: DirectoryState) -> None:
        """Make *state* (a peer's snapshot or a disk rebuild) live."""
        self._configure_state(state)
        state.trim_sessions()
        self.state = state

    def crash(self) -> None:
        self.alive = False
        self.operational = False
        for process in self._processes:
            process.kill(f"rpcdir.{self.index} crash")
        self._processes = []

    # ------------------------------------------------------------------
    # client-facing threads
    # ------------------------------------------------------------------

    def _server_thread(self):
        while self.alive:
            try:
                op, handle = yield self.rpc_server.getreq()
            except Interrupted:
                return
            if not self.operational:
                handle.error(ServiceDown(f"rpcdir.{self.index} still booting"))
                continue
            try:
                yield from self._handle_request(op, handle)
            except Interrupted:
                raise
            except Exception as exc:
                handle.error(ServiceDown(f"internal error: {exc!r}"))

    def _handle_request(self, op: DirectoryOp, handle):
        tracer = self._obs.tracer
        if op.is_read:
            if tracer.enabled:
                tracer.emit(
                    str(self.me), "dir", "dir.read.recv", op=type(op).__name__
                )
            yield from self.transport.cpu.use(
                self._latency().cpu.read_processing_ms
            )
            try:
                result = self.state.query(op)
            except (DirectoryError, CapabilityError) as exc:
                handle.error(exc)
                return
            self._c_reads.inc()
            if tracer.enabled:
                tracer.emit(str(self.me), "dir", "dir.read.reply")
            handle.reply(result, size=96)
            return
        if tracer.enabled:
            tracer.emit(
                str(self.me), "dir", "dir.write.recv", op=type(op).__name__
            )
        op = mint_check(op, self.sim.rng, self.check_stream, self._allocate_object)
        yield from self._update_mutex.acquire_gen()
        try:
            accepted = yield from self._notify_peer_with_retry(op)
            if not accepted:
                handle.error(ServiceDown("peer persistently busy"))
                return
            yield from self.transport.cpu.use(
                self._latency().cpu.write_processing_ms
            )
            try:
                result, effects = self.state.apply(op)
            except (DirectoryError, CapabilityError) as exc:
                self.state.update_seqno += 1
                handle.error(exc)
                return
            change = self._change(op, effects)
            # The RPC design's extra bookkeeping write: record that our
            # intentions are now committed locally (write-behind, so it
            # costs little latency — but it is one more disk op, which
            # bench E4 counts).
            yield from self.admin.partition.write_block(1, b"intent", kind="cached")
            yield from self.store.commit_classic(change)
            self._c_writes.inc()
            if tracer.enabled:
                tracer.emit(str(self.me), "dir", "dir.write.reply")
            if isinstance(result, Exception):
                # A session op whose execution failed: the error is the
                # cached (and replayed) reply.
                handle.error(result)
            else:
                handle.reply(result, size=96)
        finally:
            self._update_mutex.release()

    def _allocate_object(self) -> int:
        obj = self._next_alloc
        self._next_alloc += 2
        return obj

    # ------------------------------------------------------------------
    # intentions protocol
    # ------------------------------------------------------------------

    def _notify_peer_with_retry(self, op: DirectoryOp, attempts: int = 400):
        """The intent/OK handshake; returns False on persistent busy.

        On a busy peer, the higher-index server releases its own write
        lock while backing off so the lower-index server's symmetric
        intent can get through (deadlock break).
        """
        if not self.peer_reachable:
            return True  # running solo, no partition tolerance
        rng = self.sim.rng.stream(f"rpcdir.retry.{self.index}")
        for _ in range(attempts):
            try:
                yield from self.rpc_client.trans(
                    self.peer_port,
                    {"op": "intent", "update": op},
                    size=op.wire_size() + 32,
                    reply_timeout_ms=500.0,
                )
                return True
            except PeerBusy:
                if self.index > 0:
                    self._update_mutex.release()
                yield self.sim.sleep(rng.uniform(2.0, 8.0))
                if self.index > 0:
                    yield from self._update_mutex.acquire_gen()
            except (RpcError, LocateError):
                # Peer dead or partitioned: continue alone (the RPC
                # design explicitly does not tolerate partitions).
                self.peer_reachable = False
                return True
        return False

    def _peer_service(self):
        while self.alive:
            try:
                request, handle = yield self.private_rpc.getreq()
            except Interrupted:
                return
            kind = request["op"]
            if kind == "ping":
                handle.reply({"seqno": self.state.update_seqno}, size=32)
                # Not while booting: the boot fetches the peer's state
                # itself, and a second install beside it would replace
                # — and orphan — the same Bullet files.
                if self.operational and request["seqno"] > self.state.update_seqno:
                    self.sim.spawn(
                        self._refresh_from_peer(),
                        f"rpcdir.{self.index}.resync",
                    )
                self.peer_reachable = True
                continue
            if kind == "get_state":
                handle.reply(
                    {
                        "snapshot": self.state.to_snapshot(),
                        "entry_seqnos": {
                            obj: seqno
                            for obj, (_, seqno) in self.admin.entries.items()
                        },
                    },
                    size=self.state.snapshot_size(),
                )
                continue
            if kind != "intent":
                handle.error(DirectoryError(f"unknown peer op {kind!r}"))
                continue
            if self._update_mutex.held or self._lazy_queue:
                self._c_peer_busy.inc()
                handle.error(PeerBusy("conflicting operation in progress"))
                continue
            # Store intentions with write-behind and acknowledge.
            self._lazy_queue.append(request["update"])
            self._c_intents_stored.inc()
            if self._obs.tracer.enabled:
                self._obs.tracer.emit(str(self.me), "dir", "dir.intent.stored")
            self.peer_reachable = True
            handle.reply("OK", size=32)

    def _peer_probe(self):
        """Retry an unreachable peer every few seconds.

        On contact, compare sequence numbers: whichever side is behind
        pulls a fresh snapshot, so the replicas reconverge after the
        solo-operation window (the RPC design's answer to a repaired
        peer; a repaired *partition* still leaves both sides believing
        they are current — the flaw the group design fixes).
        """
        while self.alive:
            yield self.sim.sleep(2_000.0)
            if self.peer_reachable or not self.operational:
                continue
            try:
                reply = yield from self.rpc_client.trans(
                    self.peer_port,
                    {"op": "ping", "seqno": self.state.update_seqno},
                    reply_timeout_ms=500.0,
                )
            except (RpcError, LocateError, ServiceDown):
                continue
            if reply["seqno"] > self.state.update_seqno:
                yield from self._refresh_from_peer()
            self.peer_reachable = True

    def _refresh_from_peer(self):
        try:
            reply = yield from self.rpc_client.trans(
                self.peer_port, {"op": "get_state"}, reply_timeout_ms=5_000.0
            )
        except (RpcError, LocateError, ServiceDown):
            return
        peer_state = DirectoryState.from_snapshot(
            self.config.port, reply["snapshot"]
        )
        if peer_state.update_seqno >= self.state.update_seqno:
            yield from self.store.install(peer_state, reply["entry_seqnos"])
            self.adopt_state(peer_state)

    def _lazy_applier(self):
        """Applies acknowledged intentions in the background (lazy
        replication: 'the second copy is created later')."""
        while self.alive:
            if not self._lazy_queue:
                yield self.sim.sleep(1.0)
                continue
            op = self._lazy_queue[0]
            yield from self.admin.partition.write_block(1, b"intent", kind="cached")
            yield from self.transport.cpu.use(
                self._latency().cpu.write_processing_ms
            )
            try:
                _, effects = self.state.apply(op)
            except (DirectoryError, CapabilityError):
                self.state.update_seqno += 1
            else:
                yield from self.store.commit_classic(self._change(op, effects))
            self._lazy_queue.popleft()
            self._c_lazy_applied.inc()

    def _change(self, op, effects) -> Change:
        """What the store commits for *op*, stamped with the state
        counters as of its apply (call before the next yield)."""
        return Change(op, effects, self.state.update_seqno, self.state.next_object)

    def _latency(self):
        return self.transport.nic.network.latency


def _next_in_class(minimum: int, index: int) -> int:
    """Smallest value >= minimum in server *index*'s parity class."""
    value = max(minimum, 2)
    while value % 2 != index:
        value += 1
    return value

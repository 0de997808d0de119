"""A SunOS/NFS-like single-copy baseline.

The paper compares its fault-tolerant implementations against plain
Sun NFS on SunOS 4.1.1 (files under /usr/tmp): one server, one copy,
no fault tolerance, no consistency guarantees for remote caches. We
reproduce only what the comparison needs — the measured *cost
structure* of NFS directory updates and lookups (a synchronous
server-side update around 41 ms; lookups slightly slower than
Amoeba's) plus a small file service for the tmp-file experiment.
"""

from __future__ import annotations

import dataclasses

from repro.amoeba.capability import Port, new_check
from repro.directory.config import ServiceConfig
from repro.directory.operations import CreateDir, DirectoryOp, SessionOp
from repro.directory.state import DirectoryState
from repro.errors import CapabilityError, DirectoryError, Interrupted, NoSuchFile, ServiceDown
from repro.rpc.server import RpcServer
from repro.rpc.transport import Transport
from repro.sim.primitives import Mutex


class NfsDirectoryServer:
    """One unreplicated directory server with NFS-calibrated costs."""

    def __init__(self, config: ServiceConfig, transport: Transport):
        self.config = config
        self.transport = transport
        self.sim = transport.sim
        self.state = DirectoryState(config.port, config.root_check)
        self.state.dedup_enabled = config.dedup_enabled
        self.rpc_server = RpcServer(transport, config.port, "nfsdir")
        # NFS updates are synchronous on the server's single disk.
        self._disk = Mutex("nfsdir.disk")
        self.operational = True
        self.alive = True
        self._processes = [
            self.sim.spawn(self._server_thread(), f"nfsdir.srv{t}")
            for t in range(config.server_threads)
        ]
        self._obs = self.sim.obs
        registry = self.sim.obs.registry
        node = str(transport.address)
        self._c_reads = registry.counter(node, "dir.reads")
        self._c_writes = registry.counter(node, "dir.writes")

    def crash(self) -> None:
        """No fault tolerance: a crash simply stops the service."""
        self.alive = False
        self.operational = False
        for process in self._processes:
            process.kill("nfsdir crash")
        self._processes = []

    def _server_thread(self):
        latency = self.transport.nic.network.latency.cpu
        while self.alive:
            try:
                op, handle = yield self.rpc_server.getreq()
            except Interrupted:
                return
            try:
                if op.is_read:
                    yield from self.transport.cpu.use(latency.nfs_read_processing_ms)
                    try:
                        result = self.state.query(op)
                    except (DirectoryError, CapabilityError) as exc:
                        handle.error(exc)
                        continue
                    self._c_reads.inc()
                    handle.reply(result, size=96)
                else:
                    op = self._prepare(op)
                    yield from self._disk.acquire_gen()
                    try:
                        yield self.sim.sleep(latency.nfs_update_ms)
                        try:
                            result, _ = self.state.apply(op)
                        except (DirectoryError, CapabilityError) as exc:
                            handle.error(exc)
                            continue
                    finally:
                        self._disk.release()
                    self._c_writes.inc()
                    if isinstance(result, Exception):
                        # Failed session op: the cached-reply error.
                        handle.error(result)
                    else:
                        handle.reply(result, size=96)
            except Interrupted:
                raise
            except Exception as exc:
                handle.error(ServiceDown(f"internal error: {exc!r}"))

    def _prepare(self, op: DirectoryOp) -> DirectoryOp:
        if isinstance(op, SessionOp):
            inner = self._prepare(op.op)
            if inner is not op.op:
                return dataclasses.replace(op, op=inner)
            return op
        if isinstance(op, CreateDir) and op.check is None:
            rng = self.sim.rng.stream(f"nfsdir.{self.config.name}.check")
            return dataclasses.replace(op, check=new_check(rng))
        return op


class NfsFileServer:
    """Minimal /usr/tmp-style file service for the tmp-file test."""

    def __init__(self, transport: Transport, instance: str = "nfsfile"):
        self.transport = transport
        self.sim = transport.sim
        self.port = Port.for_service(f"nfs.file.{instance}")
        self.rpc_server = RpcServer(transport, self.port, instance)
        self._files: dict[int, bytes] = {}
        self._next = 1
        self.alive = True
        self._processes = [
            self.sim.spawn(self._serve(), f"{instance}.t{i}") for i in range(3)
        ]

    def crash(self) -> None:
        self.alive = False
        for process in self._processes:
            process.kill("nfsfile crash")
        self._processes = []

    def _serve(self):
        latency = self.transport.nic.network.latency.cpu
        while self.alive:
            try:
                request, handle = yield self.rpc_server.getreq()
            except Interrupted:
                return
            kind = request["op"]
            if kind == "create":
                yield self.sim.sleep(latency.nfs_file_create_ms)
                handle_id = self._next
                self._next += 1
                self._files[handle_id] = request["data"]
                handle.reply(handle_id)
            elif kind == "read":
                yield self.sim.sleep(latency.nfs_file_read_ms)
                data = self._files.get(request["handle"])
                if data is None:
                    handle.error(NoSuchFile(f"no file {request['handle']}"))
                else:
                    handle.reply(data, size=48 + len(data))
            elif kind == "delete":
                yield self.sim.sleep(latency.nfs_file_read_ms)
                self._files.pop(request["handle"], None)
                handle.reply(True)
            else:
                handle.error(NoSuchFile(f"unknown op {kind!r}"))


class NfsFileClient:
    """Client wrapper matching BulletClient's little API."""

    def __init__(self, rpc, port: Port):
        self.rpc = rpc
        self.port = port

    def create(self, data: bytes):
        handle = yield from self.rpc.trans(
            self.port, {"op": "create", "data": bytes(data)}, size=64 + len(data)
        )
        return handle

    def read(self, handle):
        data = yield from self.rpc.trans(
            self.port, {"op": "read", "handle": handle}, size=64
        )
        return data

    def delete(self, handle):
        result = yield from self.rpc.trans(
            self.port, {"op": "delete", "handle": handle}, size=64
        )
        return result

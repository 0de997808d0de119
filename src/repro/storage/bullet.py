"""The Bullet file server: immutable files named by capability.

Bullet (van Renesse et al., 1989) stores each file contiguously on
disk and whole in RAM when cached, which is why its operations are
cheap: a create is one sequential data write plus one sequential inode
write (no seeks — contiguous allocation is Bullet's signature), and a
read of a recently written file is served from the RAM cache without
touching the disk at all. The paper's directory servers store one
copy of every directory's contents in a Bullet file.

Files are immutable: there is no write/append — only create, read,
size, and delete. Deleting is a cheap cached free-list update.

Each :class:`BulletServer` instance has its own port (the paper pairs
each directory server with its own Bullet server), so there is no
replication at the file-server level; fault tolerance comes from the
directory service storing a copy per Bullet server.
"""

from __future__ import annotations

from repro.amoeba.capability import (
    Capability,
    Port,
    Rights,
    new_check,
    owner_capability,
    validate,
)
from repro.errors import CapabilityError, NoSuchFile
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.rpc.transport import Transport

#: Bytes of a Bullet inode (capability + extent descriptor).
INODE_SIZE = 64
#: Listening threads of one Bullet server: the requests it takes at
#: once (the kernel bounces the next one NOTHERE).
SERVER_THREADS = 4


class BulletServer:
    """One machine's immutable-file service."""

    def __init__(
        self,
        transport: Transport,
        disk,
        instance: str,
    ):
        self.transport = transport
        self.sim = transport.sim
        self.disk = disk
        self.instance = instance
        self.port = Port.for_service(f"bullet.{instance}")
        self._obs = self.sim.obs
        registry = self.sim.obs.registry
        node = f"bullet.{instance}"
        self._c_creates = registry.counter(node, "bullet.creates")
        self._c_reads = registry.counter(node, "bullet.reads")
        self._c_cache_hits = registry.counter(node, "bullet.cache_hits")
        self._c_deletes = registry.counter(node, "bullet.deletes")
        self._cache: dict[int, bytes] = {}
        self._table: dict[int, int] = {}  # object number -> owner check
        self._next_object = 1
        self._rpc = RpcServer(transport, self.port, f"bullet.{instance}")
        self._threads = [
            self.sim.spawn(self._serve(), f"bullet.{instance}.t{i}")
            for i in range(SERVER_THREADS)
        ]
        self._recover_from_disk()

    # -- lifecycle ---------------------------------------------------------

    def _recover_from_disk(self) -> None:
        """Rebuild the object table by scanning extents (server restart)."""
        for key in self.disk.extent_keys():
            if not (isinstance(key, tuple) and key[0] == "bullet"):
                continue
            _, instance, obj = key
            if instance != self.instance:
                continue
            check, _data = self.disk.peek_extent(key)
            self._table[obj] = check
            self._next_object = max(self._next_object, obj + 1)

    def crash(self) -> None:
        """Kill the server process state (the disk survives untouched)."""
        for thread in self._threads:
            thread.kill(f"bullet.{self.instance} crash")
        self._threads = []
        self._rpc.withdraw()
        self._cache.clear()

    @property
    def file_count(self) -> int:
        """Number of live files (for leak checks in tests)."""
        return len(self._table)

    # -- request processing ----------------------------------------------------

    def _serve(self):
        cpu = self.transport.cpu
        while True:
            request, handle = yield self._rpc.getreq()
            op = request["op"]
            lineage = request.get("lineage")
            try:
                if op == "create":
                    result = yield from self._create(request["data"], cpu, lineage)
                elif op == "read":
                    result = yield from self._read(request["cap"], cpu, lineage)
                elif op == "size":
                    result = yield from self._size(request["cap"], cpu)
                elif op == "delete":
                    result = yield from self._delete(request["cap"], cpu, lineage)
                else:
                    raise NoSuchFile(f"unknown bullet op {op!r}")
            except Exception as exc:
                handle.error(exc)
                continue
            handle.reply(result, size=_reply_size(result))

    def _extent_key(self, obj: int) -> tuple:
        return ("bullet", self.instance, obj)

    def _create(self, data: bytes, cpu, lineage=None):
        start = self.sim.now
        yield from cpu.use(1.0)
        obj = self._next_object
        self._next_object += 1
        check = new_check(self.sim.rng.stream(f"bullet.{self.instance}.check"))
        # Contiguous data write, then the inode commit — both
        # sequential thanks to Bullet's allocation strategy.
        yield from self.disk.write_extent(
            self._extent_key(obj), (check, bytes(data)), len(data),
            kind="sequential", lineage=lineage,
        )
        yield from self.disk.write_block(
            0, b"", kind="sequential", lineage=lineage
        )  # inode log
        self._table[obj] = check
        self._cache[obj] = bytes(data)
        self._c_creates.inc()
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                f"bullet.{self.instance}", "bullet", "bullet.create",
                ph="X", dur=self.sim.now - start, ts=start,
                lineage=lineage, bytes=len(data),
            )
        return owner_capability(self.port, obj, check)

    def _validated_object(self, cap: Capability, required: Rights) -> int:
        if cap.port != self.port:
            raise CapabilityError(f"capability {cap} is not for bullet.{self.instance}")
        owner_check = self._table.get(cap.object_number)
        if owner_check is None:
            raise NoSuchFile(f"no file {cap.object_number} at bullet.{self.instance}")
        if not validate(cap, owner_check):
            raise CapabilityError(f"bad check field in {cap}")
        if not cap.has_rights(required):
            raise CapabilityError(f"{cap} lacks {required!r}")
        return cap.object_number

    def _read(self, cap: Capability, cpu, lineage=None):
        obj = self._validated_object(cap, Rights.READ)
        yield from cpu.use(0.5)
        self._c_reads.inc()
        cached = self._cache.get(obj)
        if cached is not None:
            self._c_cache_hits.inc()
            return cached
        check_and_data = yield from self.disk.read_extent(
            self._extent_key(obj), 1024, kind="random", lineage=lineage
        )
        data = check_and_data[1]
        self._cache[obj] = data
        return data

    def _size(self, cap: Capability, cpu):
        obj = self._validated_object(cap, Rights.READ)
        yield from cpu.use(0.3)
        cached = self._cache.get(obj)
        if cached is not None:
            return len(cached)
        check_and_data = yield from self.disk.read_extent(
            self._extent_key(obj), 1024, kind="random"
        )
        return len(check_and_data[1])

    def _delete(self, cap: Capability, cpu, lineage=None):
        obj = self._validated_object(cap, Rights.DESTROY)
        yield from cpu.use(0.5)
        yield from self.disk.delete_extent(self._extent_key(obj), lineage=lineage)
        self._table.pop(obj, None)
        self._cache.pop(obj, None)
        self._c_deletes.inc()
        return True


def _reply_size(result) -> int:
    if isinstance(result, (bytes, bytearray)):
        return 48 + len(result)
    return 64


class BulletClient:
    """Client-side convenience wrapper for one Bullet server's port."""

    def __init__(self, rpc: RpcClient, port: Port):
        self.rpc = rpc
        self.port = port

    def create(self, data: bytes, lineage=None):
        """Store an immutable file; returns its owner capability.

        *lineage* rides the request so the server stamps its disk
        operations with the originating group message id.
        """
        cap = yield from self.rpc.trans(
            self.port,
            {"op": "create", "data": bytes(data), "lineage": lineage},
            size=64 + len(data),
        )
        return cap

    def read(self, cap: Capability, lineage=None):
        """Fetch a whole file by capability."""
        data = yield from self.rpc.trans(
            self.port, {"op": "read", "cap": cap, "lineage": lineage}, size=80
        )
        return data

    def size(self, cap: Capability):
        """File length in bytes."""
        result = yield from self.rpc.trans(self.port, {"op": "size", "cap": cap}, size=80)
        return result

    def delete(self, cap: Capability, lineage=None):
        """Remove a file (requires DESTROY rights)."""
        result = yield from self.rpc.trans(
            self.port, {"op": "delete", "cap": cap, "lineage": lineage}, size=80
        )
        return result

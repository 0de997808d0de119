"""Deployment builders: whole simulated machine rooms in one call.

The paper's Fig. 3 organization for the group service: three directory
servers, three Bullet servers, and three disks, where directory server
*i* uses Bullet server *i* and both share disk *i*. This module builds
that (and the RPC / NVRAM / NFS deployments) on a simulated Ethernet,
and provides crash/restart/partition helpers for tests, examples, and
benchmarks.
"""

from __future__ import annotations


from repro.amoeba.capability import owner_capability
from repro.directory.admin import AdminPartition
from repro.directory.client import DirectoryClient
from repro.directory.config import ServiceConfig
from repro.directory.group_server import GroupDirectoryServer
from repro.directory.state import ROOT_OBJECT, DirectoryState
from repro.errors import SimulationError
from repro.net.network import Network
from repro.rpc.client import RpcTimings
from repro.rpc.transport import Transport
from repro.sim.latency import LatencyModel
from repro.sim.scheduler import Simulator
from repro.storage.bullet import BulletServer
from repro.storage.disk import DISK_OP_KINDS, Disk, RawPartition
from repro.storage.replicated_bullet import FileState, ReplicatedBulletClient

#: Disk layout: Bullet extents use the disk at large; the directory
#: server's raw partition sits at this block offset.
ADMIN_PARTITION_START = 2048
ADMIN_PARTITION_BLOCKS = 1024


class Site:
    """One replica site: directory machine + Bullet machine + disk.
    The network stacks and the disk outlive reboots; the server object
    is replaced by each one."""

    def __init__(self, cluster: "BaseCluster", index: int):
        sim, network = cluster.sim, cluster.network
        self.cluster = cluster
        self.index = index
        self.server = None  # set by the cluster
        self.dir_address = f"{cluster.name}.dir{index}"
        self.bullet_address = f"{cluster.name}.bullet{index}"
        self.disk = Disk(
            sim,
            f"{cluster.name}.disk{index}",
            latency=cluster.latency.disk,
            blocks=ADMIN_PARTITION_START + ADMIN_PARTITION_BLOCKS,
            integrity=cluster.integrity,
        )
        self.dir_transport = Transport(sim, network.attach(self.dir_address))
        self.bullet_transport = Transport(sim, network.attach(self.bullet_address))
        self.bullet = BulletServer(
            self.bullet_transport, self.disk, f"{cluster.name}.{index}"
        )
        self.partition = RawPartition(
            self.disk, ADMIN_PARTITION_START, ADMIN_PARTITION_BLOCKS
        )

    # -- failure injection --------------------------------------------------

    def crash_directory_server(self) -> None:
        """Fail-stop crash of the directory-server machine only."""
        self.server.crash()
        self.dir_transport.shutdown()

    def crash_bullet_server(self) -> None:
        """Fail-stop crash of the Bullet machine (files survive on disk)."""
        self.bullet.crash()
        self.bullet_transport.shutdown()

    def restart_bullet_server(self) -> None:
        self.bullet_transport.restart()
        self.bullet = BulletServer(
            self.bullet_transport, self.disk, f"{self.cluster.name}.{self.index}"
        )

    def report(self) -> dict:
        """Registry reads: the disk's ops by kind and each machine's
        CPU busy time, over every reboot of the site."""
        counter = self.cluster.obs.registry.counter
        return {
            "disk_ops": {
                kind: counter(self.disk.name, f"disk.{kind}").value
                for kind in DISK_OP_KINDS
            },
            "dir_cpu_busy_ms": counter(self.dir_transport.cpu.node, "cpu.busy_ms").value,
            "bullet_cpu_busy_ms": counter(self.bullet_transport.cpu.node, "cpu.busy_ms").value,
        }


class BaseCluster:
    """The deployment surface, written once: simulator, network, client
    factory, and the lifecycle of the server machines — boot, wait,
    crash, reboot. The ``*Cluster`` classes say what they are made of
    (``_make_server`` builds one machine's server object) and add only
    what is theirs."""

    #: What :meth:`add_client` hands out.
    CLIENT = DirectoryClient

    def __init__(
        self,
        name: str,
        seed: int = 0,
        latency: LatencyModel | None = None,
        sim: Simulator | None = None,
        network: Network | None = None,
    ):
        self.name = name
        self.sim = sim or Simulator(seed=seed)
        self.latency = latency or LatencyModel.paper_testbed()
        self.network = network or Network(self.sim, self.latency)
        #: The simulator's observability bundle (repro.obs).
        self.obs = self.sim.obs
        self.clients: dict[str, DirectoryClient] = {}
        #: Checksummed storage envelopes on every site disk.
        self.integrity = False
        #: The server machines, by server index (none on the
        #: single-copy NFS baseline, which nothing crashes or reboots).
        self.sites: list[Site] = []

    def _build_sites(self, n_servers: int, config, config_overrides) -> None:
        """The Fig. 3 sites and the ServiceConfig that names them."""
        # Must be known before the sites — and their disks — are built.
        self.integrity = (
            config.integrity
            if config is not None
            else bool(config_overrides.get("integrity", False))
        )
        self.sites = [Site(self, i) for i in range(n_servers)]
        if config is None:
            config = ServiceConfig(
                name=self.name,
                server_addresses=tuple(site.dir_address for site in self.sites),
                **config_overrides,
            )
        self.config = config

    def enable_tracing(self, capacity: int | None = None):
        """Turn on the causal trace recorder (see docs/OBSERVABILITY.md).

        With *capacity* the recorder is a ring buffer holding the last
        N events (flight-recorder mode); without it the buffer is
        unbounded. Returns the recorder for convenience.
        """
        self.obs.tracer.enable(capacity)
        return self.obs.tracer

    def add_client(
        self,
        client_name: str,
        rpc_timings: RpcTimings | None = None,
        retry_safe: bool = False,
        cache_size: int = 0,
        cache_nocoherence: bool = False,
    ) -> DirectoryClient:
        """Attach a new client machine and return its client object.

        ``retry_safe=True`` turns on the exactly-once session layer:
        mutating operations are stamped with (client_id, seqno) and
        blindly resent on RPC failure (see docs/PROTOCOL.md, "Session
        semantics").

        ``cache_size>0`` gives the client a coherent lookup cache (the
        deployment must run with ``cache_coherence=True`` or lookups
        simply never hit); ``cache_nocoherence=True`` is the chaos
        suite's stale-read control (acknowledge-but-ignore
        invalidations) and must never be used outside it.
        """
        address = f"{self.name}.client.{client_name}"
        transport = Transport(self.sim, self.network.attach(address))
        # Amoeba's trans() keeps retrying until it finds a server, so
        # the default client is persistent in the face of NOTHERE
        # bounces and locate misses.
        client = self.CLIENT(
            transport,
            self.service_port,
            rpc_timings
            or RpcTimings(
                reply_timeout_ms=10_000.0, max_attempts=40, locate_attempts=20
            ),
            retry_safe=retry_safe,
            **({"cache_size": cache_size} if cache_size else {}),
            **(
                {"cache_nocoherence": cache_nocoherence}
                if cache_nocoherence
                else {}
            ),
        )
        self.clients[client_name] = client
        return client

    @property
    def service_port(self):
        return self.config.port

    @property
    def root_capability(self):
        """The service's root directory capability (deterministic)."""
        return owner_capability(
            self.config.port, ROOT_OBJECT, self.config.root_check
        )

    @property
    def servers(self) -> list:
        return [site.server for site in self.sites]

    def operational_servers(self) -> list:
        return [s for s in self.servers if s.operational]

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Boot every server (each begins with its recovery)."""
        for server in self.servers:
            server.start()

    def wait_operational(self, timeout_ms: float = 30_000.0, quorum: int | None = None):
        """Run the simulation until the servers are serving.

        *quorum* defaults to all currently-alive servers: with a
        replica down, the deployment is operational once the survivors
        serve.
        """
        needed = quorum if quorum is not None else sum(
            1 for s in self.servers if s.alive
        )
        deadline = self.sim.now + timeout_ms
        while self.sim.now < deadline:
            if len(self.operational_servers()) >= needed:
                return
            self.sim.run(until=min(self.sim.now + 20.0, deadline))
        raise SimulationError(
            f"service not operational after {timeout_ms} ms "
            f"({[s.operational for s in self.servers]})"
        )

    # -- failure injection --------------------------------------------------------

    def crash_server(self, index: int) -> None:
        """Crash server *index* (its disk, and a site's Bullet, survive)."""
        self.sites[index].crash_directory_server()

    def restart_server(self, index: int):
        """Reboot server *index*; it re-runs its recovery.

        A restart is a reboot whoever calls it: an incumbent that is
        still running is fail-stopped first, never left serving beside
        its successor on the same transport.
        """
        site = self.sites[index]
        if site.server.alive:
            site.crash_directory_server()
        site.dir_transport.restart()
        site.server = self._make_server(site)
        site.server.start()
        return site.server

    def run(self, until: float | None = None) -> float:
        return self.sim.run(until=until)

    def run_process(self, gen, name: str = "driver"):
        """Spawn *gen* and run the simulation until it completes."""
        return self.sim.run_until_complete(self.sim.spawn(gen, name))

    def report(self) -> dict:
        """Deployment-wide observability snapshot.

        Wire totals, per-kind frame counts, per-site disk and CPU
        figures and per-server request counts. Benches and examples
        print this to explain *where* the costs went. Every count is a
        registry read, and a server's counts are its node's: they span
        the server's reboots.
        """
        metrics = self.obs.registry.snapshot()
        wire = metrics["net"]["counters"]
        out = {
            "simulated_ms": self.sim.now,
            "frames_sent": wire["net.frames_sent"],
            "bytes_sent": wire["net.bytes_sent"],
            "frames_dropped": wire["net.frames_dropped"],
            "frames_by_kind": self.network.stats.snapshot(),
        }
        if self.sites:
            out["sites"] = [site.report() for site in self.sites]
        out["servers"] = []
        for server in self.servers:
            counts = metrics.get(str(server.transport.address), {}).get("counters", {})
            out["servers"].append({
                "reads": counts.get("dir.reads"),
                "writes": counts.get("dir.writes"),
                "refused": counts.get("dir.refused"),
                "operational": server.operational,
            })
        out["metrics"] = metrics
        return out


class GroupServiceCluster(BaseCluster):
    """The triplicated group directory service of the paper."""

    #: The state machine its servers replicate.
    STATE = DirectoryState

    def __init__(
        self,
        n_servers: int = 3,
        name: str = "grp",
        seed: int = 0,
        latency: LatencyModel | None = None,
        config: ServiceConfig | None = None,
        sim: Simulator | None = None,
        network: Network | None = None,
        **config_overrides,
    ):
        super().__init__(name, seed, latency, sim, network)
        self._build_sites(n_servers, config, config_overrides)
        self._view_log_archive: list[dict] = []
        for site in self.sites:
            site.server = self._make_server(site)

    def _make_server(self, site: Site) -> GroupDirectoryServer:
        admin = AdminPartition(
            site.partition,
            site.index,
            self.config.n_servers,
        )
        return GroupDirectoryServer(
            self.config,
            site.index,
            site.dir_transport,
            site.bullet.port,
            admin,
            nvram=self._board(site),
            state_class=self.STATE,
        )

    def _board(self, site: Site):
        """The site's NVRAM board, for deployments that have one."""
        return None

    def restart_server(self, index: int) -> GroupDirectoryServer:
        # The replaced kernel's membership history outlives it.
        self._view_log_archive.extend(_view_log(self.sites[index]))
        return super().restart_server(index)

    def report(self) -> dict:
        out = super().report()
        out["view_changes"] = self.view_history()
        return out

    def view_history(self) -> list[dict]:
        """Every view change any replica adopted — epoch, members,
        sequencer, resilience, trigger — across restarts,
        deterministically ordered."""
        entries = list(self._view_log_archive)
        for site in self.sites:
            entries.extend(_view_log(site))
        entries.sort(key=lambda e: (e["at_ms"], e["node"], e["epoch"]))
        return entries

    def partition_network(self, *groups) -> None:
        """Split the network; each group lists *server indexes*. The
        Bullet machine of a site follows its site. The FIRST group
        stays with all unmentioned machines (clients), so clients keep
        talking to it unless moved explicitly."""
        address_groups = []
        for group in groups[1:]:
            addresses = []
            for index in group:
                addresses.append(self.sites[index].dir_address)
                addresses.append(self.sites[index].bullet_address)
            address_groups.append(addresses)
        self.network.partitions.split(address_groups)

    def heal_network(self) -> None:
        self.network.partitions.heal()

    # -- verification ---------------------------------------------------------------

    def replicas_consistent(self) -> bool:
        """All operational replicas hold identical state."""
        fingerprints = {
            s.state.fingerprint() for s in self.operational_servers()
        }
        return len(fingerprints) <= 1


def _view_log(site: Site) -> list[dict]:
    """The site's current kernel's membership history, node-stamped."""
    return [
        {"node": str(site.dir_address), **entry}
        for entry in site.server.member.kernel.view_log
    ]


class NvramServiceCluster(GroupServiceCluster):
    """The group service with a 24 KB NVRAM board per server."""

    def __init__(self, *args, nvram_bytes: int | None = None, **kwargs):
        self._nvram_bytes = nvram_bytes
        super().__init__(*args, **kwargs)

    def _board(self, site: Site):
        from repro.storage.nvram import PAPER_NVRAM_BYTES, Nvram

        if getattr(site, "nvram", None) is None:
            site.nvram = Nvram(  # the board survives server restarts
                self.sim,
                capacity_bytes=self._nvram_bytes or PAPER_NVRAM_BYTES,
                name=f"{self.name}.nvram{site.index}",
                integrity=self.integrity,
            )
        return site.nvram


class RpcServiceCluster(BaseCluster):
    """The duplicated RPC directory service (the previous design). A
    rebooted server refreshes from its peer (or its own disk when the
    peer is unreachable)."""

    def __init__(
        self,
        name: str = "rpc",
        seed: int = 0,
        latency: LatencyModel | None = None,
        config: ServiceConfig | None = None,
        sim: Simulator | None = None,
        network: Network | None = None,
        **config_overrides,
    ):
        super().__init__(name, seed, latency, sim, network)
        self._build_sites(2, config, config_overrides)
        for site in self.sites:
            site.server = self._make_server(site)

    def _make_server(self, site: Site):
        from repro.directory.rpc_server import RpcDirectoryServer

        admin = AdminPartition(site.partition, site.index, 2)
        return RpcDirectoryServer(
            self.config, site.index, site.dir_transport, site.bullet.port, admin
        )

    def settle(self, ms: float = 1000.0) -> None:
        """Let lazy replication drain."""
        self.sim.run(until=self.sim.now + ms)

    def replicas_content_consistent(self) -> bool:
        """Directory contents equal on both replicas (the RPC design's
        counters legitimately differ — lazy replication)."""
        fingerprints = {
            s.state.content_fingerprint() for s in self.operational_servers()
        }
        return len(fingerprints) <= 1

    # Uniform verification surface (repro.verify / repro.chaos): for
    # the RPC design "consistent" can only mean content-consistent.
    def replicas_consistent(self) -> bool:
        return self.replicas_content_consistent()


class ReplicatedBulletCluster(NvramServiceCluster):
    """The section-5 extension: the Bullet file service itself
    replicated over group communication (optionally with NVRAM) — the
    group service's sites and servers, holding files."""

    STATE = FileState
    CLIENT = ReplicatedBulletClient

    def __init__(
        self,
        name: str = "rbul",
        seed: int = 0,
        n_servers: int = 3,
        nvram: bool = False,
        **kwargs,
    ):
        self._nvram = nvram
        super().__init__(n_servers, name, seed, **kwargs)

    def _board(self, site: Site):
        return super()._board(site) if self._nvram else None


class NfsServiceCluster(BaseCluster):
    """The single-copy SunOS/NFS-like baseline."""

    def __init__(
        self,
        name: str = "nfs",
        seed: int = 0,
        latency: LatencyModel | None = None,
        sim: Simulator | None = None,
        network: Network | None = None,
        **config_overrides,
    ):
        super().__init__(name, seed, latency, sim, network)
        from repro.directory.nfs_server import NfsDirectoryServer, NfsFileServer

        self.server_address = f"{name}.server"
        transport = Transport(self.sim, self.network.attach(self.server_address))
        self.config = ServiceConfig(
            name=name, server_addresses=(self.server_address,), **config_overrides
        )
        self.server = NfsDirectoryServer(self.config, transport)
        self.file_server = NfsFileServer(transport, f"{name}.files")

    @property
    def servers(self) -> list:
        return [self.server]

    def start(self) -> None:
        pass  # constructed running

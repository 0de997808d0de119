"""Shared test scaffolding: a small simulated machine room."""

from __future__ import annotations

from repro.amoeba.capability import owner_capability
from repro.directory.state import ROOT_OBJECT
from repro.errors import ReproError
from repro.net import Network
from repro.net.policy import Drop
from repro.rpc import Transport
from repro.sim import LatencyModel, Simulator
from repro.storage.disk import DISK_OP_KINDS


class Machine:
    """A simulated host: NIC + transport (+ CPU via the transport)."""

    def __init__(self, network: Network, address):
        self.address = address
        self.nic = network.attach(address)
        self.transport = Transport(network.sim, self.nic)

    @property
    def cpu(self):
        return self.transport.cpu

    def listen(self, *kinds) -> list:
        """Take frames of *kinds* through the transport — the one
        receive path a machine has — and return the list each arriving
        :class:`~repro.net.network.Packet` is appended to."""
        frames = []
        for kind in kinds:
            self.transport.register(kind, frames.append)
        return frames

    def crash(self):
        self.transport.shutdown()

    def restart(self):
        self.transport.restart()


class TestBed:
    """Simulator + network + a set of machines, built in one call."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, addresses, seed=0, latency=None, loss=0.0):
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, latency or LatencyModel.paper_testbed())
        if loss:
            self.network.add_policy(Drop("loss", probability=loss))
        self.machines = {a: Machine(self.network, a) for a in addresses}

    def __getitem__(self, address) -> Machine:
        return self.machines[address]

    def run(self, until=None):
        return self.sim.run(until=until)

    def run_until(self, process):
        return self.sim.run_until_complete(process)


def pin_to_server(client, cluster, index):
    """Pin a directory *client*'s port cache to one replica of
    *cluster* (no locate race; pinned entries never age)."""
    client.rpc._kernel.port_cache[cluster.config.port] = [
        cluster.config.server_addresses[index]
    ]


def counter_total(sim, name):
    """Registry counter *name* summed over every node (0 when no node
    ever made it — some counters exist from first use only)."""
    return sum(
        node.get("counters", {}).get(name, 0)
        for node in sim.obs.registry.snapshot().values()
    )


def wire_count(network, name):
    """The segment-wide registry counter *name* (``net.frames_sent``,
    ``net.frames_dropped``, ...) of *network*."""
    return network.sim.obs.registry.counter("net", name).value


def disk_ops(disk):
    """*disk*'s operations by kind: its ``disk.<kind>`` registry counters."""
    counter = disk.sim.obs.registry.counter
    return {kind: counter(disk.name, f"disk.{kind}").value for kind in DISK_OP_KINDS}


def count(device, name):
    """Registry counter *name* of a :class:`Disk` or :class:`Nvram`
    (its node is the device's name)."""
    return device.sim.obs.registry.counter(device.name, name).value


def root_capability(state):
    """Owner capability of a :class:`DirectoryState`'s root directory."""
    return owner_capability(state.port, ROOT_OBJECT, state.checks[ROOT_OBJECT])


def sleeper(sim, op_ms, fail_every, calls):
    """A closed-loop iteration that sleeps *op_ms*, noting ``(n, start)``
    in *calls*; every *fail_every*-th call raises after its sleep."""

    def iteration(n):
        calls.append((n, sim.now))
        yield sim.sleep(op_ms)
        if fail_every and len(calls) % fail_every == 0:
            raise ReproError("injected")

    return iteration

"""Experiment runners for the paper's evaluation (section 4).

The evaluation has two experiment shapes and this module has one
function for each: :func:`solo_run`, one unloaded client timing a fixed
operation sequence (Fig. 7), and :func:`closed_loop`, N clients that
each wait for their reply before sending again (Figs. 8 and 9). Every
other driver in the repository — the figure functions below, ``perf``
(:mod:`repro.bench.simbench`), ``capacity`` (:mod:`repro.obs.capacity`),
``trace``/``profile`` (:mod:`repro.obs.spans`) — builds a deployment and
calls one of the two.

Implementations are addressed by name (:data:`IMPLEMENTATIONS`):

* ``"group"`` — the triplicated group-communication service;
* ``"rpc"`` — the duplicated RPC service (previous design);
* ``"nfs"`` — the single-copy SunOS/NFS-like baseline;
* ``"nvram"`` — the group service with the 24 KB NVRAM board.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.cluster import (
    GroupServiceCluster,
    NfsServiceCluster,
    NvramServiceCluster,
    RpcServiceCluster,
)
from repro.directory.nfs_server import NfsFileClient
from repro.obs.spans import OpWindow
from repro.storage.bullet import BulletClient
from repro.workloads.clients import ClosedLoopClient, run_closed_loop
from repro.workloads.generators import (
    append_delete_once,
    lookup_once,
    tmp_file_once,
)
from repro.workloads.metrics import Metrics

#: impl -> (cluster class, default deployment name). The one place a
#: deployment is picked by name: :func:`build_deployment` is how every
#: driver, the ledger and the chaos runner get a booted cluster.
IMPLEMENTATIONS = {
    "group": (GroupServiceCluster, "grp"),
    "rpc": (RpcServiceCluster, "rpc"),
    "nfs": (NfsServiceCluster, "nfs"),
    "nvram": (NvramServiceCluster, "nvr"),
}

#: Fig. 7 of the paper, msec (columns: implementation).
PAPER_FIG7 = {
    "append_delete": {"group": 184, "rpc": 192, "nfs": 87, "nvram": 27},
    "tmp_file": {"group": 215, "rpc": 277, "nfs": 111, "nvram": 52},
    "lookup": {"group": 5, "rpc": 5, "nfs": 6, "nvram": 5},
}

#: Saturation throughputs the paper reports around Figs. 8 and 9.
PAPER_SATURATION = {
    "lookup": {"group": 652, "rpc": 520, "nvram": 652},
    "append_delete": {"group": 5, "rpc": 5, "nvram": 45},
}

#: The paper's server: one record per apply/persist loop and the
#: classic two-write commit (docs/PROTOCOL.md "Group commit"). Every
#: driver that reproduces a paper number — Figs. 7/8/9, the E4 message
#: and disk-op counts, ``trace``/``profile`` — builds its deployment
#: with this; :func:`build_deployment` alone boots the engineered
#: default (group commit), which ``perf``, Fig. 9b and the ledger
#: measure on purpose.
PAPER_SERVER = {"batch_max": 1}


@dataclass
class Deployment:
    """A booted cluster plus its file service for the tmp-file test."""

    impl: str
    cluster: object

    def add_client(self, name: str):
        return self.cluster.add_client(name)

    def file_service_for(self, directory_client):
        """A file-service client sharing the directory client's RPC."""
        if self.impl == "nfs":
            return NfsFileClient(
                directory_client.rpc, self.cluster.file_server.port
            )
        return BulletClient(directory_client.rpc, self.cluster.sites[0].bullet.port)

    @property
    def root(self):
        return self.cluster.root_capability

    @property
    def sim(self):
        return self.cluster.sim


def build_deployment(impl: str, seed: int = 0, **kwargs) -> Deployment:
    """Boot one implementation and wait until it serves."""
    if impl not in IMPLEMENTATIONS:
        raise ValueError(f"unknown implementation {impl!r}")
    cluster_class, default_name = IMPLEMENTATIONS[impl]
    kwargs.setdefault("name", default_name)
    cluster = cluster_class(seed=seed, **kwargs)
    cluster.start()
    cluster.wait_operational()
    return Deployment(impl, cluster)


# ----------------------------------------------------------------------
# The solo run (Fig. 7's shape)
# ----------------------------------------------------------------------

SOLO_TESTS = tuple(PAPER_FIG7)


def solo_run(deployment, test: str, iterations: int, trace_capacity=False) -> list:
    """One unloaded client runs *test* *iterations* times; returns one
    :class:`~repro.obs.spans.OpWindow` per client operation.

    An append-delete iteration is two windows sharing a pair index; the
    tmp-file sequence, which also talks to the file service, is one.
    Unless *trace_capacity* is False the flight recorder is switched on
    (ring of that many events, None for unbounded) once set-up is done,
    so a trace holds the measured operations only.
    """
    if test not in SOLO_TESTS:
        raise ValueError(f"unknown test {test!r}")
    client = deployment.add_client("bench")
    sim = deployment.sim
    root = deployment.root
    windows: list = []

    def timed(op, pair, call):
        start = sim.now
        yield from call
        windows.append(OpWindow(op, start, sim.now, pair))

    def driver():
        target = yield from client.create_dir()  # warm locate + a capability
        if test == "lookup":
            yield from client.append_row(root, "bench-name", (target,))
        file_service = deployment.file_service_for(client)
        if test == "tmp_file":
            # Warm the file service's port cache outside the window.
            warm = yield from file_service.create(b"warm")
            yield from file_service.read(warm)
        if trace_capacity is not False:
            deployment.cluster.enable_tracing(trace_capacity)
        for i in range(iterations):
            if test == "append_delete":
                yield from timed(
                    "append", i, client.append_row(root, f"t{i}", (target,)))
                yield from timed("delete", i, client.delete_row(root, f"t{i}"))
            elif test == "tmp_file":
                yield from timed(
                    "tmp_file", i,
                    tmp_file_once(client, root, file_service, f"f{i}"))
            else:
                yield from timed(
                    "lookup", i, lookup_once(client, root, "bench-name"))

    deployment.cluster.run_process(driver())
    return windows


def fig7_cell(
    impl: str, test: str, iterations: int = 15, seed: int = 0, **deploy_kwargs
) -> float:
    """Mean latency (ms) of one Fig. 7 cell.

    The paper's server unless overridden: the group-commit bench
    names the batched default's ``batch_max`` to compare the two, and
    the disk ablation swaps the latency model, on otherwise identical
    deployments.
    """
    deployment = build_deployment(
        impl, seed=seed, **{**PAPER_SERVER, **deploy_kwargs})
    first: dict = {}
    last: dict = {}
    for window in solo_run(deployment, test, iterations):
        first.setdefault(window.pair, window.start)
        last[window.pair] = window.end
    samples = [last[pair] - start for pair, start in first.items()]
    return sum(samples) / len(samples)


def fig7_table(iterations: int = 15, seed: int = 0) -> dict:
    """The whole Fig. 7: {test: {impl: measured_ms}}."""
    table: dict = {}
    for test in SOLO_TESTS:
        table[test] = {}
        for impl in IMPLEMENTATIONS:
            table[test][impl] = fig7_cell(impl, test, iterations, seed)
    return table


# ----------------------------------------------------------------------
# The closed loop (Figs. 8 and 9's shape)
# ----------------------------------------------------------------------

def _lookup(client, root, target, tag):
    return lambda _n: lookup_once(client, root, "hot-name")


def _update(client, root, target, tag):
    return lambda n: append_delete_once(client, root, f"w{tag}-{n}", target)


def _mixed(client, root, target, tag):
    def iteration(n):
        if n % 10 == 0:  # 1 iteration in 10 is an append/delete pair
            return append_delete_once(client, root, f"m{tag}-{n}", target)
        return lookup_once(client, root, "hot-name")

    return iteration


#: workload -> (set-up installs the ``hot-name`` row the lookups read,
#: factory of one client's iteration: ``(client, root, target, tag) ->
#: (n -> generator)``).
WORKLOADS = {
    "lookup": (True, _lookup),
    "update": (False, _update),
    "mixed": (True, _mixed),
}


class LoopResult(NamedTuple):
    """What one :func:`closed_loop` run measured."""

    per_second: float  # iterations completed inside the window, per sim-second
    ops: int  # every completed iteration, warm-up and drain included
    errors: int


def closed_loop(
    deployment,
    workload: str,
    n_clients: int,
    warmup_ms: float,
    measure_ms: float,
    window=None,
) -> LoopResult:
    """*n_clients* closed-loop clients run *workload* against a booted
    deployment: set-up, warm-up, a measurement window, drain.

    *window* is handed to
    :func:`~repro.workloads.clients.run_closed_loop`: a context manager
    that brackets the measurement window.
    """
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; pick from {sorted(WORKLOADS)}")
    needs_hot_name, make_iteration = WORKLOADS[workload]
    sim = deployment.sim
    root = deployment.root
    setup_client = deployment.add_client("setup")

    def setup():
        target = yield from setup_client.create_dir()
        if needs_hot_name:
            yield from setup_client.append_row(root, "hot-name", (target,))
        return target

    target = deployment.cluster.run_process(setup())
    metrics = Metrics()
    clients = [
        ClosedLoopClient(
            sim,
            f"load{i}",
            make_iteration(deployment.add_client(f"load{i}"), root, target, i),
            metrics,
            "op",
        )
        for i in range(n_clients)
    ]
    run_closed_loop(sim, clients, warmup_ms, measure_ms, window)
    return LoopResult(
        metrics.throughput_per_second("op", measure_ms),
        sum(c.iterations for c in clients),
        sum(c.errors for c in clients),
    )


def lookup_throughput(
    impl: str,
    n_clients: int,
    seed: int = 0,
    warmup_ms: float = 2_000.0,
    measure_ms: float = 10_000.0,
    **deploy_kwargs,
) -> float:
    """One Fig. 8 point: total lookups/second with *n_clients*."""
    deployment = build_deployment(
        impl, seed=seed, **{**PAPER_SERVER, **deploy_kwargs})
    return closed_loop(
        deployment, "lookup", n_clients, warmup_ms, measure_ms).per_second


def update_throughput(
    impl: str,
    n_clients: int,
    seed: int = 0,
    warmup_ms: float = 2_000.0,
    measure_ms: float = 20_000.0,
    **deploy_kwargs,
) -> float:
    """One update-throughput point: append-delete PAIRS/second with
    *n_clients*. A Fig. 9 row passes ``**PAPER_SERVER``; bare, this
    measures the batched default (Fig. 9b, the headline NVRAM rate)."""
    deployment = build_deployment(impl, seed=seed, **deploy_kwargs)
    return closed_loop(
        deployment, "update", n_clients, warmup_ms, measure_ms).per_second

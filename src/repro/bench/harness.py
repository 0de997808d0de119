"""Experiment runners for the paper's evaluation (section 4).

The evaluation has two experiment shapes and this module has one
function for each: :func:`solo_run`, one unloaded client timing a fixed
operation sequence (Fig. 7), and :func:`drive`, N clients that each
wait for their reply before sending again (Figs. 8 and 9), which
:func:`closed_loop` runs for the paper's workloads. Every other driver
in the repository builds a deployment and calls one of them.

The lenses — ``trace``, ``capacity`` and ``perf`` — name
a run by one table, :data:`SCENARIOS`, and read the one record,
:class:`Run`, that :func:`run_solo` or :func:`run_loop` returns.

Implementations are addressed by name (:data:`IMPLEMENTATIONS`):

* ``"group"`` — the triplicated group-communication service;
* ``"rpc"`` — the duplicated RPC service (previous design);
* ``"nfs"`` — the single-copy SunOS/NFS-like baseline;
* ``"nvram"`` — the group service with the 24 KB NVRAM board.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter_ns
from typing import NamedTuple

from repro.cluster import (
    GroupServiceCluster,
    NfsServiceCluster,
    NvramServiceCluster,
    RpcServiceCluster,
)
from repro.directory.nfs_server import NfsFileClient
from repro.errors import ReproError
from repro.hashing import sha256
from repro.obs.monitor import HealthMonitor
from repro.obs.registry import Window
from repro.obs.saturation import Sampler
from repro.obs.spans import OpWindow, stitch
from repro.storage.bullet import BulletClient
from repro.workloads.generators import (
    append_delete_once,
    lookup_once,
    tmp_file_once,
)

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
#: and disk-op counts, ``trace`` — builds its deployment
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


def solo_run(deployment, test: str, iterations: int, trace: bool = False) -> list:
    """One unloaded client runs *test* *iterations* times; returns one
    :class:`~repro.obs.spans.OpWindow` per client operation.

    An append-delete iteration is two windows sharing a pair index; the
    tmp-file sequence, which also talks to the file service, is one.
    With *trace* the flight recorder is switched on, unbounded, once
    set-up is done, so a trace holds the measured operations only.
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
        if trace:
            deployment.cluster.enable_tracing()
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
    """What one :func:`drive` run measured."""

    per_second: float  # iterations completed inside the window, per sim-second
    ops: int  # every completed iteration, warm-up and drain included
    errors: int


def drive(sim, iterations, warmup_ms: float, measure_ms: float, window=None):
    """One client process per ``n -> generator`` factory in *iterations*
    (``n``: its completed iterations), spawned in list order, each
    running iterations back to back through a warm-up, the measurement
    window and a 2 s drain; it backs off 5 ms after a
    :class:`~repro.errors.ReproError` and starts none after the window.
    An iteration that starts and ends inside the window counts toward
    ``per_second``. *window*, a context manager, brackets the window
    (resuming ``sim.run`` there does not change the schedule). Returns
    the :class:`LoopResult` and the processes."""
    opens = sim.now + warmup_ms
    closes = opens + measure_ms
    in_window = completed = errors = 0

    def client(make_iteration):
        nonlocal in_window, completed, errors
        n = 0
        while sim.now <= closes:
            start = sim.now
            try:
                yield from make_iteration(n)
            except ReproError:
                errors += 1
                yield sim.sleep(5.0)  # brief backoff after failure
                continue
            n += 1
            completed += 1
            if start >= opens and sim.now <= closes:
                in_window += 1

    processes = [
        sim.spawn(client(make_iteration), f"loop-{i}")
        for i, make_iteration in enumerate(iterations)
    ]
    sim.run(until=opens)
    with window if window is not None else nullcontext():
        sim.run(until=closes)
    sim.run(until=sim.now + 2_000.0)
    per_second = in_window * 1000.0 / measure_ms if measure_ms > 0 else 0.0
    return LoopResult(per_second, completed, errors), processes


def closed_loop(
    deployment,
    workload: str,
    n_clients: int,
    warmup_ms: float,
    measure_ms: float,
    window=None,
) -> LoopResult:
    """*n_clients* closed-loop clients run *workload* against a booted
    deployment: set-up, then :func:`drive` (which *window* is handed
    to)."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; pick from {sorted(WORKLOADS)}")
    needs_hot_name, make_iteration = WORKLOADS[workload]
    root = deployment.root
    setup_client = deployment.add_client("setup")

    def setup():
        target = yield from setup_client.create_dir()
        if needs_hot_name:
            yield from setup_client.append_row(root, "hot-name", (target,))
        return target

    target = deployment.cluster.run_process(setup())
    iterations = [
        make_iteration(deployment.add_client(f"load{i}"), root, target, i)
        for i in range(n_clients)
    ]
    return drive(deployment.sim, iterations, warmup_ms, measure_ms, window)[0]


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


# ----------------------------------------------------------------------
# Lens runs: one table, one record
# ----------------------------------------------------------------------

#: Lens scenario -> (implementation, :data:`WORKLOADS` entry). ``trace``
#: runs a scenario's solo shape, ``capacity`` and ``perf`` its closed
#: loop.
SCENARIOS = {
    "update": ("group", "update"),
    "nvram-update": ("nvram", "update"),
    "lookup": ("group", "lookup"),
    "mixed": ("group", "mixed"),
}

#: workload -> the Fig. 7 test its solo shape times. A workload missing
#: here (``mixed``) has no solo shape.
FIG7_TEST = {"update": "append_delete", "lookup": "lookup"}

#: Closed-loop sizes ``perf`` and ``benchmarks/bench_sim.py`` name:
#: :func:`run_loop`'s keyword arguments.
SCALES: dict[str, dict[str, float]] = {
    "small": {"clients": 4, "warmup_ms": 500.0, "measure_ms": 2_000.0},
    "medium": {"clients": 12, "warmup_ms": 1_000.0, "measure_ms": 6_000.0},
    "large": {"clients": 24, "warmup_ms": 1_000.0, "measure_ms": 15_000.0},
}


@dataclass
class Run:
    """One lens run and what it recorded.

    A solo run (:func:`run_solo`) holds its :class:`OpWindow`\\ s, and
    its spans stitched from them; a closed loop (:func:`run_loop`) its
    :class:`LoopResult`, the registry :class:`Window` over its
    measurement and, when asked for, the :class:`Sampler` that ran
    inside it. ``wall_ns`` is host time from boot to the end of the run.
    """

    scenario: str
    impl: str
    seed: int
    deployment: Deployment
    wall_ns: int
    windows: list = field(default_factory=list)
    loop: LoopResult | None = None
    window: Window | None = None
    sampler: Sampler | None = None

    @property
    def sim(self):
        return self.deployment.sim

    @property
    def iterations(self) -> int:
        return len({window.pair for window in self.windows})

    @cached_property
    def events(self) -> list:
        """The flight recorder's events (none unless the run traced)."""
        return list(self.sim.obs.tracer.events())

    @cached_property
    def spans(self) -> list:
        return stitch(self.events, self.windows)

    def fingerprint(self) -> dict:
        """A closed loop's seed-exact digest: a pure function of
        (scenario, size, seed), the same profiled, traced or not."""
        snapshot = json.dumps(
            self.sim.obs.registry.snapshot(), sort_keys=True, default=repr)
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ops": self.loop.ops,
            "errors": self.loop.errors,
            "sim_ms": round(self.sim.now, 6),
            "scheduled_events": self.sim._sequence,
            "registry_digest": sha256(snapshot.encode()).hexdigest()[:16],
        }


def _scenario(name: str) -> tuple[str, str]:
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)}")
    return SCENARIOS[name]


def run_solo(name: str, iterations: int = 15, seed: int = 0) -> Run:
    """The scenario's Fig. 7 test on the paper's server, traced from the
    end of set-up: :func:`fig7_cell`'s own run, so the traced totals
    equal the benchmark's."""
    impl, workload = _scenario(name)
    if workload not in FIG7_TEST:
        raise ValueError(f"scenario {name!r} has no solo test")
    t0 = perf_counter_ns()
    deployment = build_deployment(impl, seed=seed, **PAPER_SERVER)
    windows = solo_run(deployment, FIG7_TEST[workload], iterations, trace=True)
    return Run(name, impl, seed, deployment, perf_counter_ns() - t0,
               windows=windows)


def run_loop(
    name: str,
    clients: int,
    warmup_ms: float,
    measure_ms: float,
    seed: int = 0,
    sample_ms: float | None = None,
    trace: bool = False,
    monitor: bool = False,
    **deploy,
) -> Run:
    """The scenario's closed loop on a booted deployment (*deploy* goes
    to :func:`build_deployment`), with one registry window over the
    measurement. *sample_ms* runs a :class:`Sampler` inside that window,
    *trace* the flight recorder and *monitor* a :class:`HealthMonitor`
    from boot on."""
    impl, workload = _scenario(name)
    t0 = perf_counter_ns()
    deployment = build_deployment(impl, seed=seed, **deploy)
    sim = deployment.sim
    if trace:
        sim.obs.tracer.enable(capacity=4096)
    if monitor:
        HealthMonitor(sim).start()
    sampler = None if sample_ms is None else Sampler(sim, sample_ms)
    registry = sim.obs.registry
    measured = []

    @contextmanager
    def measurement():
        if sampler is not None:
            sampler.start()
        opened = registry.mark()
        yield
        measured.append(registry.window(opened))
        if sampler is not None:
            sampler.stop()

    loop = closed_loop(
        deployment, workload, clients, warmup_ms, measure_ms, measurement())
    return Run(name, impl, seed, deployment, perf_counter_ns() - t0,
               loop=loop, window=measured[0], sampler=sampler)

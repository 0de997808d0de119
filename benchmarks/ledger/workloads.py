"""The five ledger workloads and the one repeat that runs any of them.

A *repeat* builds one cluster from one seed, sets it up, times an
unloaded solo phase, starts closed-loop clients (each waits for its
reply before sending again, as in the paper's Figs. 8/9), lets them
warm up, and then measures a fixed **simulated** window. Everything a
client sees is recorded by the loops below, from outside the system:
one ``(client, kind, start, end, ok)`` tuple per RPC and one
``(client, start, end, ok)`` tuple per unit op. Nothing here depends on
the host clock except the ``host`` facts (HostSlices, SetupClock), so
for one seed every ``sim`` value and every count is exact.

Workload sizes are simulated milliseconds at ``scale=1.0``; the CLI
maps ``--seconds`` to a scale (see run.py) so the *simulated* sizes —
and with them every simulated metric — never depend on host speed.
"""

from __future__ import annotations

import gc
import heapq
import resource
import time
from dataclasses import dataclass, field

from repro.bench.harness import build_deployment
from repro.errors import ReproError
from repro.workloads import ZipfianNames

SOLO_OPS = 30
#: mixed_cached: names installed, and the cache each client gets (the
#: working set is 4x the cache, so the cache is neither useless nor
#: sufficient).
MIXED_NAMES = 256
MIXED_CACHE = 64
MIXED_WRITE_EVERY = 50  # 98% lookups, 2% chmod_row
#: failover_disk: when the sequencer dies and when it reboots, as
#: shares of the run, and how finely the rejoin is observed.
CRASH_AT = 0.2
RESTART_AT = 0.5
REJOIN_POLL_MS = 1.0
DRAIN_LIMIT_MS = 30_000.0
#: The window is run in this many equal simulated slices, each timed on
#: its own and followed by one calibration loop (see HostSlices).
WINDOW_SLICES = 40
#: What calibration_loop costs on the 2-core sizing box when its
#: neighbours are quiet; host_us_per_op is stated at this speed.
CALIBRATION_REFERENCE_S = 0.008


@dataclass(frozen=True)
class Spec:
    """Static shape of one workload (sizes in simulated ms at scale 1)."""

    name: str
    impl: str  # "group" (disk) or "nvram"
    config: dict
    clients: int
    warmup_ms: float
    window_ms: float
    unit: str  # what one unit op is
    think_ms: float = 0.0
    retry_safe: bool = False
    cache_size: int = 0
    #: Fresh-process repeats (consecutive seeds) behind one reported
    #: median.
    repeats: int = 5
    #: Which paper cell the solo phase / the plateau should land near.
    paper_test: str = ""


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="lookup_hot",
            impl="group",
            config={},
            clients=7,
            warmup_ms=2_000.0,
            window_ms=18_000.0,
            unit="lookup",
            paper_test="lookup",
        ),
        Spec(
            name="update_disk",
            impl="group",
            config={"server_threads": 8},
            clients=8,
            warmup_ms=2_000.0,
            window_ms=48_000.0,
            unit="pair",
            paper_test="append_delete",
        ),
        Spec(
            name="update_nvram",
            impl="nvram",
            config={"server_threads": 8},
            clients=7,
            warmup_ms=2_000.0,
            window_ms=32_000.0,
            unit="pair",
            paper_test="append_delete",
        ),
        Spec(
            name="mixed_cached",
            impl="group",
            config={"cache_coherence": True, "server_threads": 8},
            clients=16,
            warmup_ms=3_000.0,
            window_ms=32_000.0,
            unit="op",
            think_ms=1.0,
            cache_size=MIXED_CACHE,
        ),
        Spec(
            name="failover_disk",
            impl="group",
            config={"server_threads": 8},
            # 8 writers, not the 4 first sized: at 4 the commit cadence
            # locks into one of three cycles depending on the seed
            # (7.8 / 9.0 / 11.8 pairs/s). Recovery timing still varies
            # by seed, so this cheap workload gets more repeats.
            clients=8,
            warmup_ms=0.0,
            window_ms=50_000.0,
            unit="pair",
            retry_safe=True,
            repeats=9,
        ),
    )
}


@dataclass
class Recorder:
    """What the clients saw, kept in memory until the repeat ends."""

    sim: object
    #: (client, kind, start_ms, end_ms, ok) per RPC; kind is one of
    #: lookup / lookup_hit / append / delete / chmod.
    rpcs: list = field(default_factory=list)
    #: (client, start_ms, end_ms, ok) per unit op.
    units: list = field(default_factory=list)
    stopped: bool = False

    def call(self, client_id, kind, gen, expect=None):
        """Run one client RPC; a raised ReproError or an answer other
        than *expect* makes it a failed op (``ok`` False)."""
        start = self.sim.now
        try:
            result = yield from gen
            ok = expect is None or result == expect
        except ReproError:
            ok = False
        self.rpcs.append((client_id, kind, start, self.sim.now, ok))
        return ok

    def loop(self, client_id, step, think_ms=0.0):
        """Closed loop: one unit op after another until stopped."""
        sim = self.sim
        n = 0
        while not self.stopped:
            start = sim.now
            ok = yield from step(n)
            self.units.append((client_id, start, sim.now, ok))
            n += 1
            if not ok:
                yield sim.sleep(5.0)  # brief backoff, as ClosedLoopClient
            elif think_ms:
                yield sim.sleep(think_ms)


def calibration_loop() -> float:
    """CPU seconds of a fixed piece of interpreter work shaped like the
    simulator's inner loop: heap pushes and pops of event tuples,
    generator resumption, dict stores. Standard library only, so no
    change under ``src/`` can move it; only the machine can."""
    heap: list = []
    seen: dict = {}

    def sink():
        while True:
            when = yield
            seen[when & 255] = when

    resume = sink()
    next(resume)
    start = time.process_time()
    for i in range(12_000):
        heapq.heappush(heap, (i * 7919 % 1000, i, None, resume))
        if i & 1:
            when, _, _, process = heapq.heappop(heap)
            process.send(when)
    return time.process_time() - start


class HostSlices:
    """CPU seconds, scheduled events and calibration cost of each slice
    of the window.

    This box shares its cores. Identical work costs 60-100 ms of CPU
    from one second to the next, and whole minutes run 10-40% slow, so
    the CPU time of a window swings 20-30% on unchanged code. A slice
    is therefore compared with a calibration loop run right after it:
    the two slow down together (measured: run-to-run spread 19% raw,
    2-3% as a ratio). Slicing ``sim.run(until=...)`` does not change
    the schedule, and the calibration touches nothing simulated; a
    traced repeat takes its profile hook off for the loop.
    """

    def __init__(self, sim, slice_ms: float, trace=None):
        self.sim = sim
        self.slice_ms = slice_ms
        self.trace = trace
        #: (cpu_s, scheduled_events, calibration_s) per slice.
        self.samples: list = []

    def run(self, until: float) -> None:
        """Advance the simulation to *until*, one timed slice at a time."""
        sim = self.sim
        while sim.now < until:
            cpu0, events0 = time.process_time(), sim._sequence
            sim.run(until=min(until, sim.now + self.slice_ms))
            cpu_s = time.process_time() - cpu0
            if self.trace is not None:
                self.trace.pause_profile()
            self.samples.append(
                (cpu_s, sim._sequence - events0, calibration_loop())
            )
            if self.trace is not None:
                self.trace.resume_profile()

    @property
    def calibration_s(self) -> float:
        return sum(cal for _, _, cal in self.samples)


class SetupClock:
    """CPU seconds from process start to the window, phase by phase,
    each phase followed by one calibration loop: set-up time is read
    against the machine's speed while it ran, as the window is."""

    def __init__(self):
        self.mark = 0.0  # process_time() counts from process start
        self.cpu_s = 0.0
        self.calibrated_s = 0.0

    def phase_done(self) -> None:
        cpu_s = time.process_time() - self.mark
        self.cpu_s += cpu_s
        self.calibrated_s += cpu_s * CALIBRATION_REFERENCE_S / calibration_loop()
        self.mark = time.process_time()


def _pair_step(rec, client_id, client, root, target):
    def step(n):
        name = f"w{client_id}-{n}"
        ok = yield from rec.call(
            client_id, "append", client.append_row(root, name, (target,))
        )
        if ok:
            # An acknowledged append that went missing makes this
            # delete raise NotFound, i.e. count as a failed op.
            ok = yield from rec.call(
                client_id, "delete", client.delete_row(root, name)
            )
        return ok

    return step


def _lookup_step(rec, client_id, client, root, name, target):
    def step(_n):
        ok = yield from rec.call(
            client_id, "lookup", client.lookup(root, name), expect=target
        )
        return ok

    return step


def _mixed_step(rec, client_id, client, root, zipf, rng, target):
    # A fixed cadence (every 50th op, staggered per client) instead of
    # a 2% coin: the share of writes is the same, but their *number* no
    # longer varies by seed, and each write stalls readers for ~200 ms.
    offset = (client_id * 7) % MIXED_WRITE_EVERY

    def step(n):
        name = zipf.pick(rng)
        if n % MIXED_WRITE_EVERY == offset:
            ok = yield from rec.call(
                client_id, "chmod", client.chmod_row(root, name, 0b1, (target,))
            )
            return ok
        ok = yield from rec.call(
            client_id, "lookup", client.lookup(root, name), expect=target
        )
        if ok and client.last_lookup_from_cache:
            rec.rpcs[-1] = (client_id, "lookup_hit", *rec.rpcs[-1][2:])
        return ok

    return step


def _step_for(spec, rec, client_id, client, root, names, target):
    """The unit op of *spec* as a generator function of its index."""
    if spec.unit == "pair":
        return _pair_step(rec, client_id, client, root, target)
    if spec.unit == "op":
        return _mixed_step(
            rec, client_id, client, root, ZipfianNames(names, alpha=1.1),
            client.transport.sim.rng.stream(f"ledger.mixed.{client_id}"), target,
        )
    return _lookup_step(rec, client_id, client, root, names[0], target)


def _set_up(cluster, spec):
    """Install the rows the run must keep; returns (setup client,
    names, target capability)."""
    sim, root = cluster.sim, cluster.root_capability
    setup = cluster.add_client("setup")
    target = cluster.run_process(setup.create_dir(), "ledger.setup")
    names = ["hot-name"]
    if spec.unit == "op":
        names = [f"name-{i:03d}" for i in range(MIXED_NAMES)]

    def populate(client, share):
        for name in share:
            yield from client.append_row(root, name, (target,))

    # Eight populators ride one group commit per batch; the rows are
    # the same, only the simulated (and host) set-up time is shorter.
    populators = [setup] + [
        cluster.add_client(f"setup{i}") for i in range(1, min(8, len(names)))
    ]
    for proc in [
        sim.spawn(populate(c, names[i :: len(populators)]), f"ledger.pop{i}")
        for i, c in enumerate(populators)
    ]:
        sim.run_until_complete(proc)
    return setup, names, target


def _solo_phase(cluster, spec, names, target) -> list:
    """The unloaded unit op (the Fig. 7 cell): SOLO_OPS unit tuples."""
    sim, root = cluster.sim, cluster.root_capability
    solo = cluster.add_client(
        "solo", retry_safe=spec.retry_safe, cache_size=spec.cache_size
    )
    # Pin the solo client to a replica that is not the sequencer: the
    # first-HEREIS race otherwise makes the unloaded latency bimodal
    # across seeds (a write through the sequencer's own replica saves
    # the request hop, ~2.7 ms per pair).
    solo.rpc._kernel.port_cache[cluster.service_port] = [
        site.dir_address
        for site in sorted(cluster.sites, key=lambda s: s.server.member.is_sequencer)
    ]
    rec = Recorder(sim)
    if spec.unit == "op":
        # Distinct names: every lookup is a cache miss, so this is the
        # unloaded *coherent* lookup, lease grant included.
        def step(n):
            ok = yield from rec.call(
                "solo", "lookup", solo.lookup(root, names[n]), expect=target
            )
            return ok
    else:
        step = _step_for(spec, rec, "solo", solo, root, names, target)

    def phase():
        yield from step(SOLO_OPS)  # unmeasured: pays any first-use cost
        for n in range(SOLO_OPS):
            start = sim.now
            ok = yield from step(n)
            rec.units.append(("solo", start, sim.now, ok))

    cluster.run_process(phase(), "ledger.solo")
    return rec.units


def run_repeat(workload: str, seed: int, scale: float = 1.0, trace=None) -> dict:
    """One repeat of *workload*; returns raw facts (see module doc).

    *trace* is an installed :class:`tracing.Trace` or None. It is only
    told where the window starts and ends; the wrappers it installed
    do their own recording.
    """
    setup_clock = SetupClock()
    setup_clock.phase_done()  # interpreter start and imports
    spec = SPECS[workload]
    window_ms = spec.window_ms * scale
    cluster = build_deployment(spec.impl, seed=seed, **spec.config).cluster
    sim, root = cluster.sim, cluster.root_capability
    facts: dict = {"service_port": str(cluster.service_port)}
    setup_clock.phase_done()
    setup, names, target = _set_up(cluster, spec)
    setup_clock.phase_done()
    facts["solo_units"] = _solo_phase(cluster, spec, names, target)
    setup_clock.phase_done()

    # -- load: closed-loop clients, warm-up, then the window -----------
    rec = Recorder(sim)
    loops = []
    for i in range(spec.clients):
        client = cluster.add_client(
            f"load{i}", retry_safe=spec.retry_safe, cache_size=spec.cache_size
        )
        step = _step_for(spec, rec, i, client, root, names, target)
        loops.append(sim.spawn(rec.loop(i, step, spec.think_ms), f"ledger.load{i}"))
    sim.run(until=sim.now + spec.warmup_ms)

    gc.collect()
    setup_clock.phase_done()  # load clients and warm-up
    window_start = sim.now
    net0 = cluster.network.stats.full_snapshot()
    scheduled0 = sim._sequence
    if trace is not None:
        trace.window_opens()
    slices = HostSlices(sim, window_ms / WINDOW_SLICES, trace)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if workload == "failover_disk":
        facts["failover"] = _failover_window(slices, cluster, window_start, window_ms)
    else:
        slices.run(until=window_start + window_ms)
    cpu1 = time.process_time()
    wall1 = time.perf_counter()
    if trace is not None:
        trace.window_closes()
    facts["window"] = (window_start, window_start + window_ms)
    facts["net"] = _net_delta(net0, cluster.network.stats.full_snapshot())
    facts["scheduled_events"] = sim._sequence - scheduled0

    # -- drain, then check the outputs ----------------------------------
    # A writer whose request was in flight to the crashed replica
    # sits out its 10 s reply timeout before it retries; wait for it.
    rec.stopped = True
    deadline = sim.now + DRAIN_LIMIT_MS
    while sim.now < deadline and not all(loop.resolved for loop in loops):
        sim.run(until=sim.now + 500.0)
    facts["rpcs"] = rec.rpcs
    facts["units"] = rec.units
    facts["checks"] = _check_outputs(cluster, setup, names, target, rec)
    facts["host"] = {
        "setup_s": setup_clock.calibrated_s,
        "setup_cpu_s": setup_clock.cpu_s,
        "window_cpu_s": cpu1 - cpu0 - slices.calibration_s,
        "window_wall_s": wall1 - wall0,
        "slices": slices.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return facts


def _failover_window(slices, cluster, window_start, window_ms) -> dict:
    """Crash the sequencer's replica, reboot it, time the rejoin.

    The rejoin is watched in 1 ms steps, too short to time one by one;
    they stay out of *slices* (and in the window's totals)."""
    sim = cluster.sim
    crash_at = window_start + CRASH_AT * window_ms
    restart_at = window_start + RESTART_AT * window_ms
    slices.run(until=crash_at)
    [victim] = [
        i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
    ]
    cluster.crash_server(victim)
    slices.run(until=restart_at)
    server = cluster.restart_server(victim)
    while not server.operational and sim.now < window_start + window_ms:
        sim.run(until=sim.now + REJOIN_POLL_MS)
    operational_at = sim.now if server.operational else None
    slices.run(until=window_start + window_ms)
    return {
        "victim_address": str(cluster.sites[victim].dir_address),
        "crash_at": crash_at,
        "restart_at": restart_at,
        "operational_at": operational_at,
    }


def _net_delta(before: dict, after: dict) -> dict:
    kinds = {
        kind: count - before["frames_by_kind"].get(kind, 0)
        for kind, count in after["frames_by_kind"].items()
    }
    return {
        "frames": after["frames_sent"] - before["frames_sent"],
        "bytes": after["bytes_sent"] - before["bytes_sent"],
        "dropped": after["frames_dropped"] - before["frames_dropped"],
        "by_kind": {k: v for k, v in sorted(kinds.items()) if v},
    }


def _check_outputs(cluster, setup, kept_names, target, rec) -> dict:
    """The correctness checks of the issue, as named booleans."""
    rows = cluster.run_process(
        setup.list_dir(cluster.root_capability), "ledger.check"
    )
    return {
        # Set-up rows all present with the stored capability, and no
        # leftover row of any append/delete pair.
        "root_holds_exactly_setup_rows": {
            row.name: row.capabilities[0] for row in rows
        } == {name: target for name in kept_names},
        "all_replicas_operational": len(cluster.operational_servers())
        == len(cluster.servers),
        "replicas_consistent": cluster.replicas_consistent(),
        # Reads that returned anything but the stored capability were
        # already turned into failed ops by Recorder.call.
        "no_wrong_or_failed_op": all(r[4] for r in rec.rpcs),
    }

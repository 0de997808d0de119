"""Seeded chaos scenarios + the invariant bridge.

One *scenario* = a deployment (group or RPC directory service), the
client workload, and an adversarial fault schedule from
:mod:`repro.chaos.nemesis` — nemesis events, link-fault policies
(:mod:`repro.net.policy`), or both. :func:`run_scenario` drives it to
quiescence and runs every invariant of
:func:`repro.verify.check_cluster` on every run: replica equality,
register linearizability of the client history, exactly-once applies,
durability, and — whenever a majority serves — the declared shape.

Outcomes are *verdicts*, not asserts: ``consistent`` (service stayed
available and every invariant holds), ``unavailable`` (fewer than a
majority operational — correct for unrecoverable scenarios, a failure
for recoverable ones), or ``violation``. ``python -m repro chaos``
runs seeds round-robin over the registry and exits non-zero on any
unexpected verdict.

Every run drives the same client, :func:`chaos_client`, through the
harness's closed loop (:func:`repro.bench.harness.drive`). It follows the
paper's caveat that operations are not failure-free by recording it
rather than waiting it out: the client is retry-safe (exactly-once
sessions, blind resends), and a write whose retries ran out enters the
history as an optional write the checker may or may not linearize.
Which names the clients work on follows from the deployment
(:func:`client_keys`).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

from repro.bench.harness import build_deployment, drive
from repro.chaos import nemesis
from repro.errors import DirectoryError, ReproError, SimulationError
from repro.faults.plan import FaultPlan
from repro.obs.capacity import utilization_summary
from repro.obs.export import to_jsonl
from repro.obs.monitor import HealthMonitor
from repro.rpc.client import RpcTimings
from repro.verify import HistoryRecorder, InvariantReport, check_cluster

#: Simulated ms of fault-free tail after the fault window, long enough
#: to out-wait client RPC retries, recovery, and lazy replication.
SETTLE_MS = 30_000.0
#: Faults begin this long after the cluster reports operational.
WARMUP_MS = 2_000.0
#: Every scenario runs a triplicated service (the RPC pair aside).
N_SERVERS = 3
#: The tracer ring a run records into: the whole window's apply events,
#: so the duplicate-apply scan sees both halves of a duplicate pair.
TRACE_RING_CAPACITY = 65_536
#: The flight recorder a verdict keeps: the ring's last events, enough
#: for the last few seconds of cluster activity.
FLIGHT_RECORDER_CAPACITY = 2048
#: How many names each chaos client works on.
N_KEYS = 4
#: Where failing seeds leave their flight-recorder dumps.
DEFAULT_TRACE_DIR = "chaos-traces"


@dataclass(frozen=True)
class Scenario:
    """One named chaos scenario."""

    name: str
    description: str
    #: (cluster, rng, start_ms, window_ms) -> FaultPlan (unarmed).
    build: Callable
    #: "group" | "rpc" — which directory service to deploy (a key of
    #: repro.bench.harness.IMPLEMENTATIONS).
    cluster_kind: str = "group"
    #: Whether the service must end the run serving (majority up).
    expect_available: bool = True
    window_ms: float = 30_000.0
    n_clients: int = 3
    #: Scenarios excluded from the default seed rotation (negative
    #: tests that deliberately destroy the majority).
    in_rotation: bool = True
    #: Server-side session dedup. Disable to demonstrate the checker
    #: is not vacuous: retried-but-committed updates then surface as
    #: linearizability violations / duplicate applies.
    dedup: bool = True
    #: Health-monitor contract. True: at least one alert must fire
    #: inside the fault window AND every alert must clear by the end
    #: of the settle tail. False: the monitor must stay silent for the
    #: whole run (fault-free controls). None: record, don't assert.
    expect_alerts: bool | None = None
    #: Resilience degree, fixed for the run (None = N_SERVERS - 1,
    #: the maximum).
    resilience: int | None = None
    #: Run a RemediationController (repro.recovery) against the
    #: health monitor for the whole scenario.
    remediation: bool = False
    #: Per-client lookup-cache capacity (0 = no cache). >0 also turns
    #: on ``cache_coherence`` in the deployment config and makes the
    #: client workload read-heavy, recording whether each read was
    #: served from the cache or a server.
    cache_size: int = 0
    #: NEGATIVE control: cached clients acknowledge invalidations but
    #: *ignore* them (see repro.directory.client), so the extended
    #: linearizability checker must surface stale cache-served reads.
    cache_nocoherence: bool = False
    #: Checksummed self-identifying storage envelopes on every site
    #: disk plus the background scrubber (repro.storage.integrity).
    #: Off by default so every pre-existing scenario keeps the exact
    #: legacy on-disk layout and trace timeline.
    integrity: bool = False


@dataclass
class ScenarioVerdict:
    """Structured outcome of one seeded scenario run."""

    scenario: str
    seed: int
    status: str  # "consistent" | "unavailable" | "violation" | "error"
    ok: bool  # status matches the scenario's expectation
    expected_available: bool
    problems: list[str] = field(default_factory=list)
    report: InvariantReport | None = None
    fault_log: list = field(default_factory=list)
    net_stats: dict = field(default_factory=dict)
    fingerprints: tuple = ()
    simulated_ms: float = 0.0
    #: Flight recorder: the last events before the run ended (ring
    #: buffer of FLIGHT_RECORDER_CAPACITY), and where they were dumped.
    trace_events: list = field(default_factory=list)
    trace_path: str | None = None
    #: The recorded client history (dumped next to the flight recorder
    #: so violations can be replayed).
    history_events: list = field(default_factory=list)
    history_path: str | None = None
    #: Health-monitor outcome (repro.obs.monitor): every alert/clear,
    #: how many alerts landed inside the fault window, and whatever
    #: was still active when the run ended.
    alerts: list = field(default_factory=list)
    alert_clears: list = field(default_factory=list)
    active_alerts: list = field(default_factory=list)
    alerts_in_fault_window: int = 0
    monitor_ticks: int = 0
    #: Remediation audit trail (repro.recovery), when the scenario ran
    #: a controller: one dict per action, in execution order.
    remediation_actions: list = field(default_factory=list)
    #: Whole-run mean utilization per resource kind (max across nodes),
    #: from repro.obs.capacity.utilization_summary — the saturation
    #: observatory's cheap verdict-time rollup: e.g. a nemesis run that
    #: passes but shows disk at 0.97 was near its capacity ceiling.
    utilization: dict = field(default_factory=dict)
    #: Host wallclock (ms) spent on this run, by phase: "build" (boot +
    #: wait operational + fault-plan arming), "run" (the simulated
    #: window incl. settle/re-form), "verify" (invariant checks), and
    #: "total". Seed-sweep slowdowns show up here in CI artifacts.
    host_ms: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-serializable form (``python -m repro chaos --json``)."""
        from repro.obs.export import _plain

        out = {
            "scenario": self.scenario,
            "seed": self.seed,
            "status": self.status,
            "ok": self.ok,
            "expected_available": self.expected_available,
            "problems": list(self.problems),
            "simulated_ms": round(self.simulated_ms, 3),
            "faults_fired": len(self.fault_log),
            "fault_log": [
                {"at_ms": round(at, 3), "description": description}
                for at, description in self.fault_log
            ],
            "net_stats": _plain(self.net_stats),
            "fingerprints": [str(f) for f in self.fingerprints],
            "trace_events": len(self.trace_events),
            "trace_path": self.trace_path,
            "health": {
                "ticks": self.monitor_ticks,
                "alerts": [a.as_dict() for a in self.alerts],
                "clears": [c.as_dict() for c in self.alert_clears],
                "active_at_end": [a.as_dict() for a in self.active_alerts],
                "alerts_in_fault_window": self.alerts_in_fault_window,
            },
            "remediation_actions": _plain(self.remediation_actions),
            "utilization": _plain(self.utilization),
            "host_ms": {k: round(v, 1) for k, v in self.host_ms.items()},
        }
        if self.report is not None:
            out["invariants"] = {
                "operational": self.report.operational,
                "total_servers": self.report.total_servers,
                "replicas_equal": self.report.replicas_equal,
                "linearizability_violations": list(
                    self.report.linearizability_violations
                ),
                "duplicate_applies": list(self.report.duplicate_applies),
                "resilience_problems": list(self.report.resilience_problems),
                "durability_problems": list(self.report.durability_problems),
            }
        return out


#: Every scenario, by name. Insertion order is the rotation order: the
#: suite deals seeds round-robin over the in-rotation ones, so a new
#: scenario goes in out of rotation or at the end.
SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario(
        "sequencer_crash",
        "crash whoever is sequencer, mid-broadcast, twice",
        nemesis.sequencer_crash,
        expect_alerts=True,
    ),
    Scenario(
        "asymmetric_loss",
        "≥10% one-directional loss on two server links",
        nemesis.asymmetric_loss,
    ),
    Scenario(
        "partition_during_recovery",
        "partition a replica while it runs Fig. 6 recovery",
        nemesis.partition_during_recovery,
        expect_alerts=True,
    ),
    Scenario(
        "duplication",
        "25% of deliveries duplicated",
        nemesis.duplication,
    ),
    Scenario(
        "crash_during_restart",
        "re-crash a replica in the middle of its recovery",
        nemesis.crash_during_restart,
        expect_alerts=True,
    ),
    Scenario(
        "reordering",
        "bounded reordering on 35% of deliveries",
        nemesis.reordering,
    ),
    Scenario(
        "multicast_loss",
        "one member misses 15% of group multicasts",
        nemesis.multicast_loss,
    ),
    Scenario(
        "flapping_links",
        "rapid isolate/heal cycles against single replicas",
        nemesis.flapping_links,
        expect_alerts=True,
    ),
    Scenario(
        "delay_spikes",
        "20–80 ms latency spikes on 4% of deliveries",
        nemesis.delay_spikes,
    ),
    Scenario(
        "random_soak",
        "seeded random crash/restart/partition schedule",
        nemesis.random_soak,
        expect_alerts=True,
    ),
    Scenario(
        "grand_tour",
        "random faults + mild loss + duplication + reordering",
        nemesis.grand_tour,
    ),
    Scenario(
        "retry_storm",
        "reply loss + >timeout request lag against retry-safe clients "
        "contending on shared keys: exactly-once or bust",
        nemesis.retry_storm,
        n_clients=4,
        expect_alerts=True,
    ),
    Scenario(
        "retry_storm_nodedup",
        "NEGATIVE: the same storm with server-side dedup disabled — "
        "the linearizability checker must catch the duplicates",
        nemesis.retry_storm,
        dedup=False,
        n_clients=4,
        in_rotation=False,
    ),
    Scenario(
        "rpc_dup_reorder",
        "RPC baseline under duplication + bounded reordering",
        nemesis.rpc_dup_reorder,
        cluster_kind="rpc",
        n_clients=2,
    ),
    Scenario(
        "fault_free_control",
        "CONTROL: no faults at all — the health monitor must stay "
        "silent for the whole run",
        lambda cluster, rng, start, window: FaultPlan(),
        expect_alerts=False,
        in_rotation=False,
    ),
    Scenario(
        "rolling_faults",
        "self-driving gauntlet: crash left down, flapping link, "
        "sustained loss — remediation must restore declared resilience",
        nemesis.rolling_faults,
        n_clients=3,
        window_ms=35_000.0,
        resilience=1,
        remediation=True,
        expect_alerts=True,
    ),
    Scenario(
        "remediation_off",
        "NEGATIVE: the same gauntlet with the controller disabled — "
        "check_resilience_restored must flag the crippled cluster",
        nemesis.rolling_faults,
        n_clients=3,
        window_ms=35_000.0,
        resilience=1,
        remediation=False,
        in_rotation=False,
    ),
    Scenario(
        "stale_read_hunt",
        "coherent-cache gauntlet: invalidation/ack loss + reply lag + "
        "sequencer crashes against cached clients on hot shared keys — "
        "any stale cache-served read fails the linearizability checker",
        nemesis.stale_read_hunt,
        n_clients=4,
        cache_size=64,
        # Out of rotation (run explicitly by the cache-smoke CI job):
        # inserting it would remap which seed runs which rotation
        # scenario and invalidate the pinned chaos-smoke baselines.
        in_rotation=False,
    ),
    Scenario(
        "cache_nocoherence",
        "NEGATIVE: the same gauntlet with invalidations acknowledged "
        "but ignored — the checker must catch the stale cached reads",
        nemesis.stale_read_hunt,
        n_clients=4,
        cache_size=64,
        cache_nocoherence=True,
        in_rotation=False,
    ),
    Scenario(
        "bitrot_gauntlet",
        "storage-corruption gauntlet: torn/lost/misdirected writes, a "
        "mid-flush power cut, and bit rot on crashed AND live replicas "
        "— checksummed envelopes + scrub-and-repair must keep every "
        "acknowledged block durable",
        nemesis.bitrot_gauntlet,
        n_clients=3,
        window_ms=35_000.0,
        integrity=True,
        resilience=1,
        remediation=True,
        expect_alerts=True,
        # Out of rotation (run explicitly by the bitrot-smoke CI job):
        # inserting it would remap which seed runs which rotation
        # scenario and invalidate the pinned chaos-smoke baselines.
        in_rotation=False,
    ),
    Scenario(
        "bitrot_integrity_off",
        "NEGATIVE: the same gauntlet on the legacy unchecksummed "
        "layout with no scrubber or remediation — check_durability "
        "must catch the silently-served corruption",
        nemesis.bitrot_unremediated,
        n_clients=3,
        window_ms=35_000.0,
        integrity=False,
        resilience=1,
        remediation=False,
        in_rotation=False,
    ),
    Scenario(
        "majority_lost",
        "NEGATIVE: crash a majority and leave it down — the correct "
        "outcome is detected unavailability, not stale answers",
        nemesis.majority_lost,
        expect_available=False,
        window_ms=20_000.0,
        n_clients=2,
        in_rotation=False,
    ),
)}


def scenario_by_name(name: str) -> Scenario:
    return SCENARIOS[name]


def rotation() -> list[Scenario]:
    return [s for s in SCENARIOS.values() if s.in_rotation]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


def _deployment_kwargs(scenario: Scenario) -> dict:
    if scenario.cluster_kind == "rpc":
        return {}
    return dict(
        n_servers=N_SERVERS,
        resilience=(
            scenario.resilience
            if scenario.resilience is not None
            else N_SERVERS - 1
        ),
        dedup_enabled=scenario.dedup,
        cache_coherence=bool(scenario.cache_size),
        integrity=scenario.integrity,
    )


def run_scenario(
    scenario: Scenario, seed: int, smoke: bool = False
) -> ScenarioVerdict:
    """Run one seeded scenario end to end and return its verdict."""
    window_ms = scenario.window_ms * (0.6 if smoke else 1.0)
    n_clients = min(scenario.n_clients, 2) if smoke else scenario.n_clients
    t0 = perf_counter_ns()
    cluster = None
    try:
        cluster = build_deployment(
            scenario.cluster_kind,
            seed,
            name=f"chaos{seed}",
            **_deployment_kwargs(scenario),
        ).cluster
        return _run(scenario, seed, window_ms, n_clients, cluster, t0)
    except Exception as exc:  # harness bug or simulated deadlock
        verdict = ScenarioVerdict(
            scenario=scenario.name,
            seed=seed,
            status="error",
            ok=False,
            expected_available=scenario.expect_available,
            problems=[f"{type(exc).__name__}: {exc}"],
            host_ms={"total": (perf_counter_ns() - t0) / 1e6},
        )
        if cluster is not None:
            # The flight recorder survives the wreck: keep the last
            # events so the failure is debuggable from the dump alone.
            verdict.trace_events = cluster.obs.tracer.events()[
                -FLIGHT_RECORDER_CAPACITY:
            ]
            verdict.simulated_ms = cluster.sim.now
        return verdict


def client_keys(cluster_kind: str, index: int) -> tuple[str, ...]:
    """The root-directory names chaos client *index* works on.

    The group service promises linearizability, so its clients contend
    on the same names. The RPC pair's lazy replication orders only a
    client's own operations (a retried append can be answered
    AlreadyExists after it executed on the peer), so each of its
    clients keeps names of its own."""
    prefix = "shared" if cluster_kind == "group" else f"c{index}"
    return tuple(f"{prefix}-{i}" for i in range(N_KEYS))


def chaos_client(
    cluster, history, index, keys, cache_size=0, cache_nocoherence=False
):
    """Client ``c<index>`` and its iteration for
    :func:`~repro.bench.harness.drive`: one random operation on *keys*,
    recorded in *history*.

    The reply timeout is aggressive: under request lag many first
    attempts commit after the client has given up and resent — exactly
    the duplicate window the session layer must close. With a
    *cache_size* the client is read-heavy and cache-enabled: two more
    lookups for every write, each recording whether the coherent cache
    or a server answered it. The checker holds both to the same
    register model, so a cache-served read meets the server-read bar.
    """
    sim = cluster.sim
    root = cluster.root_capability
    tag = f"c{index}"
    cached = bool(cache_size)
    client = cluster.add_client(
        tag,
        rpc_timings=RpcTimings(
            reply_timeout_ms=4_000.0 if cached else 1_000.0,
            max_attempts=8 if cached else 4,
            locate_attempts=10,
        ),
        retry_safe=True,
        cache_size=cache_size,
        cache_nocoherence=cache_nocoherence,
    )
    kinds = ["append", "delete", "lookup", "lookup"]
    if cached:
        kinds += ["lookup", "lookup"]
    crng = sim.rng.stream(f"chaos.client.{tag}")

    def iteration(n):
        name = keys[crng.randrange(len(keys))]
        key = (1, name)
        kind = crng.choice(kinds)
        t0 = sim.now
        try:
            if kind == "append":
                # A unique capability per append: reads can then
                # attribute every observed value to one recorded write
                # (or to nothing — the violation).
                value = dataclasses.replace(
                    root, check=(index + 1) * 1_000_000 + n + 1
                )
                yield from client.append_row(root, name, (value,))
                history.record(tag, "append", key, value, t0, sim.now)
            elif kind == "delete":
                yield from client.delete_row(root, name)
                history.record(tag, "delete", key, None, t0, sim.now)
            else:
                got = yield from client.lookup(root, name)
                source = "cache" if client.last_lookup_from_cache else "server"
                history.record(tag, "lookup", key, got, t0, sim.now, source=source)
        except DirectoryError as exc:
            # Definitive server answer (AlreadyExists, NotFound): the
            # write did not take effect. With dedup disabled a
            # committed-then-retried update lands here too — the
            # unexplained value is what the checker then flags.
            # Recorded with a "!" suffix (ignored by the checker) so
            # violation dumps show what the client was told.
            history.record(tag, kind + "!", key, repr(exc), t0, sim.now)
        except ReproError:
            if kind in ("append", "delete"):
                # Retry rounds exhausted: the effect is unknown and
                # may still land later. Optional write, open end.
                ambiguous = value if kind == "append" else None
                history.record(tag, kind + "?", key, ambiguous, t0, sim.now)
            yield sim.sleep(500.0)

    return iteration


def closing_reads(cluster, history, keys):
    """Read every key once the run is quiet, into the history: a
    committed update nobody recorded (a lost reply whose retry was
    answered wrongly) surfaces as a value no recorded write explains."""
    sim = cluster.sim
    root = cluster.root_capability
    reader = cluster.add_client("final-reader")
    for name in keys:
        t0 = sim.now
        try:
            got = yield from reader.lookup(root, name)
        except ReproError:
            continue
        history.record("final", "lookup", (1, name), got, t0, sim.now)


def _run(scenario, seed, window_ms, n_clients, cluster, host_t0):
    cluster.enable_tracing(TRACE_RING_CAPACITY)
    sim = cluster.sim
    # The watchdog starts with the cluster healthy: its baseline
    # window is fault-free, so anything it raises later is signal.
    monitor = HealthMonitor(sim).start()
    controller = None
    if scenario.remediation:
        from repro.recovery import RemediationController

        controller = RemediationController(cluster, monitor).start()
    history = HistoryRecorder()
    start = sim.now
    deadline = start + window_ms

    rng = sim.rng.stream(f"chaos.{scenario.name}")
    plan = scenario.build(cluster, rng, start + WARMUP_MS, window_ms)
    plan.arm(cluster)
    host_built = perf_counter_ns()

    keys = [client_keys(scenario.cluster_kind, i) for i in range(n_clients)]
    clients = [
        chaos_client(cluster, history, i, keys[i],
                     scenario.cache_size, scenario.cache_nocoherence)
        for i in range(n_clients)
    ]
    _, processes = drive(sim, clients, 0.0, window_ms)
    cluster.run(until=deadline + SETTLE_MS)
    problems: list[str] = []
    if not all(p.resolved for p in processes):
        problems.append("a chaos client hung past the settle window")

    if scenario.expect_available:
        try:
            cluster.wait_operational(timeout_ms=60_000.0)
        except SimulationError as exc:
            problems.append(f"service did not re-form: {exc}")
    if scenario.cluster_kind == "rpc":
        cluster.settle(2_000.0)  # drain lazy replication

    host_ran = perf_counter_ns()
    operational = cluster.operational_servers()
    available = len(operational) >= cluster.config.majority
    if available:
        every_key = dict.fromkeys(name for names in keys for name in names)
        cluster.run_process(
            closing_reads(cluster, history, every_key), "chaos-final-reads"
        )

    report = check_cluster(cluster, history, cluster.obs.tracer.events())
    problems.extend(report.problems())

    # A run whose clients never read from a cache proves nothing about
    # coherence, and one whose clients were idle while the faults fired
    # proves nothing about the faults: both are failed as vacuous
    # rather than let a configuration regression pass silently.
    if scenario.cache_size and history.cache_served_reads() == 0:
        problems.append(
            "cache scenario recorded no cache-served reads (vacuous run)"
        )
    if plan.log and not history.overlapping(plan.log[0][0], plan.log[-1][0]):
        problems.append(
            "no client operation overlapped the fault window (vacuous run)"
        )

    # The health-monitor contract. "Inside the fault window" allows a
    # short tail past the last scheduled fault: effects like heartbeat
    # staleness cross their threshold only after the fault lands.
    alerts_in_window = monitor.alerts_between(
        start + WARMUP_MS, deadline + 5_000.0
    )
    if scenario.expect_alerts is True:
        if not alerts_in_window:
            problems.append(
                "health monitor: no alert fired during the fault window"
            )
        if monitor.active_alerts:
            problems.append(
                "health monitor: alerts still active after recovery: "
                + ", ".join(
                    f"{a.node}/{a.signal}" for a in monitor.active_alerts
                )
            )
    elif scenario.expect_alerts is False and monitor.alerts:
        first = monitor.alerts[0]
        problems.append(
            f"health monitor: {len(monitor.alerts)} alert(s) on a "
            f"fault-free run (first: {first.node}/{first.signal}="
            f"{first.value:.3f} at {first.at_ms:.0f} ms)"
        )

    if scenario.expect_available:
        if not available:
            status = "unavailable"
            ok = False
        elif problems:
            status = "violation"
            ok = False
        else:
            status = "consistent"
            ok = True
    else:
        # Negative scenario: the service must refuse, and whatever was
        # served before the blackout must still be linearizable —
        # detected unavailability, never stale data.
        if available:
            status = "consistent"
            ok = False
            problems.append(
                "scenario destroyed the majority yet the service kept serving"
            )
        elif problems:
            status = "violation"
            ok = False
        else:
            status = "unavailable"
            ok = True

    fingerprints = tuple(
        s.state.fingerprint()
        for s in operational
        if hasattr(s.state, "fingerprint")
    )
    return ScenarioVerdict(
        scenario=scenario.name,
        seed=seed,
        status=status,
        ok=ok,
        expected_available=scenario.expect_available,
        problems=problems,
        report=report,
        fault_log=list(plan.log),
        net_stats=cluster.network.stats.full_snapshot(),
        fingerprints=fingerprints,
        simulated_ms=sim.now,
        trace_events=cluster.obs.tracer.events()[-FLIGHT_RECORDER_CAPACITY:],
        history_events=list(history.events),
        alerts=list(monitor.alerts),
        alert_clears=list(monitor.clears),
        active_alerts=list(monitor.active_alerts),
        alerts_in_fault_window=len(alerts_in_window),
        monitor_ticks=monitor.ticks,
        remediation_actions=(
            [dict(a) for a in controller.actions] if controller else []
        ),
        utilization=utilization_summary(sim.obs.registry.window()),
        host_ms={
            "build": (host_built - host_t0) / 1e6,
            "run": (host_ran - host_built) / 1e6,
            "verify": (perf_counter_ns() - host_ran) / 1e6,
            "total": (perf_counter_ns() - host_t0) / 1e6,
        },
    )


def dump_flight_recorder(
    verdict: ScenarioVerdict, trace_dir: str = DEFAULT_TRACE_DIR
) -> str | None:
    """Write the verdict's ring-buffer trace as JSONL next to the seed.

    Returns the path written (also stored in ``verdict.trace_path``),
    or None when the verdict carries no events."""
    if not verdict.trace_events:
        return None
    directory = pathlib.Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{verdict.scenario}-seed{verdict.seed}.jsonl"
    path.write_text(to_jsonl(verdict.trace_events))
    verdict.trace_path = str(path)
    if verdict.history_events:
        hist_path = (
            directory / f"{verdict.scenario}-seed{verdict.seed}-history.jsonl"
        )
        hist_path.write_text(
            "\n".join(
                json.dumps(
                    {
                        "client": e.client,
                        "kind": e.kind,
                        "key": list(e.key) if isinstance(e.key, tuple) else e.key,
                        "value": repr(e.value),
                        "start_ms": round(e.start_ms, 3),
                        "end_ms": round(e.end_ms, 3),
                        "source": e.source,
                    }
                )
                for e in verdict.history_events
            )
            + "\n"
        )
        verdict.history_path = str(hist_path)
    return verdict.trace_path


def run_suite(
    seeds: int,
    base_seed: int = 0,
    smoke: bool = False,
    only: str | None = None,
    trace_dir: str | None = DEFAULT_TRACE_DIR,
) -> list[ScenarioVerdict]:
    """Run *seeds* scenario instances, round-robin over the rotation
    (or *only* the named scenario), with seeds base_seed..base_seed+N-1.

    Failing runs leave their flight-recorder dump under *trace_dir*
    (pass None to disable)."""
    chosen = [scenario_by_name(only)] if only else rotation()
    verdicts = []
    for i in range(seeds):
        scenario = chosen[i % len(chosen)]
        verdict = run_scenario(scenario, base_seed + i, smoke=smoke)
        if not verdict.ok and trace_dir is not None:
            dump_flight_recorder(verdict, trace_dir)
        verdicts.append(verdict)
    return verdicts


def format_verdicts(verdicts: list[ScenarioVerdict]) -> str:
    lines = [
        f"{'seed':>6}  {'scenario':<28}{'verdict':<14}{'faults':>7}"
        f"{'ops':>6}  {'up':>3}  {'busiest':<12}  {'host-s':>7}  problems"
    ]
    for v in verdicts:
        up = "-" if v.report is None else str(v.report.operational)
        host = v.host_ms.get("total")
        if v.utilization:
            kind, rho = max(v.utilization.items(), key=lambda kv: (kv[1], kv[0]))
            busiest = f"{kind}:{rho:.2f}"
        else:
            busiest = "-"
        lines.append(
            f"{v.seed:>6}  {v.scenario:<28}"
            f"{v.status + ('' if v.ok else ' (!)'):<14}"
            f"{len(v.fault_log):>7}{len(v.history_events):>6}  {up:>3}  {busiest:<12}  "
            f"{(host / 1e3 if host else 0):>7.1f}  "
            + ("; ".join(v.problems[:2]) if v.problems else "-")
        )
    passed = sum(1 for v in verdicts if v.ok)
    lines.append(f"{passed}/{len(verdicts)} scenario runs passed")
    for label, counts in zip(("alerts", "remediation"), watcher_traffic(verdicts)):
        lines.append(f"{label}: " + (", ".join(
            f"{name} {n}" for name, n in sorted(counts.items())) or "none"))
    total_host = sum(v.host_ms.get("total", 0.0) for v in verdicts)
    if total_host:
        lines.append(f"host wallclock: {total_host / 1e3:.1f} s total")
    return "\n".join(lines)


def watcher_traffic(verdicts: list[ScenarioVerdict]) -> tuple[Counter, Counter]:
    """What the watcher did over a suite: alerts raised by signal and
    remediation actions by kind. A threshold or a policy whose count
    stays zero over the whole suite is documentation, not behaviour
    (docs/CHAOS.md §2 keeps the measured tally)."""
    alerts = Counter(a.signal for v in verdicts for a in v.alerts)
    actions = Counter(
        a["action"] for v in verdicts for a in v.remediation_actions)
    return alerts, actions


def host_summary(verdicts: list[ScenarioVerdict]) -> dict:
    """Suite-level host wallclock rollup for ``--json`` output."""
    by_scenario: dict[str, dict] = {}
    for v in verdicts:
        total = v.host_ms.get("total", 0.0)
        row = by_scenario.setdefault(
            v.scenario, {"runs": 0, "total_ms": 0.0, "slowest_ms": 0.0}
        )
        row["runs"] += 1
        row["total_ms"] += total
        row["slowest_ms"] = max(row["slowest_ms"], total)
    for row in by_scenario.values():
        row["total_ms"] = round(row["total_ms"], 1)
        row["slowest_ms"] = round(row["slowest_ms"], 1)
    return {
        "total_ms": round(
            sum(v.host_ms.get("total", 0.0) for v in verdicts), 1
        ),
        "by_scenario": by_scenario,
    }

"""Seeded chaos scenarios + the invariant bridge.

One *scenario* = a deployment (group or RPC directory service), a
client workload on private keys, and an adversarial fault schedule —
nemesis events (:mod:`repro.chaos.nemesis`), link-fault policies
(:mod:`repro.net.policy`), or both. :func:`run_scenario` drives it to
quiescence and checks the paper's correctness stand-ins via
:mod:`repro.verify`:

* replica equality across operational replicas;
* session guarantees (read-your-writes / monotonic reads) per client;
* no lost acknowledged updates against the final listing.

Outcomes are *verdicts*, not asserts: ``consistent`` (service stayed
available and every invariant holds), ``unavailable`` (fewer than a
majority operational — correct for unrecoverable scenarios, a failure
for recoverable ones), or ``violation``. ``python -m repro chaos``
runs seeds round-robin over the registry and exits non-zero on any
unexpected verdict.

Clients follow the paper's caveat that operations are not
failure-free: after an ambiguous error they re-read the key (out-
waiting the RPC retry horizon) and adopt reality before continuing,
exactly like the soak tests in ``tests/integration/test_chaos.py``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

from repro.bench.harness import build_deployment
from repro.chaos import nemesis
from repro.errors import DirectoryError, ReproError, SimulationError
from repro.faults.plan import FaultPlan
from repro.net.policy import Drop, Duplicate, Delay, LinkFilter, Reorder
from repro.obs.capacity import utilization_summary
from repro.obs.export import to_jsonl
from repro.obs.monitor import DEFAULT_THRESHOLDS, HealthMonitor, thresholds_with
from repro.rpc.client import RpcTimings
from repro.verify import HistoryRecorder, InvariantReport, check_cluster

#: Simulated ms of fault-free tail after the fault window, long enough
#: to out-wait client RPC retries, recovery, and lazy replication.
SETTLE_MS = 30_000.0
#: Faults begin this long after the cluster reports operational.
WARMUP_MS = 2_000.0
#: Every scenario runs a triplicated service (the RPC pair aside).
N_SERVERS = 3
#: Ring-buffer size of the always-on flight recorder: enough for the
#: last few seconds of cluster activity without unbounded growth.
FLIGHT_RECORDER_CAPACITY = 2048
#: Shared-key scenarios need the whole window's apply events so the
#: duplicate-apply scan sees both halves of a duplicate pair.
SHARED_KEYS_RECORDER_CAPACITY = 65_536
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
    #: Clients contend on a small set of shared keys; the verdict then
    #: uses the shared-key linearizability checker instead of the
    #: private-key session-guarantee checks. These clients use the
    #: exactly-once session layer (retry-safe mode) and blindly resend
    #: mutations on RPC failure, and the flight recorder holds
    #: SHARED_KEYS_RECORDER_CAPACITY events.
    shared_keys: bool = False
    #: Server-side session dedup. Disable to demonstrate the checker
    #: is not vacuous: retried-but-committed updates then surface as
    #: linearizability violations / duplicate applies.
    dedup: bool = True
    #: Health-monitor contract. True: at least one alert must fire
    #: inside the fault window AND every alert must clear by the end
    #: of the settle tail. False: the monitor must stay silent for the
    #: whole run (fault-free controls). None: record, don't assert.
    expect_alerts: bool | None = None
    #: Initial resilience degree (None = N_SERVERS - 1, the maximum).
    resilience: int | None = None
    #: Cold spare sites (group clusters only). No policy boots one; the
    #: two gauntlets keep theirs because a site fewer re-times them.
    spares: int = 0
    #: Run a RemediationController (repro.recovery) against the
    #: health monitor for the whole scenario.
    remediation: bool = False
    #: Assert check_resilience_restored at the end of the run: the
    #: cluster must be back at its declared server count and
    #: resilience degree with every operational member agreeing.
    expect_resilience_restored: bool = False
    #: The health monitor's thresholds (repro.obs.thresholds_with
    #: patches the defaults by signal).
    monitor_thresholds: tuple = DEFAULT_THRESHOLDS
    #: Per-client lookup-cache capacity (0 = no cache). >0 also turns
    #: on ``cache_coherence`` in the deployment config and switches the
    #: shared-key workload to the cached loop, which records whether
    #: each read was served from the cache or a server.
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
    #: Run check_durability at verify time: no corrupt bytes may ever
    #: have been served as good data, and every operational replica's
    #: mapped admin blocks must hold their acknowledged contents.
    check_durability: bool = False


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
    #: The recorded client history (for shared-key runs it is dumped
    #: next to the flight recorder so violations can be replayed).
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
                "session_violations": [
                    v.explanation for v in self.report.session_violations
                ],
                "lost_updates": list(self.report.lost_updates),
                "linearizability_violations": list(
                    self.report.linearizability_violations
                ),
                "duplicate_applies": list(self.report.duplicate_applies),
                "resilience_problems": list(self.report.resilience_problems),
                "durability_problems": list(self.report.durability_problems),
            }
        return out


# ----------------------------------------------------------------------
# link-fault scenario builders (policies riding on a FaultPlan)
# ----------------------------------------------------------------------


def _policy_plan(start_ms: float, window_ms: float, policies) -> FaultPlan:
    """Install policies at the window start, remove them 8 s before the
    end so retransmissions drain and replicas converge while the
    workload is still running."""
    plan = FaultPlan()
    off_at = start_ms + window_ms - 8_000.0
    for policy in policies:
        plan.install_policy(start_ms, policy)
        plan.remove_policy(off_at, policy)
    return plan


def _dir_addresses(cluster) -> list:
    return [site.dir_address for site in cluster.sites]


def build_asymmetric_loss(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """≥10 % one-directional loss on two directed server links (the
    reverse directions stay clean), all frame kinds affected."""
    addrs = _dir_addresses(cluster)
    a, b = rng.sample(range(len(addrs)), 2)
    policies = [
        Drop(
            "chaos.asym.ab",
            LinkFilter(src=addrs[a], dst=addrs[b]),
            probability=0.15,
        ),
        Drop(
            "chaos.asym.bc",
            LinkFilter(src=addrs[b], dst=addrs[(b + 1) % len(addrs)]),
            probability=0.10,
        ),
    ]
    return _policy_plan(start_ms, window_ms, policies)


def build_multicast_loss(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """One member misses 15 % of group multicasts (everyone else
    receives them) — the classic gap-repair stressor."""
    victim = rng.choice(_dir_addresses(cluster))
    policies = [
        Drop(
            "chaos.mcast",
            LinkFilter(dst=victim, kind="grp.*", multicast=True),
            probability=0.15,
        )
    ]
    return _policy_plan(start_ms, window_ms, policies)


def build_duplication(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """25 % of deliveries arrive twice (tests request/broadcast dedup
    and at-most-once reply handling)."""
    policies = [Duplicate("chaos.dup", probability=0.25)]
    return _policy_plan(start_ms, window_ms, policies)


def build_reordering(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """35 % of deliveries may be overtaken by up to 15 ms of later
    traffic (bounded reordering)."""
    policies = [Reorder("chaos.reorder", probability=0.35, max_delay_ms=15.0)]
    return _policy_plan(start_ms, window_ms, policies)


def build_delay_spikes(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """Occasional 20–80 ms stalls — long enough to trip heartbeat
    timeouts now and then, forcing spurious failure detection."""
    policies = [
        Delay("chaos.spike", probability=0.04, min_ms=20.0, max_ms=80.0)
    ]
    return _policy_plan(start_ms, window_ms, policies)


def build_retry_storm(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """The exactly-once gauntlet: drop a quarter of server replies and
    stall some requests for longer than the clients' reply timeout, so
    retry-safe clients blindly resend operations whose first attempt
    often *committed*. Without the session layer this yields duplicate
    applications and spurious AlreadyExists/NotFound answers; with it,
    the dedup cache must answer every resend from the original reply."""
    addrs = _dir_addresses(cluster)
    policies = [
        Drop(
            "retry.replydrop",
            LinkFilter(src=tuple(addrs), kind="rpc.reply"),
            probability=0.25,
        ),
        Delay(
            "retry.lag",
            LinkFilter(dst=tuple(addrs), kind="rpc.request"),
            probability=0.15,
            min_ms=1_500.0,
            max_ms=4_000.0,
        ),
    ]
    return _policy_plan(start_ms, window_ms, policies)


def build_stale_read_hunt(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """The cache-coherence gauntlet. Three stressors aimed squarely at
    the invalidation protocol (docs/PROTOCOL.md "Client cache
    coherence"): lose a fifth of invalidation records (writes must fall
    back to waiting out the read lease), lose a fifth of the acks
    (same, from the other side), and lag server replies so lookup
    replies race the invalidations for entries they refill. On top, the
    sequencer-crash nemesis forces view changes mid-window, exercising
    the membership fence. Any hole shows up as a stale cache-served
    read, which the linearizability checker flags."""
    addrs = _dir_addresses(cluster)
    policies = [
        Drop(
            "cache.invaldrop",
            LinkFilter(src=tuple(addrs), kind="cache.inval"),
            probability=0.20,
        ),
        Drop(
            "cache.ackdrop",
            LinkFilter(dst=tuple(addrs), kind="cache.invack"),
            probability=0.20,
        ),
        Delay(
            "cache.replylag",
            LinkFilter(src=tuple(addrs), kind="rpc.reply"),
            probability=0.10,
            min_ms=100.0,
            max_ms=1_000.0,
        ),
    ]
    plan = nemesis.sequencer_crash(cluster, rng, start_ms, window_ms)
    for event in _policy_plan(start_ms, window_ms, policies).events:
        plan.add(event)
    return plan


def build_grand_tour(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """Everything at once, mildly: random crash/partition schedule on
    top of low-grade loss, duplication, and reordering."""
    addrs = _dir_addresses(cluster)
    a, b = rng.sample(range(len(addrs)), 2)
    policies = [
        Drop(
            "chaos.tour.drop",
            LinkFilter(src=addrs[a], dst=addrs[b]),
            probability=0.08,
        ),
        Duplicate("chaos.tour.dup", probability=0.08),
        Reorder("chaos.tour.reorder", probability=0.10, max_delay_ms=10.0),
    ]
    plan = nemesis.random_soak(cluster, rng, start_ms, window_ms)
    for event in _policy_plan(start_ms, window_ms, policies).events:
        plan.add(event)
    return plan


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
        build_asymmetric_loss,
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
        build_duplication,
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
        build_reordering,
    ),
    Scenario(
        "multicast_loss",
        "one member misses 15% of group multicasts",
        build_multicast_loss,
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
        build_delay_spikes,
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
        build_grand_tour,
    ),
    Scenario(
        "retry_storm",
        "reply loss + >timeout request lag against retry-safe clients "
        "contending on shared keys: exactly-once or bust",
        build_retry_storm,
        shared_keys=True,
        n_clients=4,
        expect_alerts=True,
    ),
    Scenario(
        "retry_storm_nodedup",
        "NEGATIVE: the same storm with server-side dedup disabled — "
        "the linearizability checker must catch the duplicates",
        build_retry_storm,
        shared_keys=True,
        dedup=False,
        n_clients=4,
        in_rotation=False,
    ),
    Scenario(
        "rpc_dup_reorder",
        "RPC baseline under duplication + bounded reordering",
        lambda cluster, rng, start, window: _policy_plan(
            start,
            window,
            [
                Duplicate("chaos.rpc.dup", probability=0.15),
                Reorder("chaos.rpc.reorder", probability=0.20, max_delay_ms=10.0),
            ],
        ),
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
        shared_keys=True,
        n_clients=3,
        window_ms=35_000.0,
        resilience=1,
        spares=1,
        remediation=True,
        expect_resilience_restored=True,
        expect_alerts=True,
        # A lower retransmission trip point makes the scale-up policy
        # engage reliably under the 12% sustained-loss phase.
        monitor_thresholds=thresholds_with({"group.retrans_rate": (2.0, 0.5)}),
    ),
    Scenario(
        "remediation_off",
        "NEGATIVE: the same gauntlet with the controller disabled — "
        "check_resilience_restored must flag the crippled cluster",
        nemesis.rolling_faults,
        shared_keys=True,
        n_clients=3,
        window_ms=35_000.0,
        resilience=1,
        spares=0,
        remediation=False,
        expect_resilience_restored=True,
        in_rotation=False,
    ),
    Scenario(
        "stale_read_hunt",
        "coherent-cache gauntlet: invalidation/ack loss + reply lag + "
        "sequencer crashes against cached clients on hot shared keys — "
        "any stale cache-served read fails the linearizability checker",
        build_stale_read_hunt,
        shared_keys=True,
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
        build_stale_read_hunt,
        shared_keys=True,
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
        shared_keys=True,
        n_clients=3,
        window_ms=35_000.0,
        integrity=True,
        check_durability=True,
        resilience=1,
        spares=1,
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
        nemesis.bitrot_gauntlet,
        shared_keys=True,
        n_clients=3,
        window_ms=35_000.0,
        integrity=False,
        check_durability=True,
        resilience=1,
        spares=0,
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
        spares=scenario.spares,
        dedup_enabled=scenario.dedup,
        # Only cache scenarios flip the coherence machinery on, so
        # every other scenario keeps the exact pre-cache wire behavior.
        **({"cache_coherence": True} if scenario.cache_size else {}),
        # Same discipline for storage integrity: only opted-in
        # scenarios change the on-disk layout.
        **({"integrity": True} if scenario.integrity else {}),
    )


def run_scenario(
    scenario: Scenario, seed: int, smoke: bool = False
) -> ScenarioVerdict:
    """Run one seeded scenario end to end and return its verdict."""
    window_ms = scenario.window_ms * (0.6 if smoke else 1.0)
    n_clients = min(scenario.n_clients, 2) if smoke else scenario.n_clients
    holder: dict = {}
    t0 = perf_counter_ns()
    try:
        return _run(scenario, seed, window_ms, n_clients, holder)
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
        cluster = holder.get("cluster")
        if cluster is not None:
            # The flight recorder survives the wreck: keep the last
            # events so the failure is debuggable from the dump alone.
            verdict.trace_events = list(cluster.obs.tracer.events())
            verdict.simulated_ms = cluster.sim.now
        return verdict


def _run(
    scenario: Scenario,
    seed: int,
    window_ms: float,
    n_clients: int,
    holder: dict | None = None,
):
    host_t0 = perf_counter_ns()
    cluster = build_deployment(
        scenario.cluster_kind,
        seed,
        name=f"chaos{seed}",
        **_deployment_kwargs(scenario),
    ).cluster
    if holder is not None:
        holder["cluster"] = cluster
    cluster.enable_tracing(
        SHARED_KEYS_RECORDER_CAPACITY
        if scenario.shared_keys
        else FLIGHT_RECORDER_CAPACITY
    )
    sim = cluster.sim
    # The watchdog starts with the cluster healthy: its baseline
    # window is fault-free, so anything it raises later is signal.
    monitor = HealthMonitor(sim, scenario.monitor_thresholds).start()
    controller = None
    if scenario.remediation:
        from repro.recovery import RemediationController

        controller = RemediationController(cluster, monitor).start()
    root = cluster.root_capability
    history = HistoryRecorder()
    start = sim.now
    deadline = start + window_ms
    hard_deadline = deadline + SETTLE_MS * 0.8

    rng = sim.rng.stream(f"chaos.{scenario.name}")
    plan = scenario.build(cluster, rng, start + WARMUP_MS, window_ms)
    plan.arm(cluster)
    host_built = perf_counter_ns()

    def client_loop(tag):
        client = cluster.add_client(tag)
        crng = sim.rng.stream(f"chaos.client.{tag}")
        target = None
        while target is None and sim.now < deadline:
            try:
                target = yield from client.create_dir()
            except ReproError:
                yield sim.sleep(250.0)
        counter = 0
        while target is not None and sim.now < deadline:
            name = f"{tag}-{counter % 5}"
            key = (1, name)
            kind = crng.choice(["append", "delete", "lookup", "lookup"])
            t0 = sim.now
            try:
                if kind == "append":
                    yield from client.append_row(root, name, (target,))
                    history.record(tag, "append", key, target, t0, sim.now)
                elif kind == "delete":
                    yield from client.delete_row(root, name)
                    history.record(tag, "delete", key, None, t0, sim.now)
                else:
                    value = yield from client.lookup(root, name)
                    history.record(tag, "lookup", key, value, t0, sim.now)
            except ReproError:
                # Ambiguous: the op may or may not have executed (and a
                # queued duplicate may still execute later). Out-wait
                # the retry horizon, then adopt the key's actual state.
                settled = yield from _resync(client, key, name, tag)
                if not settled:
                    return tag  # service gone (majority-lost scenarios)
            counter += 1
        return tag

    def _resync(client, key, name, tag):
        yield sim.sleep(12_000.0)
        while sim.now < hard_deadline:
            try:
                value = yield from client.lookup(root, name)
            except ReproError:
                yield sim.sleep(300.0)
                continue
            if value is None:
                history.record(tag, "delete", key, None, sim.now, sim.now)
            else:
                history.record(tag, "append", key, value, sim.now, sim.now)
            return True
        return False

    def shared_client_loop(index, tag):
        # Every client contends on four hot names. The reply timeout
        # is aggressive: under the storm's >timeout request lag, many
        # first attempts commit after the client has already given up
        # and resent — exactly the duplicate window the session layer
        # must close. A scenario with a cache_size runs the same loop
        # read-heavy and cache-enabled: two more lookups for every
        # write, every lookup recording whether the client's coherent
        # cache or a server answered it. The verdict runs both through
        # the same register model — a cache-served read is held to
        # exactly the server-read bar.
        cached = bool(scenario.cache_size)
        client = cluster.add_client(
            tag,
            rpc_timings=RpcTimings(
                reply_timeout_ms=4_000.0 if cached else 1_000.0,
                max_attempts=8 if cached else 4,
                locate_attempts=10,
            ),
            retry_safe=True,
            cache_size=scenario.cache_size,
            cache_nocoherence=scenario.cache_nocoherence,
        )
        kinds = ["append", "delete", "lookup", "lookup"]
        if cached:
            kinds += ["lookup", "lookup"]
        crng = sim.rng.stream(f"chaos.client.{tag}")
        counter = 0
        while sim.now < deadline:
            name = f"shared-{crng.randrange(4)}"
            key = (1, name)
            kind = crng.choice(kinds)
            t0 = sim.now
            counter += 1
            try:
                if kind == "append":
                    # A unique capability per attempt: reads can then
                    # attribute every observed value to one recorded
                    # write (or to nothing — the violation).
                    value = dataclasses.replace(
                        root, check=(index + 1) * 1_000_000 + counter
                    )
                    yield from client.append_row(root, name, (value,))
                    history.record(tag, "append", key, value, t0, sim.now)
                elif kind == "delete":
                    yield from client.delete_row(root, name)
                    history.record(tag, "delete", key, None, t0, sim.now)
                else:
                    got = yield from client.lookup(root, name)
                    history.record(
                        tag,
                        "lookup",
                        key,
                        got,
                        t0,
                        sim.now,
                        source=(
                            "cache"
                            if client.last_lookup_from_cache
                            else "server"
                        ),
                    )
            except DirectoryError as exc:
                # Definitive server answer (AlreadyExists, NotFound):
                # the write did not take effect. With dedup disabled a
                # committed-then-retried update lands here too — the
                # unexplained value is what the checker then flags.
                # Recorded with a "!" suffix (ignored by the checkers)
                # so violation dumps show what the client was told.
                history.record(tag, kind + "!", key, repr(exc), t0, sim.now)
            except ReproError:
                if kind in ("append", "delete"):
                    # Retry rounds exhausted: the effect is unknown and
                    # may still land later. Optional write, open end.
                    ambiguous = value if kind == "append" else None
                    history.record(tag, kind + "?", key, ambiguous, t0, sim.now)
                yield sim.sleep(500.0)
        return tag

    if scenario.shared_keys:
        processes = [
            sim.spawn(shared_client_loop(i, f"c{i}"), f"chaos-client-{i}")
            for i in range(n_clients)
        ]
    else:
        processes = [
            sim.spawn(client_loop(f"c{i}"), f"chaos-client-{i}")
            for i in range(n_clients)
        ]
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
    # Via the config, not len(cluster.servers): spare sites are entries
    # there too.
    available = len(operational) >= cluster.config.majority

    if scenario.shared_keys and available:
        # Closing reads on every shared key: a committed update nobody
        # recorded (a lost reply whose retry was answered wrongly)
        # surfaces here as a value no write in the history explains.
        def final_reads():
            reader = cluster.add_client("final-reader")
            for i in range(4):
                name = f"shared-{i}"
                t0 = sim.now
                try:
                    got = yield from reader.lookup(root, name)
                except ReproError:
                    continue
                history.record("final", "lookup", (1, name), got, t0, sim.now)

        cluster.run_process(final_reads(), "chaos-final-reads")

    final_names = None
    if operational:
        final_names = set(operational[0].state.directories[1].names())
    report = check_cluster(
        cluster,
        history,
        final_names if available else None,
        private_keys=not scenario.shared_keys,
        trace_events=cluster.obs.tracer.events(),
        check_resilience=scenario.expect_resilience_restored,
        durability=scenario.check_durability,
    )
    problems.extend(report.problems())

    if scenario.cache_size and history.cache_served_reads() == 0:
        # A cache scenario whose clients never served a read locally
        # proves nothing about coherence — fail it as vacuous rather
        # than let a configuration regression pass silently.
        problems.append(
            "cache scenario recorded no cache-served reads (vacuous run)"
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
        # served before the blackout must still honour the session
        # guarantees — detected unavailability, never stale data.
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
        trace_events=list(cluster.obs.tracer.events()),
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
        f"  {'up':>3}  {'busiest':<12}  {'host-s':>7}  problems"
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
            f"{len(v.fault_log):>7}  {up:>3}  {busiest:<12}  "
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

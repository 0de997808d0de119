"""Every chaos scenario's fault schedule (the nemesis).

:class:`~repro.faults.plan.RandomFaultPlan` injects faults at random
instants; real protocol bugs hide at *protocol-critical* moments — the
sequencer dying with uncommitted messages in flight, a partition
forming while a replica is mid-recovery, a server crashing again
before its restart finishes. The nemesis builders here return a
:class:`~repro.faults.plan.FaultPlan` aimed at one such moment, using
:class:`~repro.faults.plan.Intervention` events to inspect *live*
protocol state at fire time (e.g. "whoever is sequencer right now").
The link-fault builders install drop/duplicate/delay/reorder policies
(:mod:`repro.net.policy`) for the window, and two of them ride on a
nemesis plan.

Every builder has the same signature::

    build(cluster, rng, start_ms, window_ms) -> FaultPlan

where *rng* is a named-stream handle (``random.Random``-like) owned by
the caller, *start_ms* is the absolute simulated time faults may begin,
and the plan leaves the world repaired (all servers restarted,
partitions healed, policies removed) before ``start_ms + window_ms``.
Two builders do not, on purpose: ``rolling_faults`` leaves the repair
to the remediation controller and ``majority_lost`` destroys the
majority. A scenario of :data:`repro.chaos.runner.SCENARIOS` names its
builder directly.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan, RandomFaultPlan
from repro.net.policy import Delay, Drop, Duplicate, LinkFilter, Reorder


# ----------------------------------------------------------------------
# live-state probes
# ----------------------------------------------------------------------


def sequencer_index(cluster) -> int | None:
    """Index of the server that currently believes it is sequencer.

    Falls back to the lowest-index alive server when no member claims
    the role (mid-reset), and None when everything is down.
    """
    fallback = None
    for i, server in enumerate(cluster.servers):
        if server is None or not server.alive:
            continue
        if fallback is None:
            fallback = i
        member = getattr(server, "member", None)
        if member is not None and member.is_sequencer:
            return i
    return fallback


def _crash_current_sequencer(cell: dict):
    """An intervention fn: crash the live sequencer, remembering who."""

    def fire(cluster):
        index = sequencer_index(cluster)
        if index is None:
            return "crash sequencer: nobody alive (no-op)"
        cluster.crash_server(index)
        cell["crashed"] = index
        return f"crash sequencer (server {index})"

    return fire


def _restart_remembered(cell: dict):
    def fire(cluster):
        index = cell.pop("crashed", None)
        if index is None:
            return "restart: nothing crashed (no-op)"
        cluster.restart_server(index)
        return f"restart server {index}"

    return fire


def _dir_addresses(cluster) -> list:
    return [site.dir_address for site in cluster.sites]


def _policy_window(plan: FaultPlan, start_ms, window_ms, *policies) -> FaultPlan:
    """Add *policies* to *plan*: installed at the window start, removed
    8 s before its end so retransmissions drain and replicas converge
    while the workload is still running."""
    off_at = start_ms + window_ms - 8_000.0
    for policy in policies:
        plan.install_policy(start_ms, policy)
        plan.remove_policy(off_at, policy)
    return plan


# ----------------------------------------------------------------------
# nemesis scenarios
# ----------------------------------------------------------------------


def sequencer_crash(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """Kill whoever is sequencer — twice — while broadcasts are in
    flight, forcing reset + sequencer handover with uncommitted
    messages in the pipe (the paper's §4 worst case)."""
    plan = FaultPlan()
    n_hits = 2 if window_ms >= 24_000.0 else 1
    slot = (window_ms - 10_000.0) / n_hits
    for hit in range(n_hits):
        cell: dict = {}
        t0 = start_ms + hit * slot + rng.uniform(0.0, slot * 0.3)
        dwell = rng.uniform(2_500.0, 4_500.0)
        plan.intervene(t0, "crash sequencer", _crash_current_sequencer(cell))
        plan.intervene(t0 + dwell, "restart sequencer", _restart_remembered(cell))
    return plan


def partition_during_recovery(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """Crash a replica, then partition it away *while it is running
    the Fig. 6 recovery protocol*, then heal. The recovering server
    must neither serve stale state nor wedge the majority."""
    n = len(cluster.sites)
    victim = rng.randrange(n)
    rest = [i for i in range(n) if i != victim]
    t0 = start_ms + rng.uniform(0.0, 2_000.0)
    restart_at = t0 + rng.uniform(2_000.0, 3_000.0)
    # The recovery exchange starts immediately after restart; cut the
    # network within its first second.
    partition_at = restart_at + rng.uniform(100.0, 900.0)
    heal_at = partition_at + rng.uniform(3_000.0, 6_000.0)
    return (
        FaultPlan()
        .crash(t0, victim)
        .restart(restart_at, victim)
        .partition(partition_at, rest, [victim])
        .heal(heal_at)
    )


def crash_during_restart(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """Crash a replica again in the middle of its own recovery (the
    crashed-during-recovery rule of §3.2), then let it come back."""
    n = len(cluster.sites)
    victim = rng.randrange(n)
    t0 = start_ms + rng.uniform(0.0, 2_000.0)
    first_restart = t0 + rng.uniform(1_500.0, 2_500.0)
    recrash = first_restart + rng.uniform(50.0, 800.0)  # mid-recovery
    final_restart = recrash + rng.uniform(2_000.0, 3_000.0)
    return (
        FaultPlan()
        .crash(t0, victim)
        .restart(first_restart, victim)
        .crash(recrash, victim)
        .restart(final_restart, victim)
    )


def flapping_links(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """Rapidly isolate-and-heal one replica at a time. Short asymmetric
    connectivity windows stress failure detection: views churn, but a
    majority partition exists at every instant."""
    plan = FaultPlan()
    n = len(cluster.sites)
    t = start_ms
    budget_end = start_ms + window_ms - 8_000.0
    while t < budget_end:
        victim = rng.randrange(n)
        rest = [i for i in range(n) if i != victim]
        hold = rng.uniform(300.0, 1_800.0)
        gap = rng.uniform(1_500.0, 3_500.0)
        plan.partition(t, rest, [victim])
        plan.heal(t + hold)
        t += hold + gap
    return plan


def random_soak(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """The classic recoverable random schedule, as a nemesis peer."""
    n = len(cluster.sites)
    return RandomFaultPlan(
        rng,
        n,
        (start_ms, start_ms + window_ms - 10_000.0),
        events=6,
        max_down=(n - 1) // 2,
    )


def rolling_faults(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """The self-driving gauntlet: three sequenced faults, no repairs.

    Phase timing is fractional in *window_ms* so smoke-scaled windows
    keep the same shape. In order:

    1. one replica crashes and is deliberately left down;
    2. a different replica's inbound group traffic turns persistently
       lossy (90%), then the link recovers;
    3. sustained low-grade multicast loss (12%) hits all group
       traffic, then lifts.

    Unlike every other nemesis this plan does NOT repair the world:
    remediation (:mod:`repro.recovery`) is expected to restart the
    corpse and to scale the resilience degree up and back. The lossy
    member is the group's own business: its failure detector gives up
    on the sequencer, the reset excludes it, and it re-runs Fig. 6
    recovery until the link heals (docs/CHAOS.md §2). Without the
    controller the cluster ends the run below its declared resilience
    — the ``remediation_off`` control proves
    ``check_resilience_restored`` isn't vacuous.
    """
    plan = FaultPlan()
    n = len(cluster.sites)
    addresses = _dir_addresses(cluster)

    # Phase 1: crash, no scheduled restart (remediation's job).
    crash_victim = rng.randrange(n)
    crash_at = start_ms + window_ms * 0.04 + rng.uniform(0.0, window_ms * 0.03)
    plan.crash(crash_at, crash_victim)

    # Phase 2: a different member behind a persistently lossy link.
    flap_victim = (crash_victim + 1 + rng.randrange(n - 1)) % n
    lossy = Drop(
        "rolling.lossy",
        LinkFilter(dst=addresses[flap_victim], kind="grp.*"),
        probability=0.9,
    )
    plan.install_policy(start_ms + window_ms * 0.30, lossy)
    plan.remove_policy(start_ms + window_ms * 0.55, lossy)

    # Phase 3: sustained multicast loss over the whole group.
    broad = Drop(
        "rolling.loss",
        LinkFilter(kind="grp.*", multicast=True),
        probability=0.12,
    )
    plan.install_policy(start_ms + window_ms * 0.62, broad)
    plan.remove_policy(start_ms + window_ms * 0.85, broad)
    return plan


def _restart_if_down(index: int):
    """Guarded restart: no-op when the server is already up (the
    remediation controller may have beaten the schedule to it) or the
    site was evicted meanwhile."""

    def fire(cluster):
        server = cluster.servers[index]
        if server is None:
            return f"restart server {index}: site evicted (no-op)"
        if server.alive:
            return f"restart server {index}: already up (no-op)"
        cluster.restart_server(index)
        return f"restart server {index}"

    return fire


def _crash_and_rot(index: int, blocks: int, extents: int):
    """Crash one site's directory server, rot its admin partition and
    Bullet extents while it is down, and bounce its Bullet server so
    the file cache is cold when recovery reads the damage."""

    def fire(cluster):
        site = cluster.sites[index]
        cluster.crash_server(index)
        rng = cluster.sim.rng.stream(f"fault.bitrot.{index}")
        hit = site.disk.inject_bit_rot(rng, blocks, region=site.partition.region)
        erng = cluster.sim.rng.stream(f"fault.extentrot.{index}")
        rotted = site.disk.corrupt_extent(erng, extents)
        site.crash_bullet_server()
        site.restart_bullet_server()
        return (
            f"crash server {index} + rot blocks {hit} + "
            f"{len(rotted)} extent(s), bullet cache dropped"
        )

    return fire


def _rot_live_site(index: int, blocks: int, extents: int):
    """Rot a RUNNING replica's storage: admin-partition bit rot plus
    Bullet extent rot with a bullet-server bounce (cold cache), so the
    scrubber — not a restart — must find and repair everything."""

    def fire(cluster):
        site = cluster.sites[index]
        rng = cluster.sim.rng.stream(f"fault.bitrot.{index}")
        hit = site.disk.inject_bit_rot(rng, blocks, region=site.partition.region)
        erng = cluster.sim.rng.stream(f"fault.extentrot.{index}")
        rotted = site.disk.corrupt_extent(erng, extents)
        site.crash_bullet_server()
        site.restart_bullet_server()
        return (
            f"live rot at site {index}: blocks {hit}, "
            f"{len(rotted)} extent(s), bullet cache dropped"
        )

    return fire


def bitrot_gauntlet(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """The storage-corruption gauntlet: every silent-storage fault in
    the catalogue (docs/CHAOS.md), aimed at all three repair paths.

    Phase timing is fractional in *window_ms* (smoke-scaled windows
    keep the shape). In order:

    1. a **torn write** tears the tail off a live replica's next
       commit-batch flush — the background scrubber must notice the
       RAM-mirror/disk divergence and rewrite the tail;
    2. a **crash point** power-cuts a second replica at a block
       boundary inside an admin flush; **lost** and **misdirected**
       single-block writes are armed against the same disk so its
       recovery's own single-block writes (the recovering flag, the
       seal) misfire too — the post-recovery scrub pass must converge
       the partition anyway;
    3. a third replica crashes and, while it is down, its admin
       partition takes **bit rot** and its Bullet extents **rot** with
       a cold file cache — recovery must quarantine the damage, lose
       the donor election, and refetch via the Fig. 6 state transfer;
    4. late **live rot** (admin blocks + a Bullet extent) hits the
       first replica again, closing with pure scrub-and-repair.

    Guarded restarts make the schedule cooperate with remediation:
    whoever gets there first wins, the other no-ops. The plan leaves
    every machine restarted; with ``integrity=True`` the run must end
    with every acknowledged block back on disk (``check_durability``),
    while the ``bitrot_integrity_off`` control must provably fail it.
    """
    plan = FaultPlan()
    n = len(cluster.sites)
    live = rng.randrange(n)
    cut_victim = (live + 1) % n
    rot_victim = (live + 2) % n

    # Phase 1: tear the tail off the live replica's next batch flush.
    plan.torn_write(start_ms + window_ms * 0.06, live, keep_blocks=1)

    # Phase 2: power-cut inside a flush; recovery's own single-block
    # writes then get lost/misdirected (armed now, consumed at restart).
    t_cut = start_ms + window_ms * 0.20
    plan.crash_point(t_cut, cut_victim, cut_after=1)
    plan.lost_writes(t_cut + 10.0, cut_victim, count=1)
    plan.misdirected_writes(t_cut + 10.0, cut_victim, count=1)
    plan.intervene(
        start_ms + window_ms * 0.38,
        f"restart server {cut_victim}",
        _restart_if_down(cut_victim),
    )

    # Phase 3: crash + rot-while-down + cold bullet cache; the guarded
    # restart forces the quarantine/donor-transfer recovery path.
    plan.intervene(
        start_ms + window_ms * 0.50,
        f"crash server {rot_victim} and rot its storage",
        _crash_and_rot(rot_victim, blocks=3, extents=2),
    )
    plan.intervene(
        start_ms + window_ms * 0.65,
        f"restart server {rot_victim}",
        _restart_if_down(rot_victim),
    )

    # Phase 4: late live rot — scrub-and-repair with no restart at all.
    plan.intervene(
        start_ms + window_ms * 0.80,
        f"rot live server {live}'s storage",
        _rot_live_site(live, blocks=2, extents=1),
    )
    return plan


def majority_lost(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """UNRECOVERABLE on purpose: crash a majority and leave it down.

    The correct behaviour is *unavailability* — survivors refuse
    every request rather than serve potentially stale state. Used by
    the negative tests; excluded from the default suite rotation.
    """
    plan = FaultPlan()
    n = len(cluster.sites)
    doomed = (n // 2) + 1
    t = start_ms + rng.uniform(1_000.0, 3_000.0)
    for index in range(doomed):
        plan.crash(t + index * 200.0, index)
    return plan


# ----------------------------------------------------------------------
# link-fault scenarios (policies riding on a FaultPlan)
# ----------------------------------------------------------------------


def asymmetric_loss(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """≥10 % one-directional loss on two directed server links (the
    reverse directions stay clean), all frame kinds affected."""
    addrs = _dir_addresses(cluster)
    a, b = rng.sample(range(len(addrs)), 2)
    return _policy_window(
        FaultPlan(), start_ms, window_ms,
        Drop("chaos.asym.ab", LinkFilter(src=addrs[a], dst=addrs[b]),
             probability=0.15),
        Drop("chaos.asym.bc",
             LinkFilter(src=addrs[b], dst=addrs[(b + 1) % len(addrs)]),
             probability=0.10),
    )


def multicast_loss(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """One member misses 15 % of group multicasts (everyone else
    receives them) — the classic gap-repair stressor."""
    victim = rng.choice(_dir_addresses(cluster))
    return _policy_window(
        FaultPlan(), start_ms, window_ms,
        Drop("chaos.mcast", LinkFilter(dst=victim, kind="grp.*", multicast=True),
             probability=0.15),
    )


def duplication(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """25 % of deliveries arrive twice (tests request/broadcast dedup
    and at-most-once reply handling)."""
    return _policy_window(
        FaultPlan(), start_ms, window_ms,
        Duplicate("chaos.dup", probability=0.25),
    )


def reordering(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """35 % of deliveries may be overtaken by up to 15 ms of later
    traffic (bounded reordering)."""
    return _policy_window(
        FaultPlan(), start_ms, window_ms,
        Reorder("chaos.reorder", probability=0.35, max_delay_ms=15.0),
    )


def delay_spikes(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """Occasional 20–80 ms stalls — long enough to trip heartbeat
    timeouts now and then, forcing spurious failure detection."""
    return _policy_window(
        FaultPlan(), start_ms, window_ms,
        Delay("chaos.spike", probability=0.04, min_ms=20.0, max_ms=80.0),
    )


def retry_storm(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """The exactly-once gauntlet: drop a quarter of server replies and
    stall some requests for longer than the clients' reply timeout, so
    retry-safe clients blindly resend operations whose first attempt
    often *committed*. Without the session layer this yields duplicate
    applications and spurious AlreadyExists/NotFound answers; with it,
    the dedup cache must answer every resend from the original reply."""
    addrs = tuple(_dir_addresses(cluster))
    return _policy_window(
        FaultPlan(), start_ms, window_ms,
        Drop("retry.replydrop", LinkFilter(src=addrs, kind="rpc.reply"),
             probability=0.25),
        Delay("retry.lag", LinkFilter(dst=addrs, kind="rpc.request"),
              probability=0.15, min_ms=1_500.0, max_ms=4_000.0),
    )


def stale_read_hunt(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """The cache-coherence gauntlet. Three stressors aimed squarely at
    the invalidation protocol (docs/PROTOCOL.md "Client cache
    coherence"): lose a fifth of invalidation records (writes must fall
    back to waiting out the read lease), lose a fifth of the acks
    (same, from the other side), and lag server replies so lookup
    replies race the invalidations for entries they refill. On top, the
    sequencer-crash nemesis forces view changes mid-window, exercising
    the membership fence. Any hole shows up as a stale cache-served
    read, which the linearizability checker flags."""
    addrs = tuple(_dir_addresses(cluster))
    return _policy_window(
        sequencer_crash(cluster, rng, start_ms, window_ms), start_ms, window_ms,
        Drop("cache.invaldrop", LinkFilter(src=addrs, kind="cache.inval"),
             probability=0.20),
        Drop("cache.ackdrop", LinkFilter(dst=addrs, kind="cache.invack"),
             probability=0.20),
        Delay("cache.replylag", LinkFilter(src=addrs, kind="rpc.reply"),
              probability=0.10, min_ms=100.0, max_ms=1_000.0),
    )


def grand_tour(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """Everything at once, mildly: random crash/partition schedule on
    top of low-grade loss, duplication, and reordering."""
    addrs = _dir_addresses(cluster)
    a, b = rng.sample(range(len(addrs)), 2)
    return _policy_window(
        random_soak(cluster, rng, start_ms, window_ms), start_ms, window_ms,
        Drop("chaos.tour.drop", LinkFilter(src=addrs[a], dst=addrs[b]),
             probability=0.08),
        Duplicate("chaos.tour.dup", probability=0.08),
        Reorder("chaos.tour.reorder", probability=0.10, max_delay_ms=10.0),
    )


def rpc_dup_reorder(cluster, rng, start_ms, window_ms) -> FaultPlan:
    """The RPC baseline's link weather: 15 % duplication and 20 %
    bounded reordering."""
    return _policy_window(
        FaultPlan(), start_ms, window_ms,
        Duplicate("chaos.rpc.dup", probability=0.15),
        Reorder("chaos.rpc.reorder", probability=0.20, max_delay_ms=10.0),
    )

"""A live replica the failure detector suspects is excluded, not waited for.

Five servers at resilience 1. One of them, alive throughout, has every
frame it sends held back longer than the echo timeout: the sequencer
suspects it, the group fails naming it, and the reset concludes as
soon as the four unsuspected members have voted — one round trip, not
a vote window, because with one suspect and r = 1 some voter still
holds every committed record. The slow replica finds itself excluded,
runs recovery and rejoins once its link is healthy again, and the
clients' history checks out against every invariant.

When the sequencer and a member lose their link both ways, each
suspects the other and both coordinate a reset that need not wait for
the other's vote. One view with a majority forms, not two.
"""

from collections import Counter

from repro.chaos.nemesis import sequencer_index
from repro.chaos.runner import (
    TRACE_RING_CAPACITY,
    chaos_client,
    client_keys,
    closing_reads,
)
from repro.cluster import GroupServiceCluster
from repro.faults import FaultPlan
from repro.group.timings import RESET_VOTE_WINDOW_MS
from repro.net.policy import Delay, Drop, LinkFilter
from repro.verify import HistoryRecorder, check_cluster


def run_with_faults(seed, name, policies, run_ms):
    """Five servers at r = 1 and two chaos clients; the link policies
    ``policies(cluster)`` returns hold from +1 s to +3 s. Returns the
    cluster, its history and the trace."""
    cluster = GroupServiceCluster(seed=seed, name=name, n_servers=5, resilience=1)
    cluster.start()
    cluster.wait_operational()
    cluster.enable_tracing(TRACE_RING_CAPACITY)
    sim = cluster.sim
    start = sim.now
    plan = FaultPlan()
    for policy in policies(cluster):
        plan.install_policy(start + 1_000.0, policy)
        plan.remove_policy(start + 3_000.0, policy)
    plan.arm(cluster)

    history = HistoryRecorder()
    keys = client_keys("group", 0)
    clients = [
        sim.spawn(chaos_client(cluster, history, i, keys, start + run_ms))
        for i in range(2)
    ]
    cluster.run(until=start + run_ms + 12_000.0)
    assert all(p.resolved for p in clients), "a client hung"
    cluster.wait_operational(timeout_ms=60_000.0)
    cluster.run_process(closing_reads(cluster, history, keys))
    return cluster, history, cluster.obs.tracer.events()


def address(cluster, index):
    return str(cluster.sites[index].dir_address)


def test_a_slow_live_replica_is_suspected_excluded_and_rejoins():
    chosen = {}

    def stall(cluster):
        victim = next(i for i in range(5) if i != sequencer_index(cluster))
        chosen["slow"] = address(cluster, victim)
        return [Delay("slow-replica", LinkFilter(src=chosen["slow"]), min_ms=200.0, max_ms=200.0)]

    cluster, history, events = run_with_faults(3, "slow", stall, 8_000.0)
    slow = chosen["slow"]
    suspected = [
        e for e in events
        if e.name == "grp.fail" and e.args["suspect"] == slow and e.node != slow
    ]
    assert suspected, "nobody suspected the slow replica"
    resets = [e for e in events if e.name == "grp.reset" and e.ts > suspected[0].ts]
    assert resets and resets[0].args["survivors"] == 4
    # The reset ended on the four votes, well inside one vote window.
    assert resets[0].ts - suspected[0].ts < RESET_VOTE_WINDOW_MS
    assert len(cluster.operational_servers()) == 5
    report = check_cluster(cluster, history, events)
    assert report.problems() == [], report.problems()[:3]


def test_mutually_suspecting_replicas_form_one_view():
    chosen = {}

    def cut(cluster):
        sequencer = sequencer_index(cluster)
        chosen["pair"] = a, b = address(cluster, sequencer), address(cluster, (sequencer + 1) % 5)
        return [
            Drop("cut-ab", LinkFilter(src=a, dst=b)),
            Drop("cut-ba", LinkFilter(src=b, dst=a)),
        ]

    cluster, history, events = run_with_faults(1, "mutual", cut, 6_000.0)
    a, b = chosen["pair"]
    blamed = {
        (e.node, e.args["suspect"]) for e in events
        if e.name == "grp.fail" and not e.args["reason"].startswith("peer reported")
    }
    assert {(a, b), (b, a)} <= blamed, "the two did not suspect each other"
    # A reset view counts as formed where a majority holds it: its
    # coordinator and the members that adopted it.
    holders = Counter(
        (e.args["inc"], e.node if e.name == "grp.reset" else e.args["sequencer"])
        for e in events
        if e.name == "grp.reset" or (e.name == "grp.view" and not e.args["joining"])
    )
    formed = [inc for (inc, _), n in holders.items() if n >= 3]
    assert formed and len(formed) == len(set(formed)), holders
    assert len(cluster.operational_servers()) == 5
    report = check_cluster(cluster, history, events)
    assert report.problems() == [], report.problems()[:3]

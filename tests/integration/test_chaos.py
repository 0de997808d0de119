"""Chaos soak tests: random fault schedules + every invariant.

The chaos suite's client (``repro.chaos.runner.chaos_client``) hammers
the group service while a seeded random schedule crashes, restarts, and
partitions servers (never more than a majority's worth down at once).
Afterwards every key is read once more and
``repro.verify.check_cluster`` runs every invariant: replica equality,
per-key linearizability of the history, exactly-once applies, the
declared shape and durability.
"""

import pytest

from repro.bench.harness import drive
from repro.chaos.runner import (
    TRACE_RING_CAPACITY,
    chaos_client,
    client_keys,
    closing_reads,
)
from repro.cluster import GroupServiceCluster
from repro.faults import RandomFaultPlan
from repro.verify import HistoryRecorder, check_cluster


def run_chaos(
    seed: int,
    window_ms: float = 30_000.0,
    n_clients: int = 3,
    n_servers: int = 3,
    max_down: int = 1,
):
    cluster = GroupServiceCluster(
        seed=seed,
        name=f"chaos{seed}",
        n_servers=n_servers,
        resilience=n_servers - 1,
    )
    cluster.start()
    cluster.wait_operational()
    cluster.enable_tracing(TRACE_RING_CAPACITY)
    history = HistoryRecorder()
    sim = cluster.sim
    start = sim.now

    plan = RandomFaultPlan(
        sim.rng.stream("chaos.plan"),
        cluster.config.n_servers,
        (start + 2_000.0, start + window_ms - 10_000.0),
        events=6,
        max_down=max_down,
    )
    plan.arm(cluster)

    keys = client_keys("group", 0)
    _, processes = drive(
        sim,
        [chaos_client(cluster, history, i, keys) for i in range(n_clients)],
        0.0,
        window_ms,
    )
    cluster.run(until=start + window_ms + 30_000.0)
    assert all(p.resolved for p in processes), "a chaos client hung"
    # Let every restarted server finish recovery.
    cluster.wait_operational(timeout_ms=60_000.0)
    cluster.run_process(closing_reads(cluster, history, keys))
    return cluster, history, plan


def assert_every_invariant(cluster, history, plan):
    assert plan.fired >= 3, "schedule injected too few faults to be useful"
    first, last = plan.log[0][0], plan.log[-1][0]
    assert history.overlapping(first, last) > 0, "clients idle while faults fired"
    assert len(cluster.operational_servers()) == cluster.config.n_servers
    problems = check_cluster(cluster, history, cluster.obs.tracer.events()).problems()
    assert problems == [], problems[:3]


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_chaos_preserves_consistency(seed):
    assert_every_invariant(*run_chaos(seed))


def test_chaos_on_five_servers_two_down():
    """A wider deployment under heavier chaos: 5 servers, up to two
    down at once (still a majority of 3)."""
    assert_every_invariant(
        *run_chaos(71, n_clients=2, n_servers=5, max_down=2)
    )


def test_chaos_runs_are_deterministic():
    def digest(seed):
        cluster, history, plan = run_chaos(seed, window_ms=25_000.0, n_clients=2)
        return (
            [(e.client, e.kind, e.key, repr(e.value), e.end_ms) for e in history.events],
            [d for _, d in plan.log],
            cluster.servers[0].state.fingerprint(),
        )

    assert digest(5) == digest(5)

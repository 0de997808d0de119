"""Experiment E7 (ablation) — recovery behaviour (section 3.2).

The paper gives the recovery protocol but no recovery-time
measurements, so this is an ablation over our implementation:

* recovery time of a restarted server vs the number of directories it
  must transfer (one write-out whatever the number);
* the §3.2 improved rule: a survivor that never crashed can pair with
  a restarted stale server, while the strict rule forces it to wait —
  we measure the availability difference directly.
"""

from repro.cluster import GroupServiceCluster

from conftest import write_result


def populate(cluster, n_dirs: int):
    client = cluster.add_client("loader")
    root = cluster.root_capability

    def work():
        for i in range(n_dirs):
            sub = yield from client.create_dir()
            yield from client.append_row(root, f"d{i}", (sub,))

    cluster.run_process(work())
    cluster.run(until=cluster.sim.now + 2_000.0)


def recovery_time(n_dirs: int, seed: int = 0) -> float:
    """Simulated ms for a crashed server to become operational again,
    with *n_dirs* directories updated while it was down."""
    cluster = GroupServiceCluster(seed=seed, name=f"rec{n_dirs}")
    cluster.start()
    cluster.wait_operational()
    cluster.crash_server(2)
    cluster.run(until=cluster.sim.now + 2_000.0)  # detection + reset
    populate(cluster, n_dirs)  # server 2 misses all of this
    start = cluster.sim.now
    cluster.restart_server(2)
    deadline = start + 120_000.0
    while not cluster.servers[2].operational and cluster.sim.now < deadline:
        cluster.run(until=cluster.sim.now + 20.0)
    assert cluster.servers[2].operational, "recovery never finished"
    assert cluster.replicas_consistent()
    return cluster.sim.now - start


def test_recovery_time_scales_with_transfer_size(benchmark, results_dir):
    def run():
        return {n: recovery_time(n) for n in (0, 10, 40)}

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["E7 — rejoin-recovery time vs directories to transfer"]
    for n, t in sorted(times.items()):
        lines.append(f"  {n:3d} dirs missed: {t:8.0f} ms")
    write_result(results_dir, "e7_recovery_time.txt", "\n".join(lines))
    # More to transfer takes longer, but not by much: the install is
    # one write-out (creates pipelined, one arm pass), where the
    # classic install paid ~70 ms per directory. With nothing missed
    # the rejoiner reloads its own disk instead — a different path.
    assert times[40] > times[10]
    per_dir = (times[40] - times[10]) / 30
    assert per_dir < 35.0


def improved_rule_outcome(improved: bool, seed: int = 3):
    """The §3.2 scenario: 3 crashes, {1,2} continue, 2 crashes, 1 stays
    up; then 3 restarts. Can {1,3} resume service?"""
    cluster = GroupServiceCluster(
        seed=seed,
        name="imp" if improved else "strict",
        improved_recovery_rule=improved,
    )
    cluster.start()
    cluster.wait_operational()
    client = cluster.add_client("c")
    root = cluster.root_capability

    def seed_write():
        sub = yield from client.create_dir()
        yield from client.append_row(root, "seed", (sub,))

    cluster.run_process(seed_write())
    cluster.crash_server(2)  # "server 3" dies
    cluster.run(until=cluster.sim.now + 2_500.0)

    def more_writes():
        sub = yield from client.create_dir()
        yield from client.append_row(root, "after3died", (sub,))

    cluster.run_process(more_writes())
    cluster.run(until=cluster.sim.now + 1_500.0)
    cluster.crash_server(1)  # "server 2" dies; server 1 stays up
    start = cluster.sim.now
    cluster.run(until=cluster.sim.now + 2_500.0)
    cluster.restart_server(2)  # "server 3" comes back (stale)
    cluster.run(until=cluster.sim.now + 30_000.0)
    available = cluster.servers[0].operational and cluster.servers[2].operational
    if not available:
        return None  # service still blocked
    consistent = cluster.replicas_consistent()
    names = cluster.servers[2].state.directories[1].names()
    return {
        "resumed_after_ms": cluster.sim.now - start,
        "consistent": consistent,
        "has_latest": "after3died" in names,
    }


def test_improved_rule_restores_availability(benchmark, results_dir):
    def run():
        return improved_rule_outcome(True), improved_rule_outcome(False)

    with_rule, without_rule = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["E7b — §3.2 improved recovery rule (1 stayed up, 3 restarts stale)"]
    if with_rule:
        lines.append(
            f"  improved rule ON : service resumed after "
            f"{with_rule['resumed_after_ms']:.0f} ms, consistent="
            f"{with_rule['consistent']}, latest update present="
            f"{with_rule['has_latest']}"
        )
    else:
        lines.append("  improved rule ON : service did NOT resume (unexpected)")
    lines.append(
        "  improved rule OFF: service "
        + ("resumed (unexpected)" if without_rule else
           "stayed blocked waiting for server 2 (the strict rule)")
    )
    write_result(results_dir, "e7b_improved_rule.txt", "\n".join(lines))
    assert with_rule is not None
    assert with_rule["consistent"] and with_rule["has_latest"]
    assert without_rule is None

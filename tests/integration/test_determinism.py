"""Whole-stack determinism: same seed, same everything.

Reproducibility is a design requirement (DESIGN.md §5): all randomness
flows through named RNG streams, all time is simulated, so any run is
a pure function of the seed. These tests pin that property at the
highest level — if any component sneaks in nondeterminism (dict-order
dependence, wall-clock, global random), they fail.
"""

from repro.bench.harness import fig7_cell, lookup_throughput, update_throughput
from repro.cluster import GroupServiceCluster

from tests.helpers import wire_count


class TestDeterminism:
    def test_cluster_boot_is_deterministic(self):
        def boot(seed):
            cluster = GroupServiceCluster(seed=seed)
            cluster.start()
            cluster.wait_operational()
            return (
                cluster.sim.now,
                tuple(s.member.info().view for s in cluster.servers),
                wire_count(cluster.network, "net.frames_sent"),
            )

        assert boot(3) == boot(3)

    def test_workload_outcome_is_deterministic(self):
        def run(seed):
            cluster = GroupServiceCluster(seed=seed)
            cluster.start()
            cluster.wait_operational()
            client = cluster.add_client("c")
            root = cluster.root_capability

            def work():
                for i in range(5):
                    sub = yield from client.create_dir()
                    yield from client.append_row(root, f"d{i}", (sub,))

            cluster.run_process(work())
            return (
                cluster.sim.now,
                cluster.servers[0].state.fingerprint(),
                cluster.network.stats.snapshot(),
            )

        assert run(17) == run(17)

    def test_different_seeds_differ_in_timing(self):
        def boot_time(seed):
            cluster = GroupServiceCluster(seed=seed)
            cluster.start()
            cluster.wait_operational()
            client = cluster.add_client("c")

            def work():
                yield from client.create_dir()

            cluster.run_process(work())
            return cluster.sim.now

        assert boot_time(1) != boot_time(2)

    def test_fig7_cell_reproducible(self):
        assert fig7_cell("group", "lookup", iterations=3, seed=5) == fig7_cell(
            "group", "lookup", iterations=3, seed=5
        )

    def test_throughput_points_reproducible(self):
        a = lookup_throughput("group", 3, seed=9, measure_ms=2_000.0)
        b = lookup_throughput("group", 3, seed=9, measure_ms=2_000.0)
        assert a == b
        c = update_throughput("nvram", 2, seed=9, measure_ms=3_000.0)
        d = update_throughput("nvram", 2, seed=9, measure_ms=3_000.0)
        assert c == d

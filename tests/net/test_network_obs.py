"""NetworkStats.full_snapshot and the net.* registry counters under
active link-fault policies."""

from repro.net import Delay, Drop, Duplicate, LinkFilter, Reorder

from tests.helpers import TestBed


def make_network(seed=1, policies=None, addresses=("a", "b")):
    """Machines on one segment with *policies* installed; returns the
    bed's simulator, network and the machines by address."""
    bed = TestBed(addresses, seed=seed)
    for policy in policies or []:
        bed.network.add_policy(policy)
    return bed.sim, bed.network, bed


class TestFullSnapshotUnderPolicies:
    def test_certain_drop_counts_frames_and_policy(self):
        sim, net, bed = make_network(
            policies=[Drop("eat-ab", LinkFilter(src="a", dst="b"))]
        )
        got = bed["b"].listen("test")
        for _ in range(4):
            bed["a"].transport.send("b", "test", 32)
        sim.run(until=100.0)
        snap = net.stats.full_snapshot()
        assert got == []
        assert snap["frames_sent"] == 4
        assert snap["frames_dropped"] == 4
        assert snap["policy_drops"] == {"eat-ab": 4}
        assert snap["frames_by_kind"] == {"test": 4}

    def test_duplicate_delay_reorder_counted(self):
        # probability=0.5 mixes FIFO and exempt frames so an overtake
        # actually happens (frames_reordered counts real overtakes,
        # not merely frames the policy touched); seed=1 produces one.
        sim, net, bed = make_network(
            seed=1,
            policies=[
                Duplicate("dup", probability=1.0),
                Delay("slow", probability=1.0, min_ms=5.0, max_ms=6.0),
                Reorder("shuffle", probability=0.5, max_delay_ms=10.0),
            ],
        )
        got = bed["b"].listen("test")
        for _ in range(10):
            bed["a"].transport.send("b", "test", 16)
        sim.run(until=500.0)
        snap = net.stats.full_snapshot()
        assert snap["frames_sent"] == 10
        # Every original delivery is duplicated once and delayed.
        assert snap["frames_duplicated"] == 10
        assert snap["frames_delayed"] == 10
        assert snap["frames_reordered"] == 1
        assert len(got) == 20

    def test_snapshot_is_a_copy(self):
        sim, net, bed = make_network()
        bed["b"].listen("test")
        bed["a"].transport.send("b", "test", 8)
        sim.run(until=10.0)
        snap = net.stats.full_snapshot()
        snap["frames_by_kind"]["test"] = 999
        snap["policy_drops"]["x"] = 1
        assert net.stats.frames_by_kind["test"] == 1
        assert net.stats.policy_drops == {}

    def test_deterministic_across_identical_runs(self):
        def run():
            sim, net, bed = make_network(
                seed=9,
                policies=[
                    Drop("maybe", probability=0.3),
                    Duplicate("dup", probability=0.3),
                ],
            )
            bed["b"].listen("test")
            for i in range(20):
                bed["a"].transport.send("b", "test", 8 + i)
            sim.run(until=500.0)
            return net.stats.full_snapshot()

        assert run() == run()


class TestRegistryMirror:
    def test_net_counters_match_stats(self):
        """The wire counts live in the registry alone; what NetworkStats
        keeps of its own (drops per policy) adds up to the registry's
        ``net.policy_drops``."""
        sim, net, bed = make_network(
            seed=5,
            policies=[Drop("eat", LinkFilter(src="a", dst="b"))],
            addresses=("a", "b", "c"),
        )
        bed["b"].listen("test")
        for _ in range(3):
            bed["a"].transport.send("b", "test", 24)
        bed["c"].transport.send("b", "test", 24)
        sim.run(until=100.0)
        counters = sim.obs.registry.snapshot()["net"]["counters"]
        assert counters["net.frames_sent"] == 4
        assert counters["net.bytes_sent"] == 4 * 128
        assert counters["net.frames_dropped"] == 3
        assert counters["net.policy_drops"] == 3
        assert net.stats.policy_drops == {"eat": 3}

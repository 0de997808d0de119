"""Client cache coherence, end to end (docs/PROTOCOL.md).

A cache-enabled client must serve repeated lookups locally, yet a
completed write anywhere in the deployment must be visible to every
subsequent lookup — cached or not. The negative control (a client
that acknowledges invalidations but ignores them) proves the
machinery is doing the work, and ``cache_size=0`` must reproduce the
pre-cache wire behaviour byte for byte.
"""

import pytest

from repro.cluster import GroupServiceCluster, NvramServiceCluster
from repro.net.policy import Drop, LinkFilter
from tests.helpers import pin_to_server


def make_cluster(seed=11, coherence=True, kind=GroupServiceCluster):
    cluster = kind(
        seed=seed, **({"cache_coherence": True} if coherence else {})
    )
    cluster.start()
    cluster.wait_operational()
    return cluster


class TestCachedReads:
    def test_repeat_lookup_is_served_locally(self):
        cluster = make_cluster()
        root = cluster.root_capability
        reader = cluster.add_client("r", cache_size=32)
        out = {}

        def work():
            writer = cluster.add_client("w")
            target = yield from writer.create_dir()
            yield from writer.append_row(root, "hot", (target,))
            first = yield from reader.lookup(root, "hot")
            out["first_from_cache"] = reader.last_lookup_from_cache
            second = yield from reader.lookup(root, "hot")
            out["second_from_cache"] = reader.last_lookup_from_cache
            out["agree"] = first == second is not None

        cluster.run_process(work())
        assert not out["first_from_cache"]  # the fill went remote
        assert out["second_from_cache"]
        assert out["agree"]
        assert reader.cache_served == 1

    def test_completed_write_invalidates_before_returning(self):
        """Once another client's delete has RETURNED, no lookup — not
        even a cache-served one — may still show the row (the write
        barrier of docs/PROTOCOL.md)."""
        cluster = make_cluster()
        root = cluster.root_capability
        reader = cluster.add_client("r", cache_size=32)
        out = {}

        def work():
            writer = cluster.add_client("w")
            target = yield from writer.create_dir()
            yield from writer.append_row(root, "row", (target,))
            cached = yield from reader.lookup(root, "row")
            assert cached is not None
            yield from writer.delete_row(root, "row")
            got = yield from reader.lookup(root, "row")
            out["after_delete"] = got

        cluster.run_process(work())
        assert out["after_delete"] is None

    def test_lease_expiry_sends_lookup_back_to_a_server(self):
        cluster = make_cluster()
        root = cluster.root_capability
        reader = cluster.add_client("r", cache_size=32)
        out = {}

        def work():
            writer = cluster.add_client("w")
            target = yield from writer.create_dir()
            yield from writer.append_row(root, "hot", (target,))
            yield from reader.lookup(root, "hot")
            yield from reader.lookup(root, "hot")
            assert reader.last_lookup_from_cache
            # Out-sleep the lease (config default 2 s): the entry's
            # replica lease lapses and the next lookup must go remote.
            yield cluster.sim.sleep(cluster.config.cache_lease_ms + 500.0)
            got = yield from reader.lookup(root, "hot")
            out["from_cache_after_lapse"] = reader.last_lookup_from_cache
            out["value_ok"] = got is not None

        cluster.run_process(work())
        assert not out["from_cache_after_lapse"]
        assert out["value_ok"]

    def test_renewed_lease_does_not_resurrect_entries_of_a_lapsed_one(self):
        """An entry filled under a lease that lapsed stays dead when the
        same replica grants a new lease: in the gap the replica had
        written the client off (expiry counts as the ack) and pushed
        nothing, so the entry may be arbitrarily stale."""
        cluster = make_cluster()
        root = cluster.root_capability
        reader = cluster.add_client("r", cache_size=32)
        pin_to_server(reader, cluster, 0)  # every lease comes from replica 0
        lost = cluster.network.add_policy(
            Drop(
                "lose-inval",
                LinkFilter(dst=reader.transport.address, kind="cache.inval"),
            )
        )
        out = {}

        def work():
            writer = cluster.add_client("w")
            target = yield from writer.create_dir()
            yield from writer.append_row(root, "old", (target,))
            yield from writer.append_row(root, "other", (target,))
            yield from reader.lookup(root, "old")  # filled under lease A
            granted = cluster.sim.now
            # The invalidation never arrives, so the delete's barrier
            # is released by lease A running out — on both sides.
            yield from writer.delete_row(root, "old")
            out["lapsed"] = cluster.sim.now - granted >= cluster.config.cache_lease_ms
            yield from reader.lookup(root, "other")  # lease B, same replica
            out["old"] = yield from reader.lookup(root, "old")
            out["old_from_cache"] = reader.last_lookup_from_cache

        cluster.run_process(work())
        assert lost.dropped >= 1
        assert out["lapsed"]
        assert not out["old_from_cache"]
        assert out["old"] is None

    def test_cached_client_against_plain_deployment_downgrades(self):
        """A cache-enabled client talking to servers without coherence
        gets correct answers and simply never caches (a reply that
        grants no lease must not fill)."""
        cluster = make_cluster(coherence=False)
        root = cluster.root_capability
        reader = cluster.add_client("r", cache_size=32)
        out = {}

        def work():
            writer = cluster.add_client("w")
            target = yield from writer.create_dir()
            yield from writer.append_row(root, "row", (target,))
            first = yield from reader.lookup(root, "row")
            second = yield from reader.lookup(root, "row")
            out["values_ok"] = first == second is not None
            out["cached"] = reader.last_lookup_from_cache

        cluster.run_process(work())
        assert out["values_ok"]
        assert not out["cached"]
        assert reader.cache_served == 0

    def test_nvram_deployment_inherits_coherence(self):
        cluster = make_cluster(kind=NvramServiceCluster)
        root = cluster.root_capability
        reader = cluster.add_client("r", cache_size=32)
        out = {}

        def work():
            writer = cluster.add_client("w")
            target = yield from writer.create_dir()
            yield from writer.append_row(root, "row", (target,))
            yield from reader.lookup(root, "row")
            yield from reader.lookup(root, "row")
            out["hit"] = reader.last_lookup_from_cache
            yield from writer.delete_row(root, "row")
            out["after_delete"] = yield from reader.lookup(root, "row")

        cluster.run_process(work())
        assert out["hit"]
        assert out["after_delete"] is None


class TestNoCoherenceControl:
    def test_rogue_client_serves_stale_reads(self):
        """Acknowledge-but-ignore must produce the stale read the
        chaos control scenario exists to demonstrate. (A client that
        simply dropped invalidations unacknowledged would instead
        wedge every write until lease expiry.)"""
        cluster = make_cluster()
        root = cluster.root_capability
        rogue = cluster.add_client("x", cache_size=32, cache_nocoherence=True)
        out = {}

        def work():
            writer = cluster.add_client("w")
            target = yield from writer.create_dir()
            yield from writer.append_row(root, "row", (target,))
            yield from rogue.lookup(root, "row")  # fill
            yield from writer.delete_row(root, "row")
            got = yield from rogue.lookup(root, "row")
            out["stale_value"] = got is not None
            out["served_locally"] = rogue.last_lookup_from_cache

        cluster.run_process(work())
        assert out["stale_value"], "the control failed to go stale"
        assert out["served_locally"]


def _wire_digest(seed, coherence, client_kwargs):
    cluster = make_cluster(seed=seed, coherence=coherence)
    root = cluster.root_capability
    client = cluster.add_client("c", **client_kwargs)

    def work():
        target = yield from client.create_dir()
        for i in range(4):
            yield from client.append_row(root, f"n{i}", (target,))
            yield from client.lookup(root, f"n{i}")
            yield from client.lookup(root, f"n{i}")
        yield from client.delete_row(root, "n0")
        yield from client.lookup(root, "n0")

    cluster.run_process(work())
    cluster.run(until=cluster.sim.now + 500.0)  # drain in-flight frames
    snapshot = cluster.network.stats.full_snapshot()
    fingerprints = tuple(
        s.state.fingerprint() for s in cluster.operational_servers()
    )
    return snapshot, fingerprints, cluster.sim.now


class TestCacheOffEquivalence:
    def test_cache_size_zero_is_byte_identical_to_default(self):
        """``cache_size=0`` (explicit) and no cache argument at all
        must produce the exact same simulation — same frames, same
        bytes, same state, same clock."""
        explicit = _wire_digest(23, False, {"cache_size": 0})
        default = _wire_digest(23, False, {})
        assert explicit == default

    def test_cache_off_run_carries_no_coherence_frames(self):
        snapshot, _, _ = _wire_digest(29, False, {})
        kinds = set(snapshot.get("frames_by_kind", snapshot))
        assert not [k for k in kinds if str(k).startswith("cache.")]

    def test_cached_run_is_deterministic(self):
        first = _wire_digest(31, True, {"cache_size": 16})
        second = _wire_digest(31, True, {"cache_size": 16})
        assert first == second

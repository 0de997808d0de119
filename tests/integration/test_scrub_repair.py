"""Self-healing storage: scrubber, read-repair, and quarantine.

The detection layer (tests/storage/test_integrity.py) makes damage
loud; these tests check the repair loop actually closes — a live
replica scrubs its own rot back to health, and a replica that boots
from a damaged disk quarantines the loss and heals from a donor.
"""

import pytest

from repro.cluster import GroupServiceCluster
from repro.directory import store


def make_cluster(seed=7, **overrides):
    cluster = GroupServiceCluster(seed=seed, integrity=True, **overrides)
    cluster.start()
    cluster.wait_operational()
    return cluster


def seed_rows(cluster, n=3, prefix="f"):
    client = cluster.add_client("seeder")
    root = cluster.root_capability

    def work():
        for i in range(n):
            sub = yield from client.create_dir()
            yield from client.append_row(root, f"{prefix}{i}", (sub,))

    cluster.run_process(work())
    return root


def scrub_repairs(cluster, site_index):
    registry = cluster.sim.obs.registry
    name = cluster.sites[site_index].disk.name
    return registry.counter(name, "disk.scrub_repairs").value


class TestScrubber:
    def test_scrubber_repairs_admin_bit_rot_in_place(self):
        cluster = make_cluster()
        root = seed_rows(cluster)
        site = cluster.sites[1]
        rng = cluster.sim.rng.stream("test.rot")
        hit = site.disk.inject_bit_rot(rng, 2, region=site.partition.region)
        assert hit  # the fault landed on real stored blocks

        # A couple of scrub intervals later the damage is rewritten
        # from the RAM mirrors and the taint is gone.
        cluster.run(until=cluster.sim.now + 5_000.0)
        assert site.disk.tainted_blocks() == []
        assert scrub_repairs(cluster, 1) >= len(hit)

        reader = cluster.add_client("reader")

        def after():
            found = yield from reader.lookup(root, "f0")
            return found is not None

        assert cluster.run_process(after()) is True
        assert cluster.replicas_consistent()

    def test_scrubber_recreates_rotten_bullet_extent(self):
        cluster = make_cluster()
        seed_rows(cluster)
        site = cluster.sites[2]
        # Rot the Bullet file of a LIVE directory entry (random extent
        # rot could land on a stale file already pending removal, which
        # would vanish without needing a repair).
        obj, (cap, _seqno) = sorted(cluster.servers[2].admin.entries.items())[0]
        key = ("bullet", site.bullet.instance, cap.object_number)
        assert key in site.disk.extent_keys()
        site.disk._tainted_extents.add(key)
        # Evict the Bullet server's RAM copy: a warm cache masks disk
        # rot, so force the scrub read down to the damaged extent.
        site.bullet._cache.pop(cap.object_number, None)

        cluster.run(until=cluster.sim.now + 5_000.0)
        # The damaged extent was re-created from the live RAM image and
        # the corrupt copy removed; nothing stored is corrupt anymore.
        assert not any(
            site.disk.extent_corrupt(k) for k in site.disk.extent_keys()
        )
        assert scrub_repairs(cluster, 2) >= 1
        assert cluster.replicas_consistent()

    def test_scrub_now_repairs_without_the_periodic_pass(self, monkeypatch):
        """The remediation hook: with the periodic pass due only after
        the test ends, scrub_now() is the only repair path and it must
        suffice."""
        monkeypatch.setattr(store, "SCRUB_INTERVAL_MS", 1e9)
        cluster = make_cluster()
        seed_rows(cluster)
        site = cluster.sites[0]
        rng = cluster.sim.rng.stream("test.rot-now")
        hit = site.disk.inject_bit_rot(rng, 1, region=site.partition.region)
        assert hit

        # No periodic pass: the rot just sits there.
        cluster.run(until=cluster.sim.now + 5_000.0)
        assert site.disk.tainted_blocks() == hit

        cluster.servers[0].scrub_now()
        cluster.run(until=cluster.sim.now + 2_000.0)
        assert site.disk.tainted_blocks() == []
        assert scrub_repairs(cluster, 0) >= 1


class TestQuarantine:
    def test_rotten_bullet_file_quarantines_and_heals_from_donor(self):
        """A replica that boots from a disk with a damaged Bullet file
        must not certify completeness: it quarantines the object,
        loses the donor election, and re-fetches the state from an
        intact peer."""
        cluster = make_cluster(seed=9)
        root = seed_rows(cluster, n=4)

        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 500.0)
        site = cluster.sites[1]
        rng = cluster.sim.rng.stream("test.down-rot")
        assert site.disk.corrupt_extent(rng, 1)

        cluster.restart_server(1)
        cluster.wait_operational(timeout_ms=60_000.0)
        assert cluster.servers[1].operational
        # Recovery's final seal clears the quarantine once the donor
        # transfer has replaced the damaged state.
        assert cluster.servers[1].admin.quarantined_blocks == []

        reader = cluster.add_client("reader")

        def after():
            results = []
            for i in range(4):
                found = yield from reader.lookup(root, f"f{i}")
                results.append(found is not None)
            return results

        assert cluster.run_process(after()) == [True] * 4
        assert cluster.replicas_consistent()

    def test_rotten_admin_blocks_quarantine_and_heal_from_donor(self):
        cluster = make_cluster(seed=11)
        root = seed_rows(cluster, n=3)

        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 500.0)
        site = cluster.sites[2]
        rng = cluster.sim.rng.stream("test.admin-rot")
        assert site.disk.inject_bit_rot(rng, 2, region=site.partition.region)

        cluster.restart_server(2)
        cluster.wait_operational(timeout_ms=60_000.0)
        assert cluster.servers[2].operational
        assert cluster.servers[2].admin.quarantined_blocks == []
        assert cluster.replicas_consistent()

        reader = cluster.add_client("reader")

        def after():
            found = yield from reader.lookup(root, "f0")
            return found is not None

        assert cluster.run_process(after()) is True

    def test_quarantined_disk_never_wins_the_donor_election(self):
        """best_known_seqno is the election: a quarantined replica must
        report zero so an intact peer donates, even if its own seqno
        was the highest before the damage."""
        cluster = make_cluster(seed=13)
        seed_rows(cluster, n=2)
        server = cluster.servers[0]
        assert server.best_known_seqno() > 0
        server.admin.quarantined_blocks.append(1)
        try:
            assert server.best_known_seqno() == 0
        finally:
            server.admin.quarantined_blocks.clear()

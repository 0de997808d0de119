"""Tests for the cluster report() observability API."""

import pytest

from repro.bench.harness import PAPER_SERVER, build_deployment
from repro.cluster import GroupServiceCluster, NfsServiceCluster


@pytest.fixture
def cluster():
    c = GroupServiceCluster(seed=47)
    c.start()
    c.wait_operational()
    return c


class TestReport:
    def test_report_shape(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "x", (sub,))
            yield from client.lookup(root, "x")

        cluster.run_process(work())
        report = cluster.report()
        assert report["simulated_ms"] > 0
        assert report["frames_sent"] > 0
        assert len(report["sites"]) == 3
        assert len(report["servers"]) == 3
        assert sum(s["reads"] for s in report["servers"]) == 1
        assert sum(s["writes"] for s in report["servers"]) == 2

    def test_disk_ops_attributed_to_sites(self):
        """The paper's server: a shadow-page commit per update."""
        cluster = build_deployment("group", seed=47, **PAPER_SERVER).cluster
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "x", (sub,))
            yield cluster.sim.sleep(1_000.0)

        cluster.run_process(work())
        report = cluster.report()
        for site in report["sites"]:
            # Every replica's disk saw the update (active replication).
            assert site["disk_ops"]["random"] >= 4  # 2 shadow commits
            assert site["disk_ops"]["sequential"] >= 2  # bullet writes

    def test_frame_kinds_include_group_traffic(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "x", (sub,))

        cluster.run_process(work())
        kinds = cluster.report()["frames_by_kind"]
        prefix = f"grp.dirsvc.{cluster.name}."
        assert any(k.startswith(prefix) for k in kinds)
        assert "rpc.request" in kinds

    def test_report_on_siteless_cluster(self):
        nfs = NfsServiceCluster(seed=1)
        client = nfs.add_client("c")
        root = nfs.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "x", (sub,))

        nfs.run_process(work())
        report = nfs.report()
        assert "sites" not in report
        assert report["frames_sent"] > 0

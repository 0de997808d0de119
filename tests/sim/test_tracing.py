"""Tests for the simulator's introspection surface."""


class TestTracing:
    def test_self_fencing_logged(self):
        from repro.cluster import GroupServiceCluster

        cluster = GroupServiceCluster(seed=2)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("c")
        root = cluster.root_capability
        cluster.sites[1].crash_bullet_server()

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "x", (sub,))

        cluster.run_process(work())
        cluster.run(until=cluster.sim.now + 30_000.0)
        counters = cluster.report()["metrics"]["grp.dir1"]["counters"]
        assert counters["dir.fenced"] == 1

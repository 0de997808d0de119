"""``cluster.change_resilience``: the one setting a running service
changes, ordered through the group to every replica."""

from repro.cluster import GroupServiceCluster


class TestRuntimeResilienceChange:
    def test_change_propagates_to_every_member_kernel(self):
        cluster = GroupServiceCluster(
            n_servers=3, name="rc", seed=5, resilience=1
        )
        cluster.start()
        cluster.wait_operational()
        seqno = cluster.run_process(cluster.change_resilience(2))
        assert seqno >= 0
        cluster.sim.run(until=cluster.sim.now + 1_000.0)
        for server in cluster.operational_servers():
            assert server.member.kernel.resilience == 2
        assert cluster.config.resilience == 2
        assert cluster.declared_resilience == 2

    def test_undeclared_change_keeps_declared_degree(self):
        """The remediation controller's temporary scale-ups pass
        declared=False so check_resilience_restored still holds the
        cluster to the operator's degree."""
        cluster = GroupServiceCluster(
            n_servers=3, name="rd", seed=5, resilience=1
        )
        cluster.start()
        cluster.wait_operational()
        cluster.run_process(cluster.change_resilience(2, declared=False))
        assert cluster.config.resilience == 2
        assert cluster.declared_resilience == 1

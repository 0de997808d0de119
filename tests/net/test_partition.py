"""Unit tests for the clean-partition controller."""

from repro.net.partition import PartitionController


class TestPartitionController:
    def test_initially_whole(self):
        pc = PartitionController()
        assert pc.connected("a", "b")

    def test_split_separates_groups(self):
        pc = PartitionController()
        pc.split([["a", "b"], ["c"]])
        assert pc.connected("a", "b")
        assert not pc.connected("a", "c")

    def test_unmentioned_addresses_stay_in_component_zero(self):
        pc = PartitionController()
        pc.split([["c"]])
        assert pc.connected("a", "b")
        assert not pc.connected("a", "c")

    def test_heal_restores_connectivity(self):
        pc = PartitionController()
        pc.split([["a"], ["b"]])
        pc.heal()
        assert pc.connected("a", "b")

    def test_isolate_and_rejoin(self):
        pc = PartitionController()
        pc.split([["x"]])
        assert not pc.connected("x", "y")
        pc.heal()
        assert pc.connected("x", "y")

    def test_isolate_two_nodes_separately(self):
        pc = PartitionController()
        pc.split([["x"], ["y"]])
        assert not pc.connected("x", "y")
        assert not pc.connected("x", "z") and not pc.connected("y", "z")

    def test_connected_is_symmetric(self):
        pc = PartitionController()
        pc.split([["a", "b"], ["c", "d"]])
        for pair in [("a", "b"), ("a", "c"), ("c", "d")]:
            assert pc.connected(*pair) == pc.connected(*reversed(pair))

    def test_resplit_replaces_previous_partition(self):
        pc = PartitionController()
        pc.split([["a"], ["b"]])
        pc.split([["a", "b"]])
        assert pc.connected("a", "b")

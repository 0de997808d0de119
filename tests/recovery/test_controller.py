"""Remediation-controller unit tests: each policy against a real
cluster, driven by a stub monitor so every alert edge is exact."""

import pytest

from repro.cluster import GroupServiceCluster
from repro.obs.monitor import Alert
from repro.recovery import RemediationController
from repro.recovery import controller as controller_module
from repro.recovery.controller import STALENESS


class StubMonitor:
    """Just the surface the controller uses: the cadence and the
    table of active alerts."""

    def __init__(self, sim, interval_ms=100.0):
        self.sim = sim
        self.interval_ms = interval_ms
        self.active_alerts: list = []

    def raise_alert(self, node, signal):
        self.active_alerts.append(
            Alert(self.sim.now, str(node), signal, 1.0, 0.5))

    def clear_alert(self, node, signal):
        self.active_alerts = [
            a for a in self.active_alerts
            if (a.node, a.signal) != (str(node), signal)
        ]


def make_cluster(**kw):
    cluster = GroupServiceCluster(name="ctl", seed=9, **kw)
    cluster.start()
    cluster.wait_operational()
    return cluster


@pytest.fixture
def short_windows(monkeypatch):
    """The policy windows are constants sized for chaos runs; a unit
    test shortens the ones it waits out."""
    def shorten(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(controller_module, name, value)
    return shorten


def make_controller(cluster):
    monitor = StubMonitor(cluster.sim)
    return RemediationController(cluster, monitor).start(), monitor


def run(cluster, ms):
    cluster.sim.run(until=cluster.sim.now + ms)


class TestRestartPolicy:
    def test_crashed_member_with_staleness_alert_is_rebooted(self):
        cluster = make_cluster()
        controller, monitor = make_controller(cluster)
        cluster.crash_server(1)
        monitor.raise_alert(cluster.sites[1].dir_address, STALENESS)
        run(cluster, 400.0)
        assert cluster.servers[1] is not None and cluster.servers[1].alive
        actions = [a["action"] for a in controller.actions]
        assert actions == ["restart"]
        assert controller.actions[0]["node"] == str(cluster.sites[1].dir_address)

    def test_restart_budget_is_enforced(self, short_windows):
        short_windows(MAX_RESTARTS=1, RESTART_COOLDOWN_MS=0.0)
        cluster = make_cluster()
        controller, monitor = make_controller(cluster)
        node = cluster.sites[1].dir_address
        cluster.crash_server(1)
        monitor.raise_alert(node, STALENESS)
        run(cluster, 400.0)
        assert cluster.servers[1].alive
        cluster.crash_server(1)
        run(cluster, 800.0)
        assert not cluster.servers[1].alive  # budget spent; stays down
        assert [a["action"] for a in controller.actions] == ["restart"]

    def test_no_action_without_an_alert(self):
        cluster = make_cluster()
        controller, _ = make_controller(cluster)
        cluster.crash_server(1)
        run(cluster, 600.0)
        assert controller.actions == []


class TestAudit:
    def test_actions_are_numbered_and_counted(self):
        cluster = make_cluster()
        controller, monitor = make_controller(cluster)
        cluster.crash_server(1)
        monitor.raise_alert(cluster.sites[1].dir_address, STALENESS)
        run(cluster, 400.0)
        assert [a["n"] for a in controller.actions] == [1]
        counted = cluster.sim.obs.registry.counter(
            "remediation", "remediate.actions")
        assert counted.value == 1

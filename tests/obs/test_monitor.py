"""Health-monitor unit tests: which series it reads, hysteresis, alerts.

These drive :class:`repro.obs.monitor.HealthMonitor` by hand against a
fake clock and a real :class:`MetricsRegistry` — no simulator, no
cluster — so each sampling window and threshold crossing is exact. The
window arithmetic itself (mean, rate, baseline) is
``tests/obs/test_registry.py::TestWindow``'s.
"""

import dataclasses

import pytest

from repro.obs.monitor import (
    DEFAULT_THRESHOLDS,
    INTERVAL_MS,
    Alert,
    HealthMonitor,
    Threshold,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.saturation import Sampler


class FakeObs:
    def __init__(self, registry):
        self.registry = registry
        self.emitted = []

    def emit(self, node, cat, name, **kw):
        self.emitted.append((node, cat, name, kw))


class FakeSim:
    """Just a clock plus an obs bundle; the monitor is ticked by hand
    (its process is spawned into the void)."""

    def __init__(self):
        self.now = 0.0
        self.obs = FakeObs(MetricsRegistry(clock=self))

    @property
    def registry(self):
        return self.obs.registry

    def spawn(self, gen, name):
        return None


def make_monitor(sim, **kw):
    return HealthMonitor(sim, **kw).start()


def advance(sim, monitor, ms=INTERVAL_MS):
    sim.now += ms
    return monitor.tick()


class TestGaugeSampling:
    def test_window_mean_by_area_differencing(self):
        sim = FakeSim()
        gauge = sim.registry.gauge("s0", "group.backlog")
        monitor = make_monitor(sim)
        gauge.set(10.0)  # level 10 for the whole window
        samples = advance(sim, monitor)
        assert samples[("s0", "group.backlog")] == pytest.approx(10.0)

    def test_spike_that_drains_before_the_tick_still_counts(self):
        sim = FakeSim()
        gauge = sim.registry.gauge("s0", "group.backlog")
        monitor = make_monitor(sim)
        sim.now += 100.0
        gauge.set(100.0)  # spike...
        sim.now += 100.0
        gauge.set(0.0)  # ...fully drained 300 ms before the tick
        sim.now += 300.0
        samples = monitor.tick()
        # 100 ms at level 100 over a 500 ms window: mean 20, alerting,
        # even though the instantaneous value at the tick is 0.
        assert samples[("s0", "group.backlog")] == pytest.approx(20.0)
        assert [a.signal for a in monitor.alerts] == ["group.backlog"]

    def test_baseline_excludes_history_before_start(self):
        sim = FakeSim()
        gauge = sim.registry.gauge("s0", "group.backlog")
        gauge.set(1000.0)
        sim.now += 10_000.0  # a huge pre-monitor backlog era
        gauge.set(0.0)
        monitor = make_monitor(sim)
        samples = advance(sim, monitor)
        assert samples[("s0", "group.backlog")] == pytest.approx(0.0)
        assert monitor.alerts == []


class TestCounterSampling:
    def test_rate_is_per_second(self):
        sim = FakeSim()
        counter = sim.registry.counter("s1", "group.retrans_requested")
        monitor = make_monitor(sim)
        counter.inc(3)
        samples = advance(sim, monitor)  # 3 in 0.5 s -> 6/s
        assert samples[("s1", "group.retrans_rate")] == pytest.approx(6.0)

    def test_baseline_excludes_preexisting_count(self):
        sim = FakeSim()
        counter = sim.registry.counter("s1", "group.retrans_requested")
        counter.inc(1_000_000)
        monitor = make_monitor(sim)
        samples = advance(sim, monitor)
        assert samples[("s1", "group.retrans_rate")] == pytest.approx(0.0)
        assert monitor.alerts == []

    def test_single_view_adoption_trips_churn(self):
        sim = FakeSim()
        counter = sim.registry.counter("s2", "group.views_adopted")
        monitor = make_monitor(sim)
        counter.inc()  # one membership change in the window -> 2/s
        advance(sim, monitor)
        assert [a.signal for a in monitor.alerts] == ["group.view_churn"]
        advance(sim, monitor)  # quiet window -> 0/s -> clears
        assert [c.signal for c in monitor.clears] == ["group.view_churn"]
        assert monitor.active_alerts == []


class TestSeqUtilization:
    """The apply stage's busy share is a capacity series, not an
    alert: the monitor does not read it, the bare sampler does."""

    def test_utilization_is_the_busy_fraction_of_the_window(self):
        sim = FakeSim()
        busy = sim.registry.counter("a", "dir.apply_busy_ms")
        sampler = Sampler(sim, INTERVAL_MS).start()
        busy.inc(250.0)  # busy half of the 500 ms window
        samples = advance(sim, sampler)
        assert samples[("a", "dir.apply.rho")] == pytest.approx(0.5)
        assert ("a", "dir.apply.rho") not in advance(sim, make_monitor(sim))

    def test_baseline_excludes_preexisting_busy_time(self):
        sim = FakeSim()
        busy = sim.registry.counter("a", "dir.apply_busy_ms")
        busy.inc(10_000.0)  # history from before the sampler started
        sampler = Sampler(sim, INTERVAL_MS).start()
        samples = advance(sim, sampler)
        assert samples[("a", "dir.apply.rho")] == 0.0


class TestHeartbeatStaleness:
    def test_staleness_is_now_minus_last_heartbeat(self):
        sim = FakeSim()
        gauge = sim.registry.gauge("s0", "group.last_heartbeat_ms")
        gauge.set(0.0)
        monitor = make_monitor(sim)
        advance(sim, monitor)  # 500 ms stale >= 400 -> alert
        assert [a.signal for a in monitor.alerts] == [
            "group.heartbeat_staleness"
        ]
        gauge.set(sim.now)  # heartbeat seen again
        advance(sim, monitor)  # 500 ms later: staleness 500? no — gauge
        # was refreshed at the previous tick, so staleness is 500 again
        # and the alert stays active; refresh just before the tick:
        sim.now += 400.0
        gauge.set(sim.now)
        sim.now += 100.0
        monitor.tick()  # staleness 100 <= 150 -> clear
        assert [c.signal for c in monitor.clears] == [
            "group.heartbeat_staleness"
        ]


class TestHysteresis:
    def threshold(self):
        return (Threshold("group.backlog", 8.0, 2.0, "msgs"),)

    def test_no_flapping_between_thresholds(self):
        sim = FakeSim()
        gauge = sim.registry.gauge("s0", "group.backlog")
        monitor = make_monitor(sim, thresholds=self.threshold())
        for level, alerts, clears in (
            (5.0, 0, 0),   # below alert line: nothing
            (10.0, 1, 0),  # crosses 8: alert
            (5.0, 1, 0),   # between 2 and 8: alert stays active
            (10.0, 1, 0),  # re-crossing while active: no duplicate
            (1.0, 1, 1),   # at/below 2: clears
            (5.0, 1, 1),   # between again: stays cleared
        ):
            gauge.set(level)
            advance(sim, monitor)
            gauge.set(level)  # hold the level for the next window too
            assert (len(monitor.alerts), len(monitor.clears)) == (
                alerts, clears
            ), f"after window at level {level}"

    def test_alert_and_clear_emit_trace_events(self):
        sim = FakeSim()
        gauge = sim.registry.gauge("s0", "group.backlog")
        monitor = make_monitor(sim, thresholds=self.threshold())
        gauge.set(50.0)
        advance(sim, monitor)
        gauge.set(0.0)
        advance(sim, monitor)
        names = [(node, cat, name) for node, cat, name, _ in sim.obs.emitted]
        assert names == [("s0", "mon", "mon.alert"), ("s0", "mon", "mon.clear")]
        _, _, _, kw = sim.obs.emitted[0]
        assert kw["lineage"] == ("mon", "s0")
        assert kw["signal"] == "group.backlog"
        assert kw["value"] == pytest.approx(50.0)


class TestReporting:
    def test_alerts_between_filters_by_time(self):
        sim = FakeSim()
        gauge = sim.registry.gauge("s0", "group.backlog")
        monitor = make_monitor(sim, thresholds=(
            Threshold("group.backlog", 8.0, 2.0),
        ))
        gauge.set(10.0)
        advance(sim, monitor)  # alert at t=500
        assert len(monitor.alerts_between(0.0, 1_000.0)) == 1
        assert monitor.alerts_between(600.0, 1_000.0) == []

    def test_alert_as_dict_rounds(self):
        alert = Alert(123.4567891, "s0", "group.backlog", 10.123456789, 8.0)
        d = alert.as_dict()
        assert d["at_ms"] == 123.457
        assert d["value"] == 10.123457
        assert d["kind"] == "alert"


class TestDefaults:
    def test_every_default_threshold_has_hysteresis_gap(self):
        for t in DEFAULT_THRESHOLDS:
            assert t.clear_below < t.alert_above, t.signal

    def test_signals_covered(self):
        signals = {t.signal for t in DEFAULT_THRESHOLDS}
        assert signals == {
            "group.backlog",
            "group.retrans_rate",
            "session.dup_rate",
            "group.heartbeat_staleness",
            "group.view_churn",
            "storage.corrupt_rate",
        }


class TestThresholdOverrides:
    """HealthMonitor takes its threshold table as an argument, so a
    test can tighten one signal and keep the rest."""

    def test_monitor_uses_the_overridden_threshold(self):
        sim = FakeSim()
        gauge = sim.registry.gauge("s0", "group.backlog")
        table = tuple(
            dataclasses.replace(t, alert_above=3.0, clear_below=1.0)
            if t.signal == "group.backlog" else t
            for t in DEFAULT_THRESHOLDS
        )
        monitor = make_monitor(sim, thresholds=table)
        gauge.set(5.0)  # above the tightened 3.0, below the default
        advance(sim, monitor)
        assert [a.signal for a in monitor.alerts] == ["group.backlog"]

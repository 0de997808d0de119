"""Unit tests for the per-node metrics registry."""

import math
from functools import partial
from types import SimpleNamespace

import pytest

from repro.obs import MetricsRegistry
from repro.sim import Semaphore, Simulator
from repro.sim.primitives import SemaphoreMeter


class TestCounter:
    def test_inc_defaults_and_amounts(self):
        registry = MetricsRegistry()
        counter = registry.counter("n0", "ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("n0", "ops")
        b = registry.counter("n0", "ops")
        assert a is b
        registry.counter("n0", "ops").inc(2)
        assert a.value == 2

    def test_nodes_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("n0", "ops").inc()
        registry.counter("n1", "ops").inc(3)
        assert registry.counter("n0", "ops").value == 1
        assert registry.counter("n1", "ops").value == 3


class TestGauge:
    def test_extremes_tracked(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("n0", "depth")
        gauge.set(5.0)
        gauge.set(2.0)
        gauge.add(10.0)
        assert gauge.value == 12.0
        assert gauge.maximum == 12.0
        assert gauge.minimum == 0.0

    def test_time_weighted_mean_is_the_area_integral(self):
        holder = SimpleNamespace(now=0.0)
        registry = MetricsRegistry(clock=holder)
        gauge = registry.gauge("n0", "depth")
        gauge.set(1.0)  # value 0 for [0, 0] then 1 from t=0
        holder.now = 2.0
        gauge.set(3.0)  # 1 * 2ms so far
        holder.now = 3.0
        # area = 1*2 + 3*1 = 5 over 3 ms
        assert math.isclose(gauge.time_weighted_mean(), 5.0 / 3.0)

    def test_area_extends_to_the_read_time(self):
        """Reading the integral must charge the current level up to
        *now*, not stop at the last ``set`` — a gauge set once at t=10
        and read at t=100 held its level for the whole [10, 100]."""
        holder = SimpleNamespace(now=10.0)
        registry = MetricsRegistry(clock=holder)
        gauge = registry.gauge("n0", "depth")
        gauge.set(4.0)
        holder.now = 100.0
        assert math.isclose(gauge.area(), 4.0 * 90.0)
        assert math.isclose(gauge.time_weighted_mean(), 4.0)
        # Reading is idempotent: it must not double-charge the window.
        assert math.isclose(gauge.area(), 4.0 * 90.0)
        holder.now = 110.0
        assert math.isclose(gauge.area(), 4.0 * 100.0)

    def test_area_differencing_gives_window_means(self):
        """The sampler's primitive: the mean over a window is
        (area(b) - area(a)) / (b - a)."""
        holder = SimpleNamespace(now=0.0)
        registry = MetricsRegistry(clock=holder)
        gauge = registry.gauge("n0", "depth")
        opened = registry.mark()
        holder.now = 100.0
        gauge.set(10.0)  # spike...
        holder.now = 200.0
        gauge.set(0.0)  # ...drained mid-window
        holder.now = 500.0
        window_mean = registry.window(opened).mean("n0", "depth")
        assert math.isclose(window_mean, 10.0 * 100.0 / 500.0)


#: id -> (how, steps before the mark, steps inside the window, the
#: answer for instrument ("n0", "x")). A step is (clock ms, value): a
#: level to set for the gauge questions, an amount to add for the
#: counter ones, None to only move the clock. Every lens — the monitor,
#: the capacity sampler, the attributor, the chaos rollup — reads the
#: registry through these questions.
WINDOW_CASES = {
    "mean-held-level":
        ("mean", [(0.0, 0.0)], [(0.0, 10.0), (500.0, None)], 10.0),
    "mean-spike-drained-before-the-end-still-counts":
        ("mean", [(0.0, 0.0)],
         [(100.0, 100.0), (200.0, 0.0), (500.0, None)], 20.0),
    "mean-excludes-history-before-the-mark":
        ("mean", [(0.0, 1000.0), (10_000.0, 0.0)], [(10_500.0, None)], 0.0),
    "mean-gauge-born-inside-reads-from-zero":
        ("mean", [], [(250.0, 4.0), (500.0, None)], 2.0),
    "rate-is-per-second":
        ("rate", [(0.0, 0)], [(500.0, 3)], 6.0),
    "rate-excludes-count-before-the-mark":
        ("rate", [(0.0, 1_000_000)], [(500.0, 0)], 0.0),
    "busy-is-the-share-of-the-window":
        ("busy", [(0.0, 0)], [(500.0, 250.0)], 0.5),
    "delta-excludes-count-before-the-mark":
        ("delta", [(0.0, 7)], [(500.0, 3)], 3.0),
    "delta-counter-born-inside-reads-from-zero":
        ("delta", [], [(500.0, 3)], 3.0),
    "since-is-now-minus-the-timestamp":
        ("since", [], [(150.0, 150.0), (400.0, None)], 250.0),
    "empty-window-answers-zero":
        ("rate", [(0.0, 5)], [(0.0, 5)], 0.0),
}


class TestTheSimulatorIsTheClock:
    """Gauges and semaphore meters read ``sim.now`` straight off the
    simulator (no clock closure). Driven by a real simulator at
    binary-exact instants, every number they publish is the
    hand-integrated one."""

    def test_gauge_area_mean_and_extremes(self):
        sim = Simulator(seed=0)
        registry = sim.obs.registry
        gauge = registry.gauge("n0", "level")
        for at, step in [(1.5, ("set", 4.0)), (4.0, ("add", -1.0)),
                         (4.0, ("set", -2.0)), (10.0, ("add", 5.0))]:
            how, amount = step
            sim.schedule(at, partial(getattr(gauge, how), amount))
        sim.run(until=12.0)
        # 0 over [0, 1.5], 4 over [1.5, 4], -2 over [4, 10], 3 over [10, 12].
        assert gauge.area() == 4.0 * 2.5 - 2.0 * 6.0 + 3.0 * 2.0
        assert gauge.time_weighted_mean() == 4.0 / 12.0
        assert (gauge.value, gauge.maximum, gauge.minimum) == (3.0, 4.0, -2.0)
        mark = registry.mark()
        assert mark.t_ms == 12.0
        assert mark.areas[("n0", "level")] == 4.0

    def test_semaphore_meter_across_handoff_and_abandon(self):
        sim = Simulator(seed=0)
        sem = Semaphore(1, "res")
        meter = sem.meter = SemaphoreMeter(sim.obs.registry, "n0", "res")

        def user(start, hold):
            yield sim.sleep(start)
            yield from sem.acquire_gen()
            try:
                yield sim.sleep(hold)
            finally:
                sem.release()

        sim.spawn(user(0.0, 3.0))  # free grant, released at 3
        sim.spawn(user(1.0, 2.0))  # queued; handed the unit at 3, out at 5
        doomed = sim.spawn(user(2.0, 1.0))  # queued, killed at 2.5
        sim.schedule(2.5, partial(doomed.kill, "crash"))
        sim.spawn(user(6.0, 1.0))  # free grant at 6, released at 7
        sim.run(until=8.0)
        assert meter.grants.value == 3
        assert meter.busy.value == 5.0 + 1.0  # [0, 5] and [6, 7]
        assert meter.wait.value == 2.0  # the handoff's; the abandoned wait is dropped
        # Depth 1, 2, 3, 2 (abandon), 1 (handoff), 0, 1, 0.
        depth = meter.depth
        assert depth.area() == 1.0 + 2.0 + 1.5 + 1.0 + 2.0 + 1.0
        assert depth.time_weighted_mean() == 8.5 / 8.0
        assert (depth.value, depth.maximum, depth.minimum) == (0.0, 3.0, 0.0)


class TestWindow:
    @pytest.mark.parametrize(
        "how,before,inside,expected",
        WINDOW_CASES.values(), ids=WINDOW_CASES.keys(),
    )
    def test_a_window_answers(self, how, before, inside, expected):
        holder = SimpleNamespace(now=0.0)
        registry = MetricsRegistry(clock=holder)

        def play(steps):
            for at_ms, value in steps:
                holder.now = at_ms
                if value is None:
                    continue
                if how in ("mean", "since"):
                    registry.gauge("n0", "x").set(value)
                else:
                    registry.counter("n0", "x").inc(value)

        play(before)
        opened = registry.mark()
        play(inside)
        window = registry.window(opened)
        assert window.nodes("x") == ["n0"]
        assert getattr(window, how)("n0", "x") == pytest.approx(expected)

    def test_the_default_window_is_the_whole_run(self):
        holder = SimpleNamespace(now=0.0)
        registry = MetricsRegistry(clock=holder)
        registry.counter("b", "busy_ms").inc(100.0)
        registry.counter("a", "busy_ms").inc(900.0)
        holder.now = 1_000.0
        window = registry.window()
        assert window.dt_ms == 1_000.0
        assert window.nodes("busy_ms") == ["a", "b"]
        assert window.busy("a", "busy_ms") == pytest.approx(0.9)


class TestHistogram:
    def test_summary_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("n0", "lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 4
        assert math.isclose(summary["mean"], 2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] in (2.0, 3.0)

    def test_weighted_percentile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("n0", "lat")
        hist.observe(1.0, weight=99.0)
        hist.observe(100.0, weight=1.0)
        assert hist.percentile(50) == 1.0
        assert hist.percentile(100) == 100.0


class TestSnapshot:
    def test_snapshot_is_deterministic_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b", "z").inc()
        registry.counter("a", "y").inc()
        registry.counter("a", "x").inc(2)
        snap = registry.snapshot()
        assert list(snap) == ["a", "b"]
        assert list(snap["a"]["counters"]) == ["x", "y"]
        assert snap["a"]["counters"]["x"] == 2

    def test_empty_sections_omitted(self):
        registry = MetricsRegistry()
        registry.counter("n0", "ops").inc()
        snap = registry.snapshot()
        assert "gauges" not in snap["n0"]
        assert "histograms" not in snap["n0"]


class TestHistogramEdgeCases:
    """Percentile corner cases (satellite of the saturation PR): the
    capacity report leans on these summaries, so the empty and
    single-sample shapes must be exact, not accidental."""

    def test_empty_histogram_percentile_is_zero(self):
        registry = MetricsRegistry()
        hist = registry.histogram("n0", "lat")
        assert hist.count == 0
        assert hist.percentile(0) == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.percentile(100) == 0.0
        assert hist.summary() == {"count": 0}
        assert hist.mean() == 0.0
        assert hist.stddev() == 0.0

    def test_single_sample_is_every_percentile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("n0", "lat")
        hist.observe(42.0)
        for p in (0, 1, 50, 99, 100):
            assert hist.percentile(p) == 42.0
        assert hist.stddev() == 0.0

    def test_zero_weight_observation_does_not_poison_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("n0", "lat")
        hist.observe(5.0, weight=0.0)
        assert hist.mean() == 0.0  # total weight 0: defined, not NaN
        hist.observe(3.0)
        assert hist.mean() == 3.0

    def test_percentiles_are_monotone_in_p(self):
        try:
            from hypothesis import given, settings
            from hypothesis import strategies as st
        except ImportError:  # pragma: no cover - hypothesis is baked in
            import pytest

            pytest.skip("hypothesis unavailable")

        @settings(max_examples=50, deadline=None)
        @given(
            st.lists(
                st.floats(
                    min_value=-1e6,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=1,
                max_size=40,
            )
        )
        def check(values):
            registry = MetricsRegistry()
            hist = registry.histogram("n0", "lat")
            for v in values:
                hist.observe(v)
            p0 = hist.percentile(0)
            p50 = hist.percentile(50)
            p100 = hist.percentile(100)
            assert p0 <= p50 <= p100
            assert p0 == min(values) or p0 <= min(values)
            assert p100 == max(values)

        check()

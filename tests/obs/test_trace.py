"""Unit tests for the trace recorder and the sim.obs bundle."""

from repro.obs import TraceRecorder
from repro.sim import Simulator


def make_tracer(start=0.0):
    holder = {"now": start}
    tracer = TraceRecorder(lambda: holder["now"])
    return holder, tracer


class TestRecorder:
    def test_disabled_recorder_records_nothing(self):
        _, tracer = make_tracer()
        tracer.emit("n0", "net", "net.send")
        assert tracer.events() == []

    def test_ring_buffer_keeps_the_tail(self):
        _, tracer = make_tracer()
        tracer.enable(capacity=3)
        for i in range(5):
            tracer.emit("n0", "net", f"e{i}")
        events = tracer.events()
        assert [e.name for e in events] == ["e2", "e3", "e4"]

    def test_unbounded_when_capacity_omitted(self):
        _, tracer = make_tracer()
        tracer.enable()
        for i in range(100):
            tracer.emit("n0", "net", "e")
        assert len(tracer.events()) == 100

    def test_timestamps_come_from_the_clock(self):
        holder, tracer = make_tracer()
        tracer.enable()
        tracer.emit("n0", "net", "a")
        holder["now"] = 7.5
        tracer.emit("n0", "net", "b")
        tracer.emit("n0", "disk", "span", ph="X", dur=2.0, ts=1.25)
        a, b, span = tracer.events()
        assert a.ts == 0.0 and b.ts == 7.5
        assert span.ts == 1.25 and span.ph == "X" and span.dur == 2.0

    def test_disable_then_reenable_clears_state(self):
        _, tracer = make_tracer()
        tracer.enable(capacity=2)
        tracer.emit("n0", "net", "a")
        tracer.enabled = False
        tracer.emit("n0", "net", "b")
        assert [e.name for e in tracer.events()] == ["a"]
        tracer.enable(capacity=2)
        assert tracer.events() == []


class TestSimIntegration:
    def test_every_simulator_carries_an_obs_bundle(self):
        sim = Simulator(seed=0)
        assert sim.obs.tracer.enabled is False
        sim.obs.registry.counter("n0", "ops").inc()
        assert sim.obs.registry.counter("n0", "ops").value == 1

    def test_obs_clock_follows_simulated_time(self):
        sim = Simulator(seed=0)
        sim.obs.tracer.enable()

        def proc():
            yield sim.sleep(12.5)
            sim.obs.tracer.emit("n0", "test", "late")

        sim.spawn(proc(), "p")
        sim.run(until=100.0)
        (event,) = sim.obs.tracer.events()
        assert event.ts == 12.5

    def test_convenience_emit_guards_itself(self):
        sim = Simulator(seed=0)
        sim.obs.emit("n0", "test", "ignored")
        assert sim.obs.tracer.events() == []
        sim.obs.tracer.enable()
        sim.obs.emit("n0", "test", "kept", detail=1)
        (event,) = sim.obs.tracer.events()
        assert event.args == {"detail": 1}

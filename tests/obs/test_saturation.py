"""Unit tests for the ring-buffered registry sampler."""

import pytest

from repro.obs import saturation
from repro.obs.saturation import Sampler
from repro.sim import Simulator


def synthetic_workload(sim):
    """A process publishing the counters/gauges the sampler derives
    from: 50 ms of busy time and 2 completions per 100 ms tick, with
    the queue-depth gauge high for the first half of each tick."""
    registry = sim.obs.registry
    busy = registry.counter("n0", "cpu.busy_ms")
    done = registry.counter("n0", "cpu.grants")
    depth = registry.gauge("n0", "cpu.queue_depth")
    backlog = registry.gauge("n0", "group.backlog")

    def run():
        while True:
            depth.set(2.0)
            yield sim.sleep(50.0)
            busy.inc(50.0)
            done.inc(2)
            depth.set(0.0)
            if sim.now == 150.0:
                backlog.set(1.0)  # one message stuck from t=150 on
            yield sim.sleep(50.0)

    sim.spawn(run(), "workload")


class TestSampler:
    def test_interval_must_be_positive(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            Sampler(sim, interval_ms=0.0)

    def test_tick_derives_rho_rates_queues_and_ages(self):
        sim = Simulator(seed=0)
        synthetic_workload(sim)
        sampler = Sampler(sim, interval_ms=200.0)
        sampler.start()
        sim.run(until=400.0)
        sampler.stop()
        assert [s["t_ms"] for s in sampler.samples] == [200.0, 400.0]
        first = sampler.samples[0]["series"]
        # 100 ms busy over the 200 ms window; 4 completions.
        assert first["n0:cpu.rho"] == pytest.approx(0.5)
        assert first["n0:cpu.grants_per_s"] == pytest.approx(20.0)
        # Depth alternates 2.0/0.0 in equal halves: window mean 1.0.
        assert first["n0:cpu.queue_depth"] == pytest.approx(1.0)
        # One message stuck from t=150: a quarter of the first window,
        # all of the second.
        assert first["n0:group.backlog"] == pytest.approx(0.25)
        second = sampler.samples[1]["series"]
        assert second["n0:group.backlog"] == pytest.approx(1.0)

    def test_ring_evicts_oldest_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(saturation, "RING_CAPACITY", 3)
        sim = Simulator(seed=0)
        synthetic_workload(sim)
        sampler = Sampler(sim, interval_ms=100.0)
        sampler.start()
        sim.run(until=600.0)
        assert len(sampler.samples) == 3
        assert sampler.dropped == 3
        assert [s["t_ms"] for s in sampler.samples] == [400.0, 500.0, 600.0]

    def test_stop_takes_a_final_partial_sample(self):
        sim = Simulator(seed=0)
        synthetic_workload(sim)
        sampler = Sampler(sim, interval_ms=200.0)
        sampler.start()
        sim.run(until=250.0)
        sampler.stop()
        assert [s["t_ms"] for s in sampler.samples] == [200.0, 250.0]
        assert not sampler.running
        sim.run(until=1_000.0)  # no further samples after stop
        assert len(sampler.samples) == 2

    def test_same_seed_runs_sample_identically(self):
        def capture():
            sim = Simulator(seed=7)
            synthetic_workload(sim)
            sampler = Sampler(sim, interval_ms=250.0)
            sampler.start()
            sim.run(until=1_000.0)
            sampler.stop()
            return sampler.as_dict()

        assert capture() == capture()

    def test_sampling_is_passive(self):
        # A sampled run's registry ends bit-identical to an unsampled
        # one: ticks only read, and no instruments are created.
        def final_snapshot(with_sampler):
            sim = Simulator(seed=3)
            synthetic_workload(sim)
            if with_sampler:
                Sampler(sim, interval_ms=50.0).start()
            sim.run(until=1_000.0)
            return sim.obs.registry.snapshot()

        assert final_snapshot(True) == final_snapshot(False)

    def test_counter_track_events_are_perfetto_counters(self):
        sim = Simulator(seed=0)
        synthetic_workload(sim)
        sampler = Sampler(sim, interval_ms=200.0)
        sampler.start()
        sim.run(until=400.0)
        events = sampler.counter_track_events()
        assert events
        assert {e.ph for e in events} == {"C"}
        assert {e.cat for e in events} == {"saturation"}
        assert {str(e.node) for e in events} == {"n0"}
        names = {e.name for e in events}
        assert "cpu.rho" in names and "group.backlog" in names
        assert all("value" in e.args for e in events)

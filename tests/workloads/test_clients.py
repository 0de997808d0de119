"""Unit tests for the closed loop that workload clients run in,
:func:`repro.bench.harness.drive`."""

from contextlib import contextmanager

from repro.bench.harness import LoopResult, drive
from repro.sim import Simulator
from tests.helpers import sleeper


class TestClosedLoop:
    def test_back_to_back_iterations(self):
        sim = Simulator(seed=0)
        calls = []
        result, (process,) = drive(sim, [sleeper(sim, 10.0, None, calls)], 0.0, 100.0)
        # Ten 10 ms iterations fill the window; the one started at its
        # close ends in the drain, and the client stops.
        assert calls == [(n, 10.0 * n) for n in range(11)]
        assert result == LoopResult(100.0, 11, 0)
        assert process.resolved

    def test_errors_counted_and_loop_continues(self):
        sim = Simulator(seed=0)
        calls = []
        result, (process,) = drive(sim, [sleeper(sim, 5.0, 3, calls)], 0.0, 100.0)
        # Two successes, one failure and a 5 ms backoff: 20 ms a round,
        # and the loop keeps going after every failure.
        assert result == LoopResult(100.0, 11, 5)
        assert calls[-1] == (10, 100.0)
        assert process.resolved

    def test_run_closed_loop_window(self):
        sim = Simulator(seed=0)
        edges = []

        @contextmanager
        def window():
            edges.append(sim.now)
            yield
            edges.append(sim.now)

        result, _ = drive(sim, [sleeper(sim, 10.0, None, [])], 15.0, 50.0, window())
        # The window is [15, 65]: 10-20 started in the warm-up and 60-70
        # ends after the close, so four of seven count.
        assert edges == [15.0, 65.0]
        assert result == LoopResult(80.0, 7, 0)
        assert sim.now == 65.0 + 2_000.0

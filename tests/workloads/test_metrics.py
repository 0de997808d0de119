"""Unit tests for what :func:`repro.bench.harness.drive` counts: an
iteration inside the measurement window, every completed iteration and
every error."""

import pytest

from repro.bench.harness import LoopResult, drive
from repro.errors import ReproError
from repro.sim import Simulator


def timed(sim, durations_ms):
    """An iteration whose *n*-th run sleeps ``durations_ms[n]`` (the
    last entry once the list runs out)."""

    def iteration(n):
        yield sim.sleep(durations_ms[min(n, len(durations_ms) - 1)])

    return iteration


class TestRecording:
    def test_basic_record_and_count(self):
        sim = Simulator(seed=0)
        # 0-5 and 5-11 end in the 11 ms window; 11-111 ends in the drain.
        result, _ = drive(sim, [timed(sim, [5.0, 6.0, 100.0])], 0.0, 11.0)
        assert result.ops == 3
        assert result.per_second == pytest.approx(2 * 1000.0 / 11.0)

    def test_window_excludes_warmup(self):
        sim = Simulator(seed=0)
        # The window is [50, 150]: 0-60 started in the warm-up, 60-70 up
        # to 140-150 count, 150-160 ends after the close.
        result, _ = drive(sim, [timed(sim, [60.0, 10.0])], 50.0, 100.0)
        assert result == LoopResult(90.0, 11, 0)

    def test_window_excludes_overrun(self):
        sim = Simulator(seed=0)
        # 0-90 counts; 90-110 finishes after the window closes at 100.
        result, _ = drive(sim, [timed(sim, [90.0, 20.0])], 0.0, 100.0)
        assert result == LoopResult(10.0, 2, 0)

    def test_errors_counted_separately(self):
        sim = Simulator(seed=0)

        def failing(_n):
            yield sim.sleep(0.0)
            raise ReproError("injected")

        # A failure at 0, 5, ..., 100 ms, each followed by the backoff:
        # 21 errors and not one completion.
        result, _ = drive(sim, [failing], 0.0, 100.0)
        assert result == LoopResult(0.0, 0, 21)

"""Unit tests for workload metrics."""

import math

import pytest

from repro.workloads import Metrics


class TestRecording:
    def test_basic_record_and_count(self):
        m = Metrics()
        m.record("op", 0.0, 5.0)
        m.record("op", 5.0, 11.0)
        assert m.count("op") == 2
        assert m.mean("op") == pytest.approx(5.5)

    def test_window_excludes_warmup(self):
        m = Metrics(window_start=100.0)
        m.record("op", 50.0, 60.0)  # before the window: dropped
        m.record("op", 150.0, 160.0)
        assert m.count("op") == 1

    def test_window_excludes_overrun(self):
        m = Metrics(window_start=0.0, window_end=100.0)
        m.record("op", 90.0, 110.0)  # finishes after the window
        assert m.count("op") == 0

    def test_errors_counted_separately(self):
        m = Metrics()
        m.record_error("op")
        m.record_error("op")
        assert m.errors == {"op": 2}
        assert m.count("op") == 0


class TestStatistics:
    def test_mean_of_empty_is_nan(self):
        assert math.isnan(Metrics().mean("ghost"))

    def test_throughput(self):
        m = Metrics()
        for i in range(50):
            m.record("op", i * 10.0, i * 10.0 + 1.0)
        assert m.throughput_per_second("op", 1_000.0) == pytest.approx(50.0)
        assert m.throughput_per_second("op", 0.0) == 0.0

"""Unit + smoke tests for the queueing-theoretic capacity attributor."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.capacity import (
    load_headline,
    run_point,
    utilization_summary,
    window_stats,
)


def make_marked_registry():
    """A registry with one metered CPU's worth of synthetic counters."""
    holder = {"now": 0.0}
    registry = MetricsRegistry(clock=lambda: holder["now"])
    return holder, registry


class TestWindowStats:
    def test_single_resource_queueing_stats(self):
        holder, registry = make_marked_registry()
        busy = registry.counter("n0", "cpu.busy_ms")
        grants = registry.counter("n0", "cpu.grants")
        wait = registry.counter("n0", "cpu.wait_ms")
        depth = registry.gauge("n0", "cpu.queue_depth")
        opened = registry.mark()
        # 1000 ms window: 10 grants of 50 ms each (rho 0.5), each one
        # having queued 50 ms first — so residence W = 100 ms and the
        # gauge's time-weighted mean must be L = lambda * W = 1.0.
        busy.inc(500.0)
        grants.inc(10)
        wait.inc(500.0)
        holder["now"] = 500.0
        depth.set(2.0)
        holder["now"] = 1_000.0
        depth.set(0.0)
        rows = window_stats(registry.window(opened))
        assert len(rows) == 1
        row = rows[0]
        assert row.kind == "cpu" and row.node == "n0"
        assert row.utilization == pytest.approx(0.5)
        assert row.throughput_per_s == pytest.approx(10.0)
        assert row.service_ms == pytest.approx(50.0)
        assert row.residence_ms == pytest.approx(100.0)
        assert row.queue_depth == pytest.approx(1.0)
        assert row.little_residual == 0.0  # exact: under the floor

    def test_little_residual_flags_mismatched_accounting(self):
        holder, registry = make_marked_registry()
        # Gauge stuck at 3.0 the whole window while lambda*W says 1.0.
        registry.gauge("n0", "cpu.queue_depth").set(3.0)
        opened = registry.mark()
        registry.counter("n0", "cpu.busy_ms").inc(500.0)
        registry.counter("n0", "cpu.grants").inc(10)
        registry.counter("n0", "cpu.wait_ms").inc(500.0)
        holder["now"] = 1_000.0
        (row,) = window_stats(registry.window(opened))
        assert row.queue_depth == pytest.approx(3.0)
        assert row.little_residual == pytest.approx(2.0 / 3.0)

    def test_ranking_is_by_utilization_then_pipeline_first(self):
        holder, registry = make_marked_registry()
        opened = registry.mark()
        registry.counter("n0", "cpu.busy_ms").inc(900.0)
        registry.counter("n0", "cpu.grants").inc(9)
        registry.counter("d0", "disk.arm.busy_ms").inc(900.0)
        registry.counter("d0", "disk.arm.grants").inc(3)
        registry.counter("s0", "group.seq_busy_ms").inc(400.0)
        registry.counter("s0", "group.delivered").inc(4)
        holder["now"] = 1_000.0
        rows = window_stats(registry.window(opened))
        # cpu and disk tie at rho 0.9; the seq row trails at 0.4. A
        # tie breaks by kind priority: seq < cpu < disk < nvram < wire.
        assert [r.label for r in rows] == [
            "cpu(n0)", "disk(d0)", "seq(s0)"]

    def test_idle_seq_counter_on_replicas_is_skipped(self):
        # Every member carries the seq counters, but only the node that
        # actually sequenced (busy > 0) is a resource row — a replica
        # with deliveries and zero busy time is consumer lag, not a
        # service station, and would fail Little's law by construction.
        holder, registry = make_marked_registry()
        registry.counter("r1", "group.seq_busy_ms")  # exists, zero
        opened = registry.mark()
        registry.counter("r1", "group.delivered").inc(50)
        holder["now"] = 1_000.0
        assert window_stats(registry.window(opened)) == []

    def test_empty_window_yields_no_rows(self):
        holder, registry = make_marked_registry()
        holder["now"] = 5.0
        assert window_stats(registry.window(registry.mark())) == []


class TestUtilizationSummary:
    def test_max_across_nodes_per_kind(self):
        holder, registry = make_marked_registry()
        registry.counter("a", "cpu.busy_ms").inc(100.0)
        registry.counter("b", "cpu.busy_ms").inc(900.0)
        registry.counter("d", "disk.arm.busy_ms").inc(250.0)
        holder["now"] = 1_000.0
        summary = utilization_summary(registry.window())
        assert summary["cpu"] == pytest.approx(0.9)
        assert summary["disk"] == pytest.approx(0.25)
        assert summary["seq"] == 0.0

    def test_zero_elapsed_is_all_zero(self):
        holder, registry = make_marked_registry()
        registry.counter("a", "cpu.busy_ms").inc(100.0)
        assert all(
            v == 0.0 for v in utilization_summary(registry.window()).values()
        )


class TestHeadline:
    def test_missing_file_returns_none(self, tmp_path):
        assert load_headline(str(tmp_path / "nope.json")) is None

    def test_unparsable_file_returns_none(self, tmp_path):
        path = tmp_path / "BENCH_headline.json"
        path.write_text("{not json")
        assert load_headline(str(path)) is None


class TestRunPoint:
    def test_short_update_run_attributes_and_self_checks(self):
        report = run_point(
            "update", 2, seed=0, warmup_ms=1_000.0, measure_ms=3_000.0
        )
        assert report["throughput_per_s"] > 0.0
        resources = report["resources"]
        assert resources, "no resource was exercised?"
        labels = {r["resource"] for r in resources}
        assert any(label.startswith("seq(") for label in labels)
        assert any(label.startswith("disk(") for label in labels)
        # The acceptance bar: every Little's-law self-check within 10%.
        for row in resources:
            if row["little_residual"] is not None:
                assert row["little_residual"] < 0.10, row
        assert report["top_resource"] == resources[0]["resource"]
        assert report["predicted_ceiling_per_s"] > 0.0
        # The sampler rode along and saw the measure window.
        assert report["sampler"]["samples"]
        assert report["sampler_events"]

    def test_same_seed_reports_are_byte_identical(self):
        def render():
            report = run_point(
                "update", 2, seed=1, warmup_ms=500.0, measure_ms=2_000.0
            )
            report.pop("sampler_events")
            return json.dumps(report, indent=2, sort_keys=True)

        assert render() == render()

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_point("fizzbuzz", 1)

    def test_no_writers_reports_zero_throughput(self):
        report = run_point(
            "update", 0, seed=0, warmup_ms=100.0, measure_ms=500.0
        )
        assert report["throughput_per_s"] == 0.0

"""Unit + smoke tests for the queueing-theoretic capacity attributor."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import MetricsRegistry
from repro.obs.capacity import (
    load_headline,
    run_point,
    run_scale,
    utilization_summary,
    window_stats,
)


def make_marked_registry():
    """A registry with one metered CPU's worth of synthetic counters."""
    holder = SimpleNamespace(now=0.0)
    registry = MetricsRegistry(clock=holder)
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
        holder.now = 500.0
        depth.set(2.0)
        holder.now = 1_000.0
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
        holder.now = 1_000.0
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
        registry.counter("n0", "dir.apply_busy_ms").inc(900.0)
        registry.counter("n0", "dir.applied_records").inc(9)
        registry.counter("n1", "dir.apply_busy_ms").inc(400.0)
        registry.counter("n1", "dir.applied_records").inc(4)
        holder.now = 1_000.0
        rows = window_stats(registry.window(opened))
        # apply, cpu and disk tie at rho 0.9; the second apply row
        # trails at 0.4. A tie breaks by kind priority: apply < cpu <
        # disk < nvram < wire.
        assert [r.label for r in rows] == [
            "apply(n0)", "cpu(n0)", "disk(d0)", "apply(n1)"]
        # The apply stage has no queue of its own: S only.
        assert rows[0].service_ms == pytest.approx(100.0)
        assert rows[0].queue_depth is rows[0].residence_ms is None

    def test_empty_window_yields_no_rows(self):
        holder, registry = make_marked_registry()
        holder.now = 5.0
        assert window_stats(registry.window(registry.mark())) == []


class TestUtilizationSummary:
    def test_max_across_nodes_per_kind(self):
        holder, registry = make_marked_registry()
        registry.counter("a", "cpu.busy_ms").inc(100.0)
        registry.counter("b", "cpu.busy_ms").inc(900.0)
        registry.counter("d", "disk.arm.busy_ms").inc(250.0)
        holder.now = 1_000.0
        summary = utilization_summary(registry.window())
        assert summary["cpu"] == pytest.approx(0.9)
        assert summary["disk"] == pytest.approx(0.25)
        assert summary["apply"] == 0.0

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

    def test_scale_is_checked_from_any_working_directory(self, tmp_path, monkeypatch):
        # `capacity --scale` at its smoke sizes, run outside the repo.
        monkeypatch.chdir(tmp_path)
        report = run_scale(
            "update", writer_counts=(1, 2, 4), measure_ms=6_000.0,
            headline=load_headline(),
        )
        assert report["headline_plateau_per_s"] > 0.0
        assert "prediction_error" in report
        # The serial apply loop binds at every load, so the utilization
        # law extrapolates the same ceiling from 1 writer as from 4.
        assert report["top_resource"].startswith("apply(")
        ceilings = [p["implied_ceiling_per_s"] for p in report["fit"]]
        assert len(ceilings) == 3 and None not in ceilings
        assert max(ceilings) <= 1.05 * min(ceilings), ceilings


class TestRunPoint:
    def test_short_update_run_attributes_and_self_checks(self):
        report = run_point(
            "update", 2, seed=0, warmup_ms=1_000.0, measure_ms=3_000.0
        )
        assert report["throughput_per_s"] > 0.0
        resources = report["resources"]
        assert resources, "no resource was exercised?"
        labels = {r["resource"] for r in resources}
        assert any(label.startswith("apply(") for label in labels)
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

"""Phase-attribution tests: the Fig. 7 breakdown must account for
every simulated millisecond the client observed."""

import dataclasses
import math

import pytest

from repro.obs import spans
from repro.obs.spans import phases_from_span


@pytest.fixture(scope="module")
def update_run():
    return spans.record_update_trace("update", iterations=3, seed=0)


class TestAttribution:
    def test_phases_sum_to_each_window(self, update_run):
        for window, span in zip(update_run.windows, update_run.spans):
            assert math.isclose(
                sum(phases_from_span(span).values()),
                window.end - window.start,
                rel_tol=0,
                abs_tol=1e-9,
            )

    def test_group_update_phases_present(self, update_run):
        span = update_run.spans[0]
        phases = phases_from_span(span)
        assert set(phases) == {"wire", "sequencer", "compute", "disk"}
        assert all(v >= 0.0 for v in phases.values())
        # Fig. 7's headline: the disk dominates the group update.
        assert phases["disk"] > span.total / 2

    def test_missing_markers_raise(self):
        window = spans.OpWindow("append", 0.0, 10.0, 0)
        with pytest.raises(spans.AttributionError):
            spans.stitch_window([], window)

    def test_aggregate_iteration_sums_pair(self, update_run):
        summary = spans.aggregate(update_run.spans)
        ops = summary["ops"]
        assert set(ops) == {"append", "delete"}
        assert math.isclose(
            summary["iteration"]["total_ms"],
            ops["append"]["total_ms"] + ops["delete"]["total_ms"],
        )

    def test_every_record_of_a_group_commit_batch_is_attributed(self):
        """Six writers on an eight-thread server: most appends ride in
        somebody else's flush (the persist pair carries the batch
        head's lineage). Each must still be charged the disk time it
        waited for, and its phases must still sum to its window."""
        from repro.bench.harness import build_deployment

        deployment = build_deployment("group", seed=0, server_threads=8)
        cluster, sim, root = deployment.cluster, deployment.sim, deployment.root
        target = cluster.run_process(deployment.add_client("setup").create_dir())
        cluster.enable_tracing()
        windows = []

        def writer(tag):
            client = deployment.add_client(f"w{tag}")
            for n in range(4):
                start = sim.now
                yield from client.append_row(root, f"w{tag}-{n}", (target,))
                windows.append(spans.OpWindow("append", start, sim.now, n))

        writers = [sim.spawn(writer(tag), f"writer-{tag}") for tag in range(6)]
        cluster.run(until=sim.now + 5_000.0)
        assert all(w.resolved for w in writers) and len(windows) == 24

        stitched = spans.stitch(list(cluster.obs.tracer.events()), windows)
        assert max(s.fan_in for s in stitched) > 1, "no batch formed"
        for window, span in zip(windows, stitched):
            phases = phases_from_span(span)
            assert phases["disk"] > 0.0, (window, phases)
            assert math.isclose(
                sum(phases.values()), window.end - window.start,
                rel_tol=0, abs_tol=1e-9,
            )


class TestBenchmarkAgreement:
    def test_traced_total_matches_untraced_benchmark(self, update_run):
        check = spans.check_against_benchmark(update_run)
        assert check["ok"], check
        # Tracing must not perturb the simulation at all.
        assert check["relative_error"] < 1e-9

    def test_a_window_stretched_by_one_ms_fails_the_check(self, update_run):
        """1 ms on one of three ~195 ms iterations is 0.17 %: inside
        the 5 % the command used to allow, far outside rounding."""
        last = update_run.windows[-1]
        stretched = dataclasses.replace(
            update_run,
            windows=update_run.windows[:-1]
            + [dataclasses.replace(last, end=last.end + 1.0)],
        )
        check = spans.check_against_benchmark(stretched)
        assert not check["ok"], check
        assert 1e-9 < check["relative_error"] < 0.05

    def test_nvram_scenario_swaps_the_persist_phase(self):
        run = spans.record_update_trace("nvram-update", iterations=2, seed=0)
        phases = phases_from_span(run.spans[0])
        assert "nvram" in phases and "disk" not in phases
        check = spans.check_against_benchmark(run)
        assert check["ok"], check

    def test_lookup_scenario_has_no_storage_phase(self):
        run = spans.record_update_trace("lookup", iterations=2, seed=0)
        for span in run.spans:
            assert set(phases_from_span(span)) == {"wire", "compute"}
        assert spans.check_against_benchmark(run)["ok"]


class TestFormatting:
    def test_table_lists_every_phase_column(self, update_run):
        table = spans.format_table(
            spans.aggregate(update_run.spans), "update", "group"
        )
        for column in ("wire", "sequencer", "compute", "disk"):
            assert column in table
        assert "iteration" in table

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            spans.record_update_trace("bogus")

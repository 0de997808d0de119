"""Host profiler: cProfile self time by layer, under the ledger's names.

The contracts that matter:

1. the layers are the ledger's, by the ledger's rule, so ``perf`` and
   ``*.host_self_share`` book the same function to the same layer;
2. self time and calls are conserved — the layers sum to the profile;
3. profiling is invisible to the simulation — a profiled run is
   event-for-event identical to an unprofiled same-seed run, and its
   ``repro`` call counts are a pure function of the seed.
"""

import ast
import heapq
import re
import sys
from pathlib import Path

import pytest

from repro.bench.harness import SCALES, SCENARIOS, run_loop
from repro.errors import TimeoutError as SimTimeout
from repro.obs import hostprof
from repro.sim.future import Future
from repro.sim.scheduler import Simulator

ROOT = Path(__file__).resolve().parents[2]
LEDGER_TRACING = ROOT / "benchmarks" / "ledger" / "tracing.py"


@pytest.fixture(scope="module")
def mixed():
    """A profiled ``mixed`` small run, its capture and its full report."""
    with hostprof.capture() as host:
        run = run_loop("mixed", **SCALES["small"], seed=11)
    return run, host, host.report()


def _toy_sim_report(seeds=(7,)):
    with hostprof.capture() as host:
        for seed in seeds:
            sim = Simulator(seed=seed)

            def worker(n):
                for _ in range(n):
                    yield sim.sleep(2.0)

            for i in range(4):
                sim.spawn(worker(25), name=f"w{i}")
            sim.run()
    return host.report()


def _calls(report, suffix):
    """Calls of the one ``repro`` function whose label ends in *suffix*."""
    (count,) = [n for label, n in report["deterministic"].items()
                if label.endswith(suffix)]
    return count


def _ledger():
    """The ledger's LAYERS and ``_layer_of``, read without importing its
    module (importing it loads the service classes it patches)."""
    tree = ast.parse(LEDGER_TRACING.read_text(encoding="utf-8"))
    namespace = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "LAYERS" for target in node.targets
        ):
            namespace["LAYERS"] = ast.literal_eval(node.value)
        if isinstance(node, ast.FunctionDef) and node.name == "_layer_of":
            code = compile(ast.Module([node], []), str(LEDGER_TRACING), "exec")
            exec(code, namespace)
    return namespace["LAYERS"], namespace["_layer_of"]


class TestLedgerLayers:
    def test_perf_names_the_ledgers_layers(self):
        layers, _ = _ledger()
        assert hostprof.LAYERS == layers
        assert hostprof.ROWS == (*layers, "harness", "builtin")

    def test_layer_of_follows_the_ledgers_rule(self):
        _, ledger_layer_of = _ledger()
        paths = [str(p) for p in sorted((ROOT / "src" / "repro").rglob("*.py"))]
        paths += [heapq.__file__, "~"]
        assert {hostprof.layer_of(p) for p in paths} == set(hostprof.ROWS)
        for path in paths:
            assert hostprof.layer_of(path) == ledger_layer_of(path), path


class TestAttribution:
    def test_component_shares_sum_to_one(self, mixed):
        _, _, report = mixed
        layers = report["layers"]
        assert tuple(layers) == hostprof.ROWS
        assert sum(row["share"] for row in layers.values()) == pytest.approx(
            1.0, abs=1e-9)
        assert layers["sim"]["share"] > 0.0
        assert layers["net"]["share"] > 0.0

    def test_component_ns_sum_exactly_to_total(self, mixed):
        # Self time per layer and per function adds up to pstats' total.
        _, _, report = mixed
        booked = sum(row["self_s"] for row in report["layers"].values())
        assert booked == pytest.approx(report["host"]["self_s"], rel=1e-9)
        assert sum(f["self_s"] for f in report["functions"]) == pytest.approx(
            booked, rel=1e-9)

    def test_counts_and_executed_match(self, mixed):
        # Calls per layer and per function add up to pstats' total.
        _, _, report = mixed
        total = report["host"]["calls"]
        assert sum(row["calls"] for row in report["layers"].values()) == total
        assert sum(f["calls"] for f in report["functions"]) == total

    def test_an_expired_deadline_is_booked_to_sim_by_its_method(self):
        outcome = []
        with hostprof.capture() as host:
            sim = Simulator(seed=7)

            def waiter():
                try:
                    yield sim.timeout(Future("never"), 5.0)
                except SimTimeout:
                    outcome.append(sim.now)

            sim.spawn(waiter())
            sim.run()
        assert outcome == [5.0]
        report = host.report()
        assert _calls(report, "(_settle)") == 1
        (row,) = [f for f in report["functions"]
                  if f["function"].endswith("(_settle)")]
        assert row["function"].startswith("sim/scheduler.py:")
        assert row["layer"] == "sim"

    def test_a_delivery_is_booked_to_the_package_of_its_handler(self, mixed):
        # The wire's part of a delivery is net's; the handler it runs is
        # booked to the package that defines it, not to the frame.
        _, _, report = mixed
        by_label = {f["function"]: f for f in report["functions"]}
        (deliver,) = [f for label, f in by_label.items()
                      if label.startswith("net/network.py:")
                      and label.endswith("(_deliver)")]
        assert deliver["layer"] == "net"
        for package in ("rpc", "group", "directory"):
            handlers = [f for label, f in by_label.items()
                        if label.startswith(f"{package}/")]
            assert handlers and all(f["layer"] == package for f in handlers)


class TestDeterminism:
    def test_profiler_does_not_perturb_simulation(self, mixed):
        profiled, _, _ = mixed
        plain = run_loop("mixed", **SCALES["small"], seed=11)
        assert profiled.fingerprint() == plain.fingerprint()

    def test_deterministic_digest_stable_across_runs(self, mixed):
        _, _, first = mixed
        with hostprof.capture() as host:
            run_loop("mixed", **SCALES["small"], seed=11)
        assert host.report()["deterministic"] == first["deterministic"]

    def test_toy_sim_digest_identical_profiled_twice(self):
        first = _toy_sim_report()["deterministic"]
        assert first and first == _toy_sim_report()["deterministic"]


class TestReportSchema:
    def test_report_schema(self, mixed):
        _, host, _ = mixed
        report = host.report(top=5)
        assert set(report) == {"host", "layers", "functions", "deterministic"}
        assert set(report["host"]) == {"wall_s", "self_s", "calls", "gc_collections"}
        assert report["host"]["wall_s"] >= report["host"]["self_s"] > 0.0
        assert len(report["functions"]) == 5
        for f in report["functions"]:
            assert set(f) == {"function", "layer", "calls", "self_s", "cum_s"}
        costs = [f["self_s"] for f in report["functions"]]
        assert costs == sorted(costs, reverse=True)
        # Only repro functions are deterministic, keyed file:line(name).
        assert report["deterministic"]
        assert all(
            re.fullmatch(r"[\w/]+\.py:\d+\(.+\)", label)
            for label in report["deterministic"]
        )

    def test_format_report_renders(self, mixed):
        _, _, report = mixed
        text = hostprof.format_report(
            {**report, "functions": report["functions"][:3]}, "title")
        assert text.startswith("title\n")
        for layer in hostprof.ROWS:
            assert f"    {layer} " in text
        assert "hottest functions" in text


class TestCapture:
    def test_capture_profiles_simulators_built_inside(self):
        report = _toy_sim_report()
        assert _calls(report, "(run)") == 1
        assert _calls(report, "(_loop)") == 1
        assert report["host"]["wall_s"] > 0.0
        assert report["host"]["gc_collections"] >= 0

    def test_capture_merges_multiple_simulators(self):
        one = _toy_sim_report(seeds=(1,))
        two = _toy_sim_report(seeds=(1, 2))
        assert _calls(two, "(run)") == 2
        assert _calls(two, "(_fire)") == 2 * _calls(one, "(_fire)")

    def test_capture_hook_unregistered_after_block(self):
        with hostprof.capture() as host:
            Simulator(seed=0).run()
        assert sys.getprofile() is None
        before = host.report()["deterministic"]
        # Simulators run after the block are not profiled.
        Simulator(seed=0).run()
        assert host.report()["deterministic"] == before


def test_scenario_registry_sane():
    assert set(SCENARIOS) == {"lookup", "update", "nvram-update", "mixed"}
    assert set(SCALES) == {"small", "medium", "large"}

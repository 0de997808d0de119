"""Smoke test of the ledger benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

One seed, tenth-size windows: every metric BENCHMARK.json names comes
out finite on every workload, the trace leaves no patched attribute
behind, and the benchmark refuses to run without the program.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
TENTH = str(CONTRACT["run_seconds"] / 10)


def contract_run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [*CONTRACT["command"], "--workload", workload, "--seed", "0",
         "--seconds", TENTH, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_finite(workload, trace, section):
    done = contract_run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert set(result["metrics"]) == set(named)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == named[name]
        assert math.isfinite(cell["value"]), name
        if section == "end_to_end":
            assert cell["value"] > 0, name
        # ... and it is printed by name, with its unit, for a human too.
        assert any(
            line.startswith(name) and named[name] in line
            for line in done.stdout.splitlines()[:-1]
        ), name


def test_workloads_match_the_contract():
    sys.path.insert(0, str(HERE))
    from workloads import SPECS

    assert list(SPECS) == WORKLOADS


def test_trace_is_removed_and_group_idles_on_lookups():
    sys.path.insert(0, str(HERE))
    import run
    import tracing

    def attributes():
        return {
            (cls, name): value
            for cls in tracing.TRACED_CLASSES
            for name, value in vars(cls).items()
        }

    before = attributes()
    result = run.one_repeat("lookup_hot", seed=0, scale=0.1, trace=True)
    assert attributes() == before, "a wrapper outlived the traced repeat"
    assert result["layers"]["group.sends_per_op"] == 0
    assert result["layers"]["rpc.trans_per_op"] == 1.0
    assert result["solo_trans_gap"] < 0.01


def test_window_is_timed_in_calibrated_slices():
    sys.path.insert(0, str(HERE))
    import workloads

    host = workloads.run_repeat("lookup_hot", seed=0, scale=0.1)["host"]
    assert len(host["slices"]) == workloads.WINDOW_SLICES
    assert all(cpu > 0 and events > 0 and cal > 0 for cpu, events, cal in host["slices"])


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = contract_run(tmp_path, "lookup_hot", 0)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")

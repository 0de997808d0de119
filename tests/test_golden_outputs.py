"""Recorded outputs of every seeded driver, at sizes tier-1 can afford.

``tests/golden/driver_outputs.json`` holds what each experiment driver
printed the last time somebody looked: the Fig. 7 cells, one Fig. 8 and
one Fig. 9 point per implementation, the ``perf`` fingerprints,
digests of the ``capacity``, ``profile`` and ``trace`` reports,
digests of the chaos verdicts of six smoke runs, and digests of the
paper's server's (``batch_max=1``) full trace of a solo script. The
simulation is deterministic, so any difference is a code change — a PR
that means to move a number regenerates the file and its diff of the
file *is* the statement of what moved; a refactor that means to move
nothing leaves the file alone. To regenerate::

    PYTHONPATH=src python tests/test_golden_outputs.py

Floats are stored by ``repr`` (every digit); whole reports by sha256 of
their sorted-key JSON (the point is "did anything move", the CLI shows
what).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.harness import (
    IMPLEMENTATIONS,
    PAPER_SERVER,
    fig7_cell,
    lookup_throughput,
    update_throughput,
)
from repro.bench.simbench import SCENARIOS as PERF_SCENARIOS
from repro.bench.simbench import run_perf_scenario
from repro.chaos import run_scenario, scenario_by_name
from repro.cluster import GroupServiceCluster
from repro.obs import capacity, spans

GOLDEN = Path(__file__).parent / "golden" / "driver_outputs.json"

FIG7_TESTS = ("append_delete", "tmp_file", "lookup")
#: The Fig. 8/9 curves leave the single-copy NFS baseline out.
REPLICATED = ("group", "rpc", "nvram")
TRACED = ("update", "nvram-update", "lookup")
#: (scenario, seed) smoke runs that tests/chaos already pays for by name.
CHAOS_RUNS = (
    ("sequencer_crash", 3),
    ("duplication", 3),
    ("grand_tour", 1),
    ("rpc_dup_reorder", 1),
    ("delay_spikes", 2),
    ("rolling_faults", 0),
)


def _sha(report) -> str:
    text = report if isinstance(report, str) else json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _fig7() -> dict:
    return {
        f"{test}/{impl}": repr(fig7_cell(impl, test, 4, 0))
        for test in FIG7_TESTS
        for impl in IMPLEMENTATIONS
    }


def _fig8() -> dict:
    return {
        impl: repr(lookup_throughput(impl, 3, 0, 300.0, 1_000.0))
        for impl in REPLICATED
    }


def _fig9() -> dict:
    out = {
        impl: repr(update_throughput(impl, 2, 0, 300.0, 1_500.0))
        for impl in REPLICATED
    }
    out["group/batch_max=1"] = repr(
        update_throughput("group", 3, 0, 300.0, 1_500.0, batch_max=1)
    )
    out["group/server_threads=8"] = repr(
        update_throughput("group", 6, 0, 300.0, 1_500.0, server_threads=8)
    )
    return out


def _perf() -> dict:
    return {
        scenario: run_perf_scenario(
            scenario, "small", seed=0, profile=False
        ).fingerprint()
        for scenario in PERF_SCENARIOS
    }


def _capacity() -> dict:
    out = {}
    for scenario in capacity.SCENARIOS:
        report = capacity.run_point(
            scenario, 2, seed=0, warmup_ms=300.0, measure_ms=1_000.0
        )
        report.pop("sampler_events")  # as `capacity --json` prints it
        out[scenario] = _sha(report)
    return out


def _profile() -> dict:
    return {
        scenario: _sha(spans.profile_run(scenario, iterations=3)["report"])
        for scenario in TRACED
    }


def _phase_tables() -> dict:
    out = {}
    for scenario in TRACED:
        run = spans.record_update_trace(scenario, iterations=3)
        summary = spans.aggregate(run.spans)
        out[scenario] = _sha(spans.format_table(summary, run.scenario, run.impl))
    return out


def _smoke_run(name: str, seed: int):
    return run_scenario(scenario_by_name(name), seed, smoke=True)


def _chaos(smoke_verdict=_smoke_run) -> dict:
    out = {}
    for name, seed in CHAOS_RUNS:
        verdict = smoke_verdict(name, seed).as_dict()
        del verdict["host_ms"], verdict["trace_path"]  # the host's, not the run's
        out[f"{name}/{seed}"] = _sha(verdict)
    return out


def _paper_server() -> dict:
    """The paper's server (``batch_max=1``), bit for bit: the full
    trace of a 20-operation solo script (a create and a delete of a
    directory among them), without and with session records."""
    out = {}
    for label, retry_safe in (("plain", False), ("sessions", True)):
        cluster = GroupServiceCluster(seed=0, **PAPER_SERVER)
        cluster.start()
        cluster.wait_operational()
        cluster.enable_tracing()
        client = cluster.add_client("solo", retry_safe=retry_safe)
        root = cluster.root_capability

        def script():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "sub", (sub,))
            for k in range(5):
                yield from client.append_row(sub, f"n{k}", (root,))
                yield from client.lookup(sub, f"n{k}")
                yield from client.delete_row(sub, f"n{k}")
            yield from client.chmod_row(root, "sub", 0b011, (sub,))
            yield from client.delete_row(root, "sub")
            yield from client.delete_dir(sub)
            yield cluster.sim.sleep(500.0)

        cluster.run_process(script())
        out[label] = _sha(repr([
            (e.ts, e.node, e.cat, e.name, e.ph, e.dur, e.lineage,
             sorted((e.args or {}).items()))
            for e in cluster.obs.tracer.events()
        ]))
    return out


SECTIONS = {
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "perf": _perf,
    "capacity": _capacity,
    "profile": _profile,
    "phase_tables": _phase_tables,
    "chaos": _chaos,
    "paper_server": _paper_server,
}


@pytest.mark.parametrize("section", SECTIONS)
def test_driver_outputs_match_the_recorded_ones(section, smoke_verdict):
    recorded = json.loads(GOLDEN.read_text())
    # The chaos runs are ones tests/chaos reads too: share the session's.
    got = _chaos(smoke_verdict) if section == "chaos" else SECTIONS[section]()
    assert got == recorded[section], (
        f"{section} moved; if it was meant to, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_outputs.py` and say why "
        "in the PR"
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: fn() for name, fn in SECTIONS.items()}, indent=2,
                   sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")

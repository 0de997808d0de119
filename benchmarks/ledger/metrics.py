"""End-to-end metrics of one repeat, computed from what clients saw.

``BENCHMARK.json`` at the repo root is the single list of gated metric
names, units, directions and bounds; this module computes a value for
each of them on every workload, plus a few *report-only* numbers that
cannot be gated (see README.md, "Metrics that are reported but not
gated") because they are zero, undefined or bimodal on some workload.

Definitions (all simulated, exact for a seed, unless named ``host_``):

``sim_ops_per_s``     unit ops completed per simulated second, taken
                      between the first and the last completion inside
                      the window (so the value is not quantised to
                      whole ops per window).
``sim_solo_p50_ms``   median unit-op latency of the unloaded solo phase.
``sim_read_p95_ms``   p95 latency of the lookups under load that reached
                      a server (cache hits cost a constant 0.01 ms and
                      are counted by directory.cache.hit_share). A
                      workload that issues no lookups reports the p95
                      of the RPCs it does issue.
``sim_write_p95_ms``  p95 latency of one update RPC under load (append,
                      delete, chmod); a workload that issues none
                      reports the p95 of the RPCs it does issue.
``sim_outage_ms``     longest interval inside the window in which no
                      unit op completed anywhere: the crash outage on
                      ``failover_disk``, the commit cadence elsewhere.
``host_us_per_op``    CPU microseconds per completed unit op, stated at
                      the sizing box's quiet speed: the median, over
                      the timed slices of the window, of CPU per
                      scheduled event divided by the cost of the
                      calibration loop run right after the slice
                      (workloads.HostSlices), times the reference cost
                      of that loop, times the window's (exact)
                      scheduled events per unit op. The plain quotient
                      window CPU / ops swings 20-30% on unchanged code
                      on a shared host; it is kept as report-only
                      ``host_window_us_per_op``.
``setup_s``           CPU seconds from process start to window start,
                      at the same quiet speed: each set-up phase
                      (imports, build, populate, solo, warm-up) is
                      divided by the calibration loop run right after
                      it (workloads.SetupClock). The plain CPU seconds
                      are kept as report-only ``host_setup_cpu_s``.
``host_peak_rss_mb``  ``ru_maxrss`` of the child at exit.

A failed RPC stays in the latency samples with the time it took and
counts as slow in every share; the run itself fails when more than one
op in a thousand fails.
"""

from __future__ import annotations

import json
from pathlib import Path

from stats import percentile
from workloads import CALIBRATION_REFERENCE_S, SPECS

CONTRACT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: Printed and stored, never gated (README.md says why for each):
#: name -> unit.
REPORT_ONLY = {
    "failed_share": "share",
    "sim_read_p50_ms": "ms",
    "sim_read_slow_share": "share",
    "sim_write_p50_ms": "ms",
    "sim_crash_to_first_ms": "ms",
    "sim_rejoin_ms": "ms",
    "host_window_us_per_op": "us/op",
    "host_setup_cpu_s": "s",
}
#: A lookup slower than this counts as slow: 10x the unloaded 5 ms.
READ_LIMIT_MS = 50.0
MAX_FAILED_SHARE = 0.001
READ_KINDS = ("lookup", "lookup_hit")


def is_simulated(name: str) -> bool:
    """Whether an end-to-end metric is exact for a seed (simulated
    time or a count) rather than measured on the host clock."""
    return name.startswith("sim_") or name == "failed_share"


def repeat_metrics(facts: dict) -> dict:
    """``{"gated": {...}, "report": {...}, "counts": {...}}`` for one
    repeat's raw facts (see workloads.run_repeat)."""
    start, end = facts["window"]
    units = [u for u in facts["units"] if start <= u[2] < end]
    done = sorted(u[2] for u in units if u[3])
    rpcs = [r for r in facts["rpcs"] if start <= r[3] < end]
    reads = sorted(r[3] - r[2] for r in rpcs if r[1] in READ_KINDS)
    remote = sorted(r[3] - r[2] for r in rpcs if r[1] == "lookup")
    writes = sorted(r[3] - r[2] for r in rpcs if r[1] not in READ_KINDS)
    either = sorted(reads + writes)
    solo = sorted(u[2] - u[1] for u in facts["solo_units"])
    host = facts["host"]
    cpu_s_per_event = percentile(sorted(
        cpu / events * CALIBRATION_REFERENCE_S / cal
        for cpu, events, cal in host["slices"] if events
    ), 0.50)
    gated = {
        "sim_ops_per_s": (len(done) - 1) / (done[-1] - done[0]) * 1000.0,
        "sim_solo_p50_ms": percentile(solo, 0.50),
        "sim_read_p95_ms": percentile(remote or either, 0.95),
        "sim_write_p95_ms": percentile(writes or either, 0.95),
        "sim_outage_ms": max(b - a for a, b in zip(done, done[1:])),
        "host_us_per_op": cpu_s_per_event * 1e6
        * facts["scheduled_events"] / len(done),
        "setup_s": host["setup_s"],
        "host_peak_rss_mb": host["peak_rss_mb"],
    }
    failed = sum(1 for u in units if not u[3])
    slow_reads = sum(
        1 for r in rpcs
        if r[1] in READ_KINDS and (r[3] - r[2] > READ_LIMIT_MS or not r[4])
    )
    report = {
        "failed_share": failed / len(units),
        "sim_read_p50_ms": percentile(reads, 0.50) if reads else None,
        "sim_read_slow_share": slow_reads / len(reads) if reads else None,
        "sim_write_p50_ms": percentile(writes, 0.50) if writes else None,
        "sim_crash_to_first_ms": None,
        "sim_rejoin_ms": None,
        "host_window_us_per_op": host["window_cpu_s"] * 1e6 / len(done),
        "host_setup_cpu_s": host["setup_cpu_s"],
        "window_wall_s": host["window_wall_s"],
        "window_cpu_s": host["window_cpu_s"],
        "cpu_s_per_event": cpu_s_per_event,
    }
    failover = facts.get("failover")
    if failover:
        after = [t for t in done if t > failover["crash_at"]]
        report["sim_crash_to_first_ms"] = after[0] - failover["crash_at"]
        if failover["operational_at"] is not None:
            report["sim_rejoin_ms"] = (
                failover["operational_at"] - failover["restart_at"]
            )
    counts = {
        "attempted": len(units),
        "failed": failed,
        "unit_ops": len(done),
        "reads": len(reads),
        "writes": len(writes),
        "read_p95_samples": len(remote or either),
        "write_p95_samples": len(writes or either),
        "solo_ops": len(solo),
        "scheduled_events": facts["scheduled_events"],
        "net_frames": facts["net"]["frames"],
        "net_bytes": facts["net"]["bytes"],
    }
    return {"gated": gated, "report": report, "counts": counts}


def paper_reference(workload: str) -> dict:
    """The paper's value beside ours, where the paper has one.

    Imported, not retyped: Fig. 7 cells and the saturation plateaus
    live in :mod:`repro.bench.harness`.
    """
    from repro.bench.harness import PAPER_FIG7, PAPER_SATURATION

    spec = SPECS[workload]
    if not spec.paper_test:
        return {}
    impl = spec.impl
    return {
        "sim_solo_p50_ms": PAPER_FIG7[spec.paper_test][impl],
        "sim_ops_per_s": PAPER_SATURATION[spec.paper_test][impl],
    }

"""Observability overhead accountant.

The obs stack's contract since it landed has been "zero cost when
disabled": a disabled tracer is one attribute read at each call site,
and the health monitor only exists when started. This module *measures*
that claim instead of asserting it:

* :func:`account` runs one canonical scenario under the four
  trace/monitor on-off combinations and reports the marginal host cost
  of each subsystem, plus the structural check that **tracing does not
  change the event schedule** (same scheduled-event count and metrics
  digest as the baseline — recording is passive). The monitor is a
  real process, so it legitimately adds events; the accountant reports
  how many.
* :func:`disabled_path_micro` times the disabled hot paths themselves
  (guarded ``tracer.emit``, the ``enabled`` guard read, ``obs.emit``,
  a counter increment) in ns/call. tests/obs/test_overhead.py pins
  these under a bound so an accidentally eager format string or dict
  allocation on the disabled path fails CI.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.bench.simbench import run_perf_scenario

#: Configurations the accountant sweeps, in report order.
CONFIGS = (
    ("baseline", False, False),
    ("trace", True, False),
    ("monitor", False, True),
    ("trace+monitor", True, True),
)


def account(
    scenario: str = "mixed",
    scale: str = "small",
    seed: int = 0,
    repeats: int = 2,
) -> dict:
    """Marginal host cost of each obs subsystem on one scenario.

    Each configuration runs ``repeats`` times and keeps the fastest run — best-of-N
    suppresses host noise without averaging in GC pauses.
    """
    rows = []
    baseline = None
    for name, trace, monitor in CONFIGS:
        best = None
        for _ in range(max(1, repeats)):
            run = run_perf_scenario(
                scenario,
                scale,
                seed=seed,
                trace=trace,
                monitor=monitor,
            )
            if best is None or run.wall_ns < best.wall_ns:
                best = run
        row = {
            "config": name,
            "trace": trace,
            "monitor": monitor,
            "wall_ns": best.wall_ns,
            "scheduled_events": best.scheduled_events,
            "ops": best.ops,
            "sim_ms": round(best.sim_ms, 3),
            "ns_per_event": round(best.wall_ns / best.scheduled_events, 1),
            "trace_events": best.trace_events,
            "monitor_ticks": best.monitor_ticks,
            "registry_digest": best.registry_digest,
        }
        if baseline is None:
            baseline = row
        else:
            row["marginal_ns_per_event"] = round(
                row["wall_ns"] / row["scheduled_events"]
                - baseline["wall_ns"] / baseline["scheduled_events"],
                1,
            )
            row["marginal_pct"] = round(
                (row["wall_ns"] - baseline["wall_ns"])
                / baseline["wall_ns"]
                * 100,
                1,
            )
            row["extra_events"] = (
                row["scheduled_events"] - baseline["scheduled_events"]
            )
        rows.append(row)

    by_config = {r["config"]: r for r in rows}
    trace_row = by_config["trace"]
    # Tracing is passive recording: if it changed the schedule or the
    # metrics, something emits conditionally on the tracer — a bug.
    trace_passive = (
        trace_row["scheduled_events"] == baseline["scheduled_events"]
        and trace_row["registry_digest"] == baseline["registry_digest"]
    )
    return {
        "schema": 1,
        "scenario": scenario,
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "configs": rows,
        "trace_is_passive": trace_passive,
        "monitor_extra_events": by_config["monitor"]["extra_events"],
    }


def disabled_path_micro(reps: int = 200_000, rounds: int = 5) -> dict:
    """ns/call for the disabled-observability hot paths (best-of-rounds).

    Measured against an empty-loop baseline of the same shape so the
    numbers are the *marginal* cost of the call, not of the loop.
    """
    from repro.sim.scheduler import Simulator

    sim = Simulator(seed=0)
    obs = sim.obs
    tracer = obs.tracer
    assert not tracer.enabled
    counter = obs.registry.counter("bench", "micro.ops")

    def timed(fn) -> float:
        best = None
        for _ in range(rounds):
            t0 = perf_counter_ns()
            fn()
            dt = perf_counter_ns() - t0
            if best is None or dt < best:
                best = dt
        return best / reps

    r = range(reps)

    def loop_empty():
        for _ in r:
            pass

    def loop_guard():
        for _ in r:
            if tracer.enabled:
                pass

    def loop_emit():
        for _ in r:
            tracer.emit("node", "cat", "name", detail=1)

    def loop_obs_emit():
        for _ in r:
            obs.emit("node", "cat", "name", detail=1)

    def loop_counter():
        for _ in r:
            counter.inc()

    empty = timed(loop_empty)
    return {
        "reps": reps,
        "rounds": rounds,
        "empty_loop_ns": round(empty, 2),
        "guard_check_ns": round(max(0.0, timed(loop_guard) - empty), 2),
        "disabled_emit_ns": round(max(0.0, timed(loop_emit) - empty), 2),
        "disabled_obs_emit_ns": round(max(0.0, timed(loop_obs_emit) - empty), 2),
        "counter_inc_ns": round(max(0.0, timed(loop_counter) - empty), 2),
    }


def format_account(result: dict) -> str:
    """Terminal table for ``python -m repro perf overhead``."""
    lines = [
        f"observability overhead — scenario={result['scenario']} "
        f"scale={result['scale']} seed={result['seed']} "
        f"(best of {result['repeats']})"
    ]
    lines.append(
        f"  {'config':<15}{'wall-ms':>9}  {'events':>9}  "
        f"{'ns/event':>9}  {'marginal':>9}  notes"
    )
    for row in result["configs"]:
        marginal = (
            f"{row['marginal_pct']:+.1f}%" if "marginal_pct" in row else "—"
        )
        notes = []
        if row["trace_events"]:
            notes.append(f"{row['trace_events']} trace events")
        if row["monitor_ticks"]:
            notes.append(f"{row['monitor_ticks']} monitor ticks")
        if row.get("extra_events"):
            notes.append(f"+{row['extra_events']} sim events")
        lines.append(
            f"  {row['config']:<15}{row['wall_ns'] / 1e6:>9.1f}  "
            f"{row['scheduled_events']:>9,}  {row['ns_per_event']:>9,.0f}  "
            f"{marginal:>9}  {', '.join(notes)}"
        )
    lines.append(
        "  trace is passive (schedule + metrics unchanged): "
        f"{result['trace_is_passive']}"
    )
    if "micro" in result:
        m = result["micro"]
        lines.append(
            f"  disabled-path micro (best of {m['rounds']}×{m['reps']:,}): "
            f"guard {m['guard_check_ns']} ns, "
            f"tracer.emit {m['disabled_emit_ns']} ns, "
            f"obs.emit {m['disabled_obs_emit_ns']} ns, "
            f"counter.inc {m['counter_inc_ns']} ns"
        )
    return "\n".join(lines)

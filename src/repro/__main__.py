"""Command-line entry point: regenerate the paper's results.

Usage::

    python -m repro fig7            # the latency table
    python -m repro fig8            # lookup throughput curves
    python -m repro fig9            # update throughput curves
    python -m repro all             # everything above
    python -m repro demo            # the narrated fault-tolerance tour
    python -m repro chaos --seeds 25   # adversarial chaos suite
    python -m repro chaos --json       # ... machine-readable verdicts
    python -m repro trace update       # traced run + phase breakdown
    python -m repro profile update     # per-operation latency budget
    python -m repro perf mixed         # host-time budget (sim-events/s)
    python -m repro perf overhead      # obs on/off overhead accounting
    python -m repro capacity update    # bottleneck attribution report
    python -m repro capacity update --scale   # writer sweep + ceiling fit

Each command prints the measured numbers next to the paper's. For the
full experiment set (ablations included) run
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import (
    PAPER_SERVER,
    fig7_table,
    format_fig7,
    format_throughput_curve,
    lookup_throughput,
    update_throughput,
)
from repro.bench.tables import shape_check_fig7


def cmd_fig7(args) -> int:
    table = fig7_table(iterations=args.iterations, seed=args.seed)
    print(format_fig7(table))
    problems = shape_check_fig7(table)
    if problems:
        print("\nSHAPE CLAIMS VIOLATED:")
        for problem in problems:
            print(" -", problem)
        return 1
    print("\nall of the paper's ordering/ratio claims reproduced.")
    return 0


def cmd_fig8(args) -> int:
    curves = {}
    for impl in ("group", "nvram", "rpc"):
        curves[impl] = {
            n: lookup_throughput(impl, n, seed=args.seed, measure_ms=6_000.0)
            for n in range(1, 8)
        }
    print(
        format_throughput_curve(
            "Fig. 8 — lookup throughput vs clients "
            "(paper saturation: group 652/s, RPC 520/s)",
            curves,
            "total lookups per second",
        )
    )
    return 0


def cmd_fig9(args) -> int:
    curves = {}
    for impl in ("group", "nvram", "rpc"):
        curves[impl] = {
            n: update_throughput(
                impl, n, seed=args.seed, measure_ms=15_000.0, **PAPER_SERVER)
            for n in (1, 2, 3, 5, 7)
        }
    print(
        format_throughput_curve(
            "Fig. 9 — append-delete pairs/s vs clients "
            "(paper ceilings: NVRAM 45, group 5, RPC 5)",
            curves,
            "append-delete pairs per second",
        )
    )
    return 0


def cmd_all(args) -> int:
    status = cmd_fig7(args)
    print()
    cmd_fig8(args)
    print()
    cmd_fig9(args)
    return status


def cmd_chaos(args) -> int:
    import json

    from repro.chaos import SCENARIOS, format_verdicts, host_summary, run_suite

    if args.list_scenarios:
        for scenario in SCENARIOS.values():
            tag = "" if scenario.in_rotation else "  [not in rotation]"
            print(f"{scenario.name:<28}{scenario.description}{tag}")
        return 0
    if args.scenario is not None and args.scenario not in SCENARIOS:
        print(f"error: unknown chaos scenario {args.scenario!r}")
        print(f"known scenarios: {', '.join(sorted(SCENARIOS))}")
        return 2
    verdicts = run_suite(
        args.seeds,
        base_seed=args.seed,
        smoke=args.smoke,
        only=args.scenario,
        trace_dir=args.trace_dir,
    )
    failures = [v for v in verdicts if not v.ok]
    if args.json:
        print(
            json.dumps(
                {
                    "passed": len(verdicts) - len(failures),
                    "total": len(verdicts),
                    "host": host_summary(verdicts),
                    "verdicts": [v.as_dict() for v in verdicts],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if failures else 0
    print(format_verdicts(verdicts))
    if failures:
        print(f"\n{len(failures)} scenario run(s) FAILED:")
        for v in failures:
            for problem in v.problems[:5]:
                print(f" - seed {v.seed} {v.scenario}: {problem}")
            if v.trace_path:
                print(f"   flight recorder: {v.trace_path}")
        return 1
    print("\nall invariants held (replica equality + session guarantees).")
    return 0


def _traced_run(args, command: str):
    """The traced Fig. 7 run `trace` and `profile` both start from."""
    from repro.obs import spans

    scenario = args.target or "update"
    if scenario not in spans.SCENARIOS:
        print(f"error: unknown {command} scenario {scenario!r}")
        print(f"known scenarios: {', '.join(sorted(spans.SCENARIOS))}")
        return None
    return spans.record_update_trace(
        scenario, iterations=args.iterations, seed=args.seed
    )


def cmd_trace(args) -> int:
    import pathlib

    from repro.obs import spans
    from repro.obs.export import write_trace

    run = _traced_run(args, "trace")
    if run is None:
        return 2
    summary = spans.aggregate(run.spans)
    print(spans.format_table(summary, run.scenario, run.impl))
    if run.dropped:
        print(f"(ring buffer dropped {run.dropped} early events)")

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{run.scenario}-seed{run.seed}"
    extensions = {"jsonl": ".jsonl", "chrome": ".trace.json", "text": ".txt"}
    formats = (
        ("jsonl", "chrome", "text") if args.format == "all" else (args.format,)
    )
    print()
    for fmt in formats:
        path = out_dir / (stem + extensions[fmt])
        write_trace(run.events, path, fmt)
        note = "  (open in https://ui.perfetto.dev)" if fmt == "chrome" else ""
        print(f"wrote {path}{note}")

    check = spans.check_against_benchmark(run)
    print(
        f"\nphase sums vs untraced benchmark: traced="
        f"{check['traced_ms']:.3f} ms, benchmark={check['benchmark_ms']:.3f} "
        f"ms, error={check['relative_error'] * 100:.2f}%"
    )
    if not check["ok"]:
        print(
            "FAIL: the traced run differs from the untraced Fig. 7 run of "
            f"the same seed (relative error {check['relative_error']:.3e})"
        )
        return 1
    print("OK: the phase sums equal the untraced Fig. 7 latency.")
    return 0


def cmd_profile(args) -> int:
    import json
    import pathlib

    from repro.obs import spans
    from repro.obs.export import write_trace

    run = _traced_run(args, "profile")
    if run is None:
        return 2
    result = spans.profile_run(top=args.top, run=run)

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{run.scenario}-seed{run.seed}-profile.trace.json"
    write_trace(
        run.events + spans.span_track_events(run.spans), trace_path, "chrome"
    )

    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(spans.format_report(result["report"], run.scenario, run.impl))
        print()
        print(
            f"wrote {trace_path}  (open in https://ui.perfetto.dev — one "
            "track per operation under the 'profile' process)"
        )
    return 0


def cmd_capacity(args) -> int:
    import json
    import pathlib

    from repro.obs import capacity
    from repro.obs.export import write_trace

    scenario = args.target or "update"
    if scenario not in capacity.SCENARIOS:
        print(f"error: unknown capacity scenario {scenario!r}")
        print(f"known scenarios: {', '.join(sorted(capacity.SCENARIOS))}")
        return 2

    if args.scale is not None:
        # Writer sweep + ceiling prediction, checked against the
        # committed headline curve when one is available.
        counts = (1, 2, 4) if args.smoke else (1, 2, 4, 8)
        report = capacity.run_scale(
            scenario,
            seed=args.seed,
            writer_counts=counts,
            measure_ms=6_000.0 if args.smoke else 15_000.0,
            headline=capacity.load_headline(),
        )
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(capacity.format_scale(report))
        error = report.get("prediction_error")
        if error is not None and error > 0.15:
            if not args.json:
                print(
                    "FAIL: predicted ceiling off the committed plateau "
                    f"by {error * 100.0:.1f}% (> 15%)"
                )
            return 1
        return 0

    report = capacity.run_point(
        scenario,
        writers=args.writers,
        seed=args.seed,
        warmup_ms=1_000.0 if args.smoke else 2_000.0,
        measure_ms=4_000.0 if args.smoke else 10_000.0,
    )
    sampler_events = report.pop("sampler_events")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(capacity.format_point(report))
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / (
        f"capacity-{scenario}-seed{report['seed']}.trace.json"
    )
    write_trace(sampler_events, trace_path, "chrome")
    print(
        f"\nwrote {trace_path}  (open in https://ui.perfetto.dev — "
        "per-resource utilization counter tracks)"
    )
    return 0


def cmd_perf(args) -> int:
    import json
    import pathlib

    from repro.bench import simbench
    from repro.obs import hostprof, overhead
    from repro.obs.export import write_trace

    scenario = args.target or "mixed"
    scale = args.scale or "small"
    if scale not in ("small", "medium", "large"):
        print(f"error: unknown perf scale {scale!r}")
        return 2

    if scenario == "overhead":
        result = overhead.account(
            "mixed", scale, seed=args.seed, repeats=2
        )
        result["micro"] = overhead.disabled_path_micro()
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True))
        else:
            print(overhead.format_account(result))
        return 0 if result["trace_is_passive"] else 1

    if scenario not in simbench.SCENARIOS:
        print(f"error: unknown perf scenario {scenario!r}")
        print(
            "known scenarios: "
            f"{', '.join(simbench.SCENARIOS)}, overhead"
        )
        return 2
    run = simbench.run_perf_scenario(
        scenario,
        scale=scale,
        seed=args.seed,
        sample=args.sample,
        keep_slices=args.perfetto,
    )
    report = run.capture.report(top=args.top)

    if args.perfetto:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / (
            f"perf-{scenario}-{scale}-seed{run.seed}.trace.json"
        )
        write_trace(run.capture.host_track_events(), trace_path, "chrome")

    if args.json:
        print(
            json.dumps(
                {
                    "fingerprint": run.fingerprint(),
                    "deterministic": hostprof.deterministic_digest(report),
                    "report": report,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        title = (
            f"host-time budget — scenario={scenario} scale={scale} "
            f"seed={run.seed} ({run.ops} ops, {run.sim_ms:.0f} sim-ms)"
        )
        print(hostprof.format_report(report, title))
        if args.perfetto:
            print(
                f"\nwrote {trace_path}  (open in https://ui.perfetto.dev — "
                "host-timeline spans, one track per component)"
            )
    # The attribution invariant is part of the command's contract.
    total = sum(
        row["host_ns"] for row in report["events"]["by_component"].values()
    )
    if total != report["host"]["exec_ns"]:
        print("FAIL: per-component host-ns do not sum to measured total")
        return 1
    return 0


def cmd_demo(args) -> int:
    import pathlib
    import runpy

    demo = pathlib.Path(__file__).resolve().parents[2] / "examples" / (
        "fault_tolerance_demo.py"
    )
    if demo.exists():
        runpy.run_path(str(demo), run_name="__main__")
        return 0
    print("examples/fault_tolerance_demo.py not found", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the ICDCS'93 fault-tolerant directory "
        "service results.",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--iterations", type=int, default=12, help="samples per Fig. 7 cell"
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=10,
        help="chaos: number of seeded scenario runs",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="chaos: shorter windows and fewer clients (CI smoke)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="chaos: run only this scenario instead of the rotation",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="chaos: list registered scenarios and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="chaos: print structured verdicts as JSON",
    )
    parser.add_argument(
        "--trace-dir",
        default="chaos-traces",
        help="chaos: directory for failing seeds' flight-recorder dumps",
    )
    parser.add_argument(
        "--format",
        choices=["jsonl", "chrome", "text", "all"],
        default="all",
        help="trace: which exporter(s) to write",
    )
    parser.add_argument(
        "--out",
        default="traces",
        help="trace/profile: output directory for exported traces",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=3,
        help="profile/perf: how many slowest operations/sites to show",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=1,
        help="perf: time every Nth event (count all); lowers overhead",
    )
    parser.add_argument(
        "--scale",
        nargs="?",
        const="sweep",
        default=None,
        help="perf: workload scale (small | medium | large, default "
        "small); capacity: bare --scale runs the writer sweep + "
        "ceiling prediction",
    )
    parser.add_argument(
        "--writers",
        type=int,
        default=4,
        help="capacity: closed-loop writer count for a single-point run",
    )
    parser.add_argument(
        "--perfetto",
        action="store_true",
        help="perf: write a host-timeline Chrome/Perfetto trace to --out",
    )
    parser.add_argument(
        "command",
        choices=[
            "fig7", "fig8", "fig9", "all", "demo", "chaos", "trace",
            "profile", "perf", "capacity",
        ],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="trace/profile/capacity: scenario to run "
        "(update | nvram-update | lookup); "
        "perf: lookup | update | mixed | overhead",
    )
    args = parser.parse_args(argv)
    handler = {
        "fig7": cmd_fig7,
        "fig8": cmd_fig8,
        "fig9": cmd_fig9,
        "all": cmd_all,
        "demo": cmd_demo,
        "chaos": cmd_chaos,
        "trace": cmd_trace,
        "profile": cmd_profile,
        "perf": cmd_perf,
        "capacity": cmd_capacity,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())

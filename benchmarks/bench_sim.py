"""Raw simulator speed — what the host pays per completed operation.

Every scale-out item on the roadmap (namespace sharding, pipelined
dissemination, 5k-client reads) multiplies simulated event counts;
this benchmark is the committed record of how fast the simulator runs
a fixed workload and the CI gate that keeps it that way. Running the
file as a script regenerates ``BENCH_sim.json`` and can gate on a
committed baseline:

    PYTHONPATH=src python benchmarks/bench_sim.py \
        --out BENCH_sim.json --check-against BENCH_sim.json

The gate is host time per completed operation, not events/s: a change
that stops scheduling events nobody needed makes the run cheaper while
events/s *falls* (the events it removes are the cheapest ones), and a
change that adds cheap events does the opposite. sim-events/s and the
scheduled-event count stay in the file as reported fields. Absolute
host time depends on the host, so the gate compares *normalized* cost:
host time per op measured in iterations of a pure-Python calibration
loop run in the same process. The ratio cancels host speed; a >10%
rise in it is a real regression, not a slower runner. A baseline whose
deterministic fields (``ops``, ``sim_ms``) differ from this code's was
recorded for different *simulated* behaviour: the gate refuses it
(exit 2) instead of reading that as a host regression.

Runs are :func:`repro.bench.harness.run_loop` runs at its ``SCALES``
(the same ones ``python -m repro perf`` profiles); the timed runs here
attach **no** profiler, so the published numbers carry zero
instrumentation cost. The obs-on cell of each scale traces and runs the
health monitor: the pair is what observability costs when it is on.
"""

import argparse
import json
import pathlib
import sys
from time import perf_counter_ns

from repro.bench.harness import SCALES, run_loop

SCENARIO = "mixed"

#: One-time before/after record of the event-loop quick wins this
#: benchmark's first version landed with (measured on one host, both
#: numbers in the same process — the ratio is what matters):
#: 1. Timer-less heap entries — process wakeups, sleeps, and spawns
#:    skip the per-event Timer allocation (they are never cancelled);
#: 2. process resumption via a stashed-payload bound method instead of
#:    a fresh ``lambda`` closure per generator step;
#: 3. precomputed debug names for sleep/timeout futures and the
#:    Condition/Semaphore wait futures (no f-string per call).
QUICK_WIN = {
    "description": (
        "no-Timer fast path for wakeups/sleeps + bound-method process "
        "resumption + precomputed future debug names"
    ),
    "mixed_medium": {
        "scenario": "mixed/medium seed=0, obs off, best of 3, same host",
        "before_events_per_s": 175_358,
        "after_events_per_s": 181_723,
        "speedup_x": 1.04,
    },
    "scheduler_micro": {
        "scenario": "200 procs x 500 sleeps (pure loop), best of 3, same host",
        "before_events_per_s": 410_769,
        "after_events_per_s": 550_872,
        "speedup_x": 1.34,
    },
}


def _calibration_loops_per_s(n: int = 400_000, rounds: int = 3) -> float:
    """Fixed pure-Python work rate, measured best-of-rounds.

    Dict stores + integer arithmetic — the same flavor of work the
    event loop does — so events/s divided by this is host-independent
    enough to gate on across CI runners.
    """
    best = 0.0
    for _ in range(rounds):
        d = {}
        acc = 0
        t0 = perf_counter_ns()
        for i in range(n):
            d[i & 63] = acc
            acc += i
        dt = perf_counter_ns() - t0
        best = max(best, n / (dt / 1e9))
    return best


def measure_cell(
    scale: str, obs_on: bool, seed: int = 0, repeats: int = 2
) -> dict:
    """Best-of-N wallclock for one (scale, obs) cell."""
    best = None
    for _ in range(max(1, repeats)):
        run = run_loop(
            SCENARIO, **SCALES[scale], seed=seed, trace=obs_on, monitor=obs_on)
        events = run.sim._sequence
        cell = {
            "events_per_s": round(events / (run.wall_ns / 1e9), 1),
            "scheduled_events": events,
            "ops": run.loop.ops,
            "sim_ms": round(run.sim.now, 1),
            "wall_ms": round(run.wall_ns / 1e6, 1),
        }
        if best is None or cell["wall_ms"] < best["wall_ms"]:
            best = cell
    return best


def normalized_host_per_op(cell: dict, calibration_loops_per_s: float) -> float:
    """Host cost of one completed op, in calibration-loop iterations."""
    return cell["wall_ms"] / 1e3 / cell["ops"] * calibration_loops_per_s


def run_matrix(scales, seed: int = 0, repeats: int = 2) -> dict:
    cells: dict = {}
    for scale in scales:
        cells[scale] = {
            "obs_off": measure_cell(scale, obs_on=False, seed=seed, repeats=repeats),
            "obs_on": measure_cell(scale, obs_on=True, seed=seed, repeats=repeats),
        }
    return cells


# ----------------------------------------------------------------------
# pytest entry points (bench suite)
# ----------------------------------------------------------------------

def test_sim_speed_sane(benchmark, results_dir):
    from conftest import write_result

    cell = benchmark.pedantic(
        lambda: measure_cell("small", obs_on=False, repeats=1),
        rounds=1,
        iterations=1,
    )
    write_result(
        results_dir,
        "e8_sim_speed.txt",
        "E8 — raw simulator speed (mixed/small, obs off)\n"
        f"  sim-events/s: {cell['events_per_s']:12,.0f}\n"
        f"  events:       {cell['scheduled_events']:12,}",
    )
    # Any interpreter on any host should clear this by an order of
    # magnitude; the real gate is the normalized CI check.
    assert cell["events_per_s"] > 5_000


def test_sim_speed_matches_committed_baseline():
    """The committed BENCH_sim.json must describe THIS code.

    Normalized comparison with a wide (35%) margin: the strict 10%
    gate runs in CI where the calibration happens on the same runner.
    """
    baseline_path = pathlib.Path(__file__).parent.parent / "BENCH_sim.json"
    baseline = json.loads(baseline_path.read_text())
    cal = _calibration_loops_per_s()
    cell = measure_cell("small", obs_on=False, repeats=2)
    old = normalized_host_per_op(
        baseline["scales"]["small"]["obs_off"],
        baseline["calibration_loops_per_s"],
    )
    new = normalized_host_per_op(cell, cal)
    assert new <= old * 1.35, (
        f"normalized host time per op {new:.0f} regressed >35% against "
        f"committed {old:.0f}"
    )


# ----------------------------------------------------------------------
# script mode (CI bench-sim job)
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="small+medium scales only, 1 repeat (CI smoke)",
    )
    parser.add_argument(
        "--check-against", default=None,
        help="baseline JSON to gate normalized host time per op against",
    )
    parser.add_argument("--max-regression", type=float, default=0.10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    scales = ("small", "medium") if args.quick else ("small", "medium", "large")
    repeats = 1 if args.quick else 2
    calibration = _calibration_loops_per_s()
    cells = run_matrix(scales, seed=args.seed, repeats=repeats)

    result = {
        "schema": 1,
        "quick": args.quick,
        "scenario": SCENARIO,
        "seed": args.seed,
        "calibration_loops_per_s": round(calibration, 1),
        "scales": cells,
        "quick_win": QUICK_WIN,
    }
    for scale, cell in cells.items():
        off, on = cell["obs_off"], cell["obs_on"]
        cell["obs_overhead_pct"] = round(
            (off["events_per_s"] / on["events_per_s"] - 1.0) * 100, 1
        )
        cell["normalized_host_per_op"] = round(
            normalized_host_per_op(off, calibration), 1
        )

    status = 0
    if args.check_against:
        baseline = json.loads(pathlib.Path(args.check_against).read_text())
        old_cal = baseline["calibration_loops_per_s"]
        ceiling = 1.0 + args.max_regression
        for scale in scales:
            if scale not in baseline.get("scales", {}):
                continue
            old_cell = baseline["scales"][scale]["obs_off"]
            new_cell = cells[scale]["obs_off"]
            moved = [
                f"{key} {old_cell[key]} -> {new_cell[key]}"
                for key in ("ops", "sim_ms")
                if old_cell[key] != new_cell[key]
            ]
            if moved:
                print(
                    f"{scale}: {', '.join(moved)}: baseline is stale — "
                    "regenerate with `python benchmarks/bench_sim.py "
                    "--out BENCH_sim.json`"
                )
                status = 2
                continue
            old = normalized_host_per_op(old_cell, old_cal)
            new = normalized_host_per_op(new_cell, calibration)
            verdict = "ok" if new <= old * ceiling else "REGRESSED"
            print(
                f"{scale}: normalized host time per op {new:.0f} "
                f"(baseline {old:.0f}, ceiling {old * ceiling:.0f}) {verdict}"
            )
            if verdict != "ok":
                status = status or 1

    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""The ledger benchmark: one command, five workloads, every metric by name.

    python3 benchmarks/ledger/run.py [--seed N] [--seconds S] [--check]
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` it measures all five workloads, traces each one,
prints the report (paper values beside ours) and writes
``benchmarks/ledger/out/ledger.json``. With ``--workload`` it is the
contract's single run: the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Every repeat runs in a fresh child process, one at a time (a second
cluster in the same interpreter runs 30% slower: heap growth). An
untraced measurement is 5 repeats (9 on the cheap, seed-sensitive
failover_disk) on seeds N, N+1, ... and reports the median; a traced
one is an untraced and a traced repeat of seed N. Host time is read
against a calibration loop run between slices of the window and
between set-up phases (workloads.HostSlices), because this box's speed
changes by the second.
``--seconds`` scales the *simulated* windows linearly from the nominal
10 (about 2 s of CPU per repeat on the 2-core box this was sized on),
so simulated metrics are a function of (seed, seconds) alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{HERE.name}: no src/repro in {ROOT}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

from metrics import (  # noqa: E402
    END_TO_END,
    MAX_FAILED_SHARE,
    PER_LAYER,
    REPORT_ONLY,
    is_simulated,
    paper_reference,
    repeat_metrics,
)
from stats import summary  # noqa: E402
from workloads import SPECS, run_repeat  # noqa: E402

NOMINAL_SECONDS = 10
OUT = HERE / "out"
#: Per-layer metrics that depend on the host clock; the rest of the
#: trace is counts and simulated times and must repeat exactly.
HOST_LAYER_METRICS = ("sim.events_per_host_s", "trace.overhead_x")
#: Largest tolerated relative gap between a solo op's client-observed
#: latency and the sum of its trans spans.
SOLO_TRANS_TOLERANCE = 0.01


class LedgerError(Exception):
    """A correctness, passivity or repeatability check failed."""


# ----------------------------------------------------------------------
# One repeat (child process)
# ----------------------------------------------------------------------

def one_repeat(workload: str, seed: int, scale: float, trace: bool,
               spans_out: str | None = None) -> dict:
    """Run one repeat in this process and reduce it to metrics."""
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Trace().install()
    try:
        facts = run_repeat(workload, seed, scale, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = repeat_metrics(facts)
    result["checks"] = facts["checks"]
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, facts)
        result["solo_trans_gap"] = tracing.solo_trans_gap(tracer, facts)
        if spans_out:
            Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
            with open(spans_out, "w") as out:
                for row in tracing.spans_with_causes(tracer, facts):
                    out.write(json.dumps(row) + "\n")
    return result


def run_child(workload: str, seed: int, scale: float, trace: bool,
              spans_out: Path | None = None) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--trace", str(int(trace)),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    # The simulation does not depend on the hash seed; the host time of
    # set and dict walks does, by a few percent from child to child.
    done = subprocess.run(
        command, capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        raise LedgerError(
            f"{workload} seed {seed} child exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def verify(workload: str, seed: int, repeat: dict) -> None:
    """Raise unless the repeat's outputs were correct."""
    bad = [name for name, passed in repeat["checks"].items() if not passed]
    if bad:
        raise LedgerError(f"{workload} seed {seed}: checks failed: {bad}")
    share = repeat["report"]["failed_share"]
    if share > MAX_FAILED_SHARE:
        raise LedgerError(f"{workload} seed {seed}: failed_share {share:.4f}")


def measure(workload: str, seed: int, scale: float) -> dict:
    """The untraced measurement: fresh children on consecutive seeds,
    one at a time, and the median of each metric over them."""
    repeats = []
    for k in range(SPECS[workload].repeats):
        repeat = run_child(workload, seed + k, scale, trace=False)
        verify(workload, seed + k, repeat)
        repeats.append(repeat)
    metrics = {}
    for group in ("gated", "report"):
        for name in repeats[0][group]:
            values = [r[group][name] for r in repeats]
            if None not in values:
                metrics[name] = summary(values)
    return {
        "workload": workload,
        "seeds": [seed + k for k in range(len(repeats))],
        "metrics": metrics,
        "attempted": sum(r["counts"]["attempted"] for r in repeats),
        "failed": sum(r["counts"]["failed"] for r in repeats),
        "repeats": repeats,
    }


def traced(workload: str, seed: int, scale: float, untraced: dict | None = None,
           spans_out: Path | None = None) -> dict:
    """The traced repeat of *seed*, checked against the untraced one."""
    if untraced is None:
        untraced = run_child(workload, seed, scale, trace=False)
        verify(workload, seed, untraced)
    repeat = run_child(workload, seed, scale, trace=True, spans_out=spans_out)
    verify(workload, seed, repeat)
    # Passivity: wrappers and profiler only read clocks.
    for group in ("gated", "report"):
        for name, value in untraced[group].items():
            if is_simulated(name) and repeat[group][name] != value:
                raise LedgerError(
                    f"{workload}: tracing changed {name}: {value} -> "
                    f"{repeat[group][name]}"
                )
    if repeat["counts"] != untraced["counts"]:
        raise LedgerError(
            f"{workload}: tracing changed counts: {untraced['counts']} -> "
            f"{repeat['counts']}"
        )
    layers = repeat["layers"]
    shares = sum(v for k, v in layers.items() if k.endswith(".host_self_share"))
    if abs(shares - 1.0) > 0.001:
        raise LedgerError(f"{workload}: host self shares sum to {shares}")
    if repeat["solo_trans_gap"] > SOLO_TRANS_TOLERANCE:
        raise LedgerError(
            f"{workload}: solo trans spans miss client latency by "
            f"{repeat['solo_trans_gap']:.2%}"
        )
    # Calibrated CPU per event, as in host_us_per_op.
    cpu = untraced["report"]["cpu_s_per_event"]
    layers["sim.events_per_host_s"] = 1.0 / cpu
    layers["trace.overhead_x"] = repeat["report"]["cpu_s_per_event"] / cpu
    return {
        "workload": workload,
        "seed": seed,
        "layers": layers,
        "attempted": repeat["counts"]["attempted"],
        "failed": repeat["counts"]["failed"],
    }


def contract_line(attempted: int, failed: int, spec: dict, values: dict) -> str:
    """The result line; a run that was not correct raised before this."""
    return json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": spec[name]["unit"]}
            for name in spec
        },
    })


def single_run(args) -> int:
    """The contract's run: one workload, one kind of metrics."""
    scale = args.seconds / NOMINAL_SECONDS
    if args.trace:
        result = traced(args.workload, args.seed, scale)
        print_layers(result)
        line = contract_line(
            result["attempted"], result["failed"], PER_LAYER, result["layers"]
        )
    else:
        result = measure(args.workload, args.seed, scale)
        print_end_to_end(result)
        values = {n: result["metrics"][n]["value"] for n in END_TO_END}
        line = contract_line(
            result["attempted"], result["failed"], END_TO_END, values
        )
    print(line)
    return 0


# ----------------------------------------------------------------------
# The whole ledger
# ----------------------------------------------------------------------

def full_ledger(seed: int, scale: float, write_spans: bool) -> dict:
    ledger = {"seed": seed, "seconds": scale * NOMINAL_SECONDS, "workloads": {}}
    for workload in SPECS:
        started = time.perf_counter()
        end_to_end = measure(workload, seed, scale)
        print_end_to_end(end_to_end)
        layer = traced(
            workload, seed, scale, untraced=end_to_end["repeats"][0],
            spans_out=OUT / f"{workload}.spans.jsonl" if write_spans else None,
        )
        print_layers(layer)
        ledger["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": layer,
            "paper": paper_reference(workload),
            "wall_s": time.perf_counter() - started,
        }
    return ledger


def compare(first: dict, second: dict) -> list[str]:
    """Differences between two ledgers of the same code and seed that
    the benchmark's own rules do not allow."""
    problems = []
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        for name, one in a["end_to_end"]["metrics"].items():
            two = b["end_to_end"]["metrics"][name]
            if is_simulated(name):
                if one != two:
                    problems.append(f"{workload} {name}: {one} != {two}")
            elif name in END_TO_END:
                bound = END_TO_END[name]["bound"]
                drift = abs(two["value"] - one["value"]) / one["value"]
                if drift > bound:
                    problems.append(
                        f"{workload} {name}: {one['value']:.4g} vs "
                        f"{two['value']:.4g} differ by {drift:.1%} > {bound:.0%}"
                    )
        if [r["counts"] for r in a["end_to_end"]["repeats"]] != [
            r["counts"] for r in b["end_to_end"]["repeats"]
        ]:
            problems.append(f"{workload}: op counts differ between the sets")
        for name, one in a["per_layer"]["layers"].items():
            two = b["per_layer"]["layers"][name]
            exact = not (
                name.endswith(".host_self_share") or name in HOST_LAYER_METRICS
            )
            if exact and one != two:
                problems.append(f"{workload} {name}: {one} != {two}")
    return problems


def full_run(args) -> int:
    scale = args.seconds / NOMINAL_SECONDS
    ledger = full_ledger(args.seed, scale, write_spans=True)
    print_paper(ledger)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nwrote {(OUT / 'ledger.json').relative_to(ROOT)}")
    if args.check:
        print("\n--check: second set of runs, same code, same seed\n")
        second = full_ledger(args.seed, scale, write_spans=False)
        problems = compare(ledger, second)
        for problem in problems:
            print("MISMATCH", problem)
        if problems:
            return 1
        print("--check: simulated metrics and counts identical; host metrics "
              "within their bounds")
    return 0


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def print_end_to_end(result: dict) -> None:
    spec = SPECS[result["workload"]]
    print(f"\n== {result['workload']}  seeds {result['seeds'][0]}.."
          f"{result['seeds'][-1]}  ({spec.clients} closed-loop clients, "
          f"unit op = {spec.unit}) ==")
    print(f"{'end-to-end metric':<24}{'median':>12}  {'unit':<7}{'q1':>12}"
          f"{'q3':>12}{'n':>3}  bound")
    for name, cell in result["metrics"].items():
        if name in END_TO_END:
            unit = END_TO_END[name]["unit"]
            arrow = "^" if END_TO_END[name]["better"] == "higher" else "v"
            bound = f"{arrow} {END_TO_END[name]['bound']:.0%}"
        elif name in REPORT_ONLY:
            unit, bound = REPORT_ONLY[name], "report-only"
        else:
            continue
        print(f"{name:<24}{cell['value']:>12.4f}  {unit:<7}{cell['q1']:>12.4f}"
              f"{cell['q3']:>12.4f}{cell['n']:>3}  {bound}")
    counts = result["repeats"][0]["counts"]
    print(f"samples in seed {result['seeds'][0]}: {counts['unit_ops']} unit ops; "
          f"read p95 over {counts['read_p95_samples']} RPCs "
          f"({counts['read_p95_samples'] // 20} beyond it), write p95 over "
          f"{counts['write_p95_samples']} ({counts['write_p95_samples'] // 20} "
          f"beyond it); all seeds: attempted {result['attempted']}, "
          f"failed {result['failed']}")


def print_layers(result: dict) -> None:
    print(f"\n-- {result['workload']} per-layer trace, seed {result['seed']} --")
    for name in PER_LAYER:
        print(f"{name:<44}{result['layers'][name]:>14.4f}  {PER_LAYER[name]['unit']}")


def print_paper(ledger: dict) -> None:
    print("\n== paper reference (informational, never gated) ==")
    print(f"{'workload':<14}{'metric':<18}{'ours':>10}{'paper':>8}  error")
    for workload, entry in ledger["workloads"].items():
        for name, paper in entry["paper"].items():
            ours = entry["end_to_end"]["metrics"][name]["value"]
            print(f"{workload:<14}{name:<18}{ours:>10.2f}{paper:>8}  "
                  f"{(ours - paper) / paper:+.1%}")
    print("(update_disk runs with group commit, batch_max=16; the paper's 5 "
          "pairs/s is the\n unbatched plateau, which BENCH_headline.json "
          "reproduces at batch_max=1)")
    print(INTERACTION_RULES)


INTERACTION_RULES = """
How the layers move the end-to-end numbers (README.md has the table):
- unloaded, a faster layer saves at most its share of sim_solo_p50_ms;
- under 8 writers the serial take-apply-persist loop is a shared queue,
  so freeing it can move sim_ops_per_s by more than its solo share;
- bigger group.records_per_batch raises throughput and delays the first
  record of each batch (sim_write_p95_ms);
- a host-only change must leave every sim_* metric and every count
  byte-identical (--check verifies exactly that)."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run the whole ledger twice and compare")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(one_repeat(
            args.workload, args.seed, args.scale, bool(args.trace), args.spans_out
        )))
        return 0
    try:
        if args.workload:
            return single_run(args)
        return full_run(args)
    except LedgerError as error:
        print(f"ledger: FAILED: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

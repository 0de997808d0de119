"""Experiment E5 — the paper's headline numbers (abstract/conclusion).

"The group directory service allows for 627 lookup operations per
second and 88 update operations per second" (updates measured with
NVRAM; an append-delete pair is two updates, so 44 pairs/s ≈ 88
updates/s).

Since the group-commit change this file is also a SCRIPT: running it
directly regenerates ``BENCH_headline.json`` — the committed
before/after record of the batching work — and can gate on a
committed baseline:

    PYTHONPATH=src python benchmarks/bench_headline.py \
        --out BENCH_headline.json \
        --check-against BENCH_headline.json

The check fails (exit 1) when the single-client update latency of the
batched disk service regresses more than 5% against the baseline, or
when its 8-writer throughput drops more than 5% (the group-commit
convoy, if it ever comes back, halves it while leaving the latency
untouched). The simulation is deterministic, so any drift is a real
code change, not noise.
"""

import argparse
import json
import pathlib
import sys

from repro.bench import PAPER_SERVER, fig7_cell, lookup_throughput, update_throughput
from repro.directory.config import ServiceConfig

# --check-against fails when the 8-writer batched throughput falls below
# this share of the committed baseline.
MIN_THROUGHPUT_RATIO = 0.95
#: The two sides of the group-commit record (``server_threads=8`` so
#: requests can queue). The engineered default is named because
#: ``fig7_cell`` builds the paper's server unless told otherwise.
BATCHED = {"server_threads": 8, "batch_max": ServiceConfig.batch_max}
UNBATCHED = {"server_threads": 8, **PAPER_SERVER}


def run_headline(measure_ms=15_000.0):
    lookups = lookup_throughput(
        "group", 7, seed=0, measure_ms=min(measure_ms, 8_000.0)
    )
    pairs = update_throughput("nvram", 7, seed=0, measure_ms=measure_ms)
    return lookups, pairs * 2.0


def run_group_commit(measure_ms=15_000.0):
    """Before/after record of group-commit batching on the disk-backed
    group service."""
    out = {
        "single_client_latency_ms": {
            "batched": fig7_cell("group", "append_delete", 20, seed=0, **BATCHED),
            "batch_max_1": fig7_cell(
                "group", "append_delete", 20, seed=0, **UNBATCHED
            ),
        },
        "pairs_per_s": {"batched": {}, "batch_max_1": {}},
    }
    for n in (1, 8):
        out["pairs_per_s"]["batched"][str(n)] = update_throughput(
            "group", n, seed=0, measure_ms=measure_ms, **BATCHED
        )
        out["pairs_per_s"]["batch_max_1"][str(n)] = update_throughput(
            "group", n, seed=0, measure_ms=measure_ms, **UNBATCHED
        )
    out["scaling_x"] = round(
        out["pairs_per_s"]["batched"]["8"] / out["pairs_per_s"]["batched"]["1"], 2
    )
    return out


# ----------------------------------------------------------------------
# pytest entry points (bench suite)
# ----------------------------------------------------------------------

def test_headline_numbers(benchmark, results_dir):
    from conftest import write_result

    lookups, updates = benchmark.pedantic(run_headline, rounds=1, iterations=1)
    write_result(
        results_dir,
        "e5_headline.txt",
        "E5 — headline throughput of the group directory service\n"
        f"  lookups/s (7 clients):        {lookups:6.0f}   (paper: 627)\n"
        f"  updates/s (NVRAM, 7 clients): {updates:6.0f}   (paper: 88)",
    )
    assert 520 <= lookups <= 820
    assert 70 <= updates <= 120


def test_headline_matches_committed_baseline():
    """The committed BENCH_headline.json must describe THIS code."""
    baseline_path = pathlib.Path(__file__).parent.parent / "BENCH_headline.json"
    baseline = json.loads(baseline_path.read_text())
    measured = fig7_cell("group", "append_delete", 20, seed=0, **BATCHED)
    committed = baseline["group_commit"]["single_client_latency_ms"]["batched"]
    assert measured <= committed * 1.05, (
        f"single-client update latency {measured:.1f} ms regressed >5% "
        f"against committed baseline {committed:.1f} ms"
    )


# ----------------------------------------------------------------------
# script mode (CI bench-smoke job)
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_headline.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter measurement windows (CI smoke)",
    )
    parser.add_argument(
        "--check-against", default=None,
        help="baseline JSON to gate update latency and throughput against",
    )
    parser.add_argument("--max-latency-regression", type=float, default=0.05)
    args = parser.parse_args(argv)

    measure_ms = 6_000.0 if args.quick else 15_000.0
    lookups, updates = run_headline(measure_ms)
    group_commit = run_group_commit(measure_ms)
    result = {
        "schema": 1,
        "quick": args.quick,
        "headline": {
            "lookups_per_s": round(lookups, 1),
            "paper_lookups_per_s": 627,
            "nvram_updates_per_s": round(updates, 1),
            "paper_updates_per_s": 88,
        },
        "group_commit": {
            k: (
                {ik: (round(iv, 2) if isinstance(iv, float) else iv)
                 for ik, iv in v.items()}
                if isinstance(v, dict) else v
            )
            for k, v in group_commit.items()
        },
    }
    # Round the nested pairs_per_s leaves too.
    for curve in result["group_commit"]["pairs_per_s"].values():
        for k in curve:
            curve[k] = round(curve[k], 2)

    status = 0
    if args.check_against:
        baseline = json.loads(pathlib.Path(args.check_against).read_text())
        old, new = baseline["group_commit"], result["group_commit"]
        old_ms = old["single_client_latency_ms"]["batched"]
        new_ms = new["single_client_latency_ms"]["batched"]
        max_ms = old_ms * (1.0 + args.max_latency_regression)
        old_tput = old["pairs_per_s"]["batched"]["8"]
        new_tput = new["pairs_per_s"]["batched"]["8"]
        min_tput = old_tput * MIN_THROUGHPUT_RATIO
        checks = (
            (new_ms <= max_ms,
             f"single-client update latency: {new_ms:.1f} ms "
             f"(baseline {old_ms:.1f} ms, limit {max_ms:.1f} ms)"),
            (new_tput >= min_tput,
             f"8-writer batched throughput: {new_tput:.2f} pairs/s "
             f"(baseline {old_tput:.2f}, floor {min_tput:.2f})"),
        )
        for ok, line in checks:
            print(line, "ok" if ok else "REGRESSED")
            if not ok:
                status = 1

    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return status


if __name__ == "__main__":
    sys.exit(main())

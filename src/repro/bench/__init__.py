"""Benchmark harness: regenerates every table and figure of the paper.

Each experiment function builds a fresh simulated deployment, drives
the paper's workload, and returns structured results;
:mod:`repro.bench.tables` renders them next to the paper's reported
numbers. The ``benchmarks/`` directory wraps these in pytest-benchmark
targets (one per table/figure) and EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from repro.bench.harness import (
    IMPLEMENTATIONS,
    PAPER_SERVER,
    build_deployment,
    fig7_cell,
    fig7_table,
    lookup_throughput,
    update_throughput,
)
from repro.bench.tables import format_fig7, format_throughput_curve

__all__ = [
    "IMPLEMENTATIONS",
    "PAPER_SERVER",
    "build_deployment",
    "fig7_cell",
    "fig7_table",
    "format_fig7",
    "format_throughput_curve",
    "lookup_throughput",
    "update_throughput",
]

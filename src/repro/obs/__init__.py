"""Simulation-wide observability: metrics registry + causal tracing.

The subsystem has three parts:

* :mod:`repro.obs.registry` — a per-node metrics registry (counters,
  time-weighted gauges, histograms) that every layer publishes into;
* :mod:`repro.obs.trace` — a causal trace recorder capturing structured
  protocol events with sim-timestamps and message lineage ids, backed
  by an optional ring buffer so it can run as a flight recorder;
* :mod:`repro.obs.export` — exporters: JSONL, Chrome trace-event format
  (Perfetto-viewable, one track per machine), and a text timeline.

Two consumers sit on top:

* :mod:`repro.obs.spans` — stitches lineage-stamped trace events into
  per-operation causal span trees and folds them into one report of a
  Fig. 7 run (``python -m repro trace``): the wire/sequencer/compute/
  disk phase table, then the per-segment latency budget; the run is
  :func:`repro.bench.harness.run_solo`'s, and this module is imported
  lazily by the CLI, not here, to keep this package import-cycle-free;
* :mod:`repro.obs.saturation` — the one periodic sampler over the
  registry, and :mod:`repro.obs.monitor` — that sampler plus
  hysteresis alerts (started on every chaos scenario).

Every :class:`~repro.sim.scheduler.Simulator` owns one
:class:`Observability` bundle as ``sim.obs``. Tracing is **off** by
default and costs one attribute check per instrumented call site; the
registry is always on (plain integer/float bumps).

The *host-time* layer sits beside the sim-time one:

* :mod:`repro.obs.hostprof` — ``cProfile`` self time and calls per
  layer (the ledger's layer names) and per function of a
  :func:`repro.bench.harness.run_loop` run (``python -m repro perf``);
  imported by the CLI, not here. What the disabled obs hot paths
  cost is pinned by tests/obs/test_overhead.py.
"""

from repro.obs.export import to_chrome_trace, to_jsonl, to_text, write_trace
from repro.obs.monitor import (
    DEFAULT_THRESHOLDS,
    Alert,
    HealthMonitor,
    Threshold,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Observability, TraceEvent, TraceRecorder

__all__ = [
    "Alert",
    "Counter",
    "DEFAULT_THRESHOLDS",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Threshold",
    "TraceEvent",
    "TraceRecorder",
    "to_chrome_trace",
    "to_jsonl",
    "to_text",
    "write_trace",
]

"""Simulation-wide observability: metrics registry + causal tracing.

The subsystem has three parts (ISSUE 2 tentpole):

* :mod:`repro.obs.registry` — a per-node metrics registry (counters,
  time-weighted gauges, histograms) that every layer publishes into;
* :mod:`repro.obs.trace` — a causal trace recorder capturing structured
  protocol events with sim-timestamps and message lineage ids, backed
  by an optional ring buffer so it can run as a flight recorder;
* :mod:`repro.obs.export` — exporters: JSONL, Chrome trace-event format
  (Perfetto-viewable, one track per machine), and a text timeline.

Two consumers sit on top (ISSUE 5 tentpole):

* :mod:`repro.obs.spans` — stitches lineage-stamped trace events into
  per-operation causal span trees, a deterministic latency-budget
  report (``python -m repro profile``) and, from the same segments,
  the wire/sequencer/compute/disk attribution of a Fig. 7 run
  (``python -m repro trace``); imported lazily by the CLI, not here,
  to keep this package import-cycle-free;
* :mod:`repro.obs.saturation` — the one periodic sampler over the
  registry, and :mod:`repro.obs.monitor` — that sampler plus
  hysteresis alerts (started on every chaos scenario).

Every :class:`~repro.sim.scheduler.Simulator` owns one
:class:`Observability` bundle as ``sim.obs``. Tracing is **off** by
default and costs one attribute check per instrumented call site; the
registry is always on (plain integer/float bumps).

The *host-time* layer (ISSUE 7 tentpole) sits beside the sim-time one:

* :mod:`repro.obs.hostprof` — a host-clock profiler for the simulator
  event loop (per-event-kind / per-component ns attribution,
  sim-events/s, ``python -m repro perf``);
* :mod:`repro.obs.overhead` — the observability overhead accountant
  measuring the marginal host cost of trace/monitor and pinning the
  disabled-path cost (``python -m repro perf overhead``).
"""

from repro.obs.export import to_chrome_trace, to_jsonl, to_text, write_trace
from repro.obs.hostprof import Capture, HostProfiler, capture
from repro.obs.monitor import (
    DEFAULT_THRESHOLDS,
    Alert,
    HealthMonitor,
    Threshold,
    thresholds_with,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Observability, TraceEvent, TraceRecorder

__all__ = [
    "Alert",
    "Capture",
    "Counter",
    "DEFAULT_THRESHOLDS",
    "Gauge",
    "HealthMonitor",
    "HostProfiler",
    "capture",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Threshold",
    "TraceEvent",
    "TraceRecorder",
    "thresholds_with",
    "to_chrome_trace",
    "to_jsonl",
    "to_text",
    "write_trace",
]

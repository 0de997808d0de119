"""Canonical scenarios for host-speed measurement.

The paper-facing benchmarks (:mod:`repro.bench.harness`) report
*simulated* latency and throughput. This module runs the same cluster
under fixed closed-loop workloads and reports how fast the **host**
chews through simulated events — the number every raw-speed refactor
is judged by (`python -m repro perf`, ``benchmarks/bench_sim.py``, and
the observability overhead accountant all drive scenarios from here).

Scenarios are deterministic: for a given (scenario, scale, seed) the
event count, operation count, and metrics snapshot are pure functions
of the seed, whether or not a profiler is attached and whatever obs
subsystems are toggled on. :meth:`PerfRun.fingerprint` captures that
invariant for the determinism tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any

from repro.bench.harness import WORKLOADS, build_deployment, closed_loop
from repro.obs import hostprof

#: Workload sizes. Clients are closed-loop (one outstanding op each);
#: the measure window is simulated milliseconds.
SCALES: dict[str, dict[str, float]] = {
    "small": {"clients": 4, "warmup_ms": 500.0, "measure_ms": 2_000.0},
    "medium": {"clients": 12, "warmup_ms": 1_000.0, "measure_ms": 6_000.0},
    "large": {"clients": 24, "warmup_ms": 1_000.0, "measure_ms": 15_000.0},
}

SCENARIOS = tuple(WORKLOADS)


@dataclass
class PerfRun:
    """Result of one scenario run (see :func:`run_perf_scenario`)."""

    scenario: str
    scale: str
    seed: int
    ops: int
    errors: int
    sim_ms: float
    scheduled_events: int
    wall_ns: int
    trace_enabled: bool
    monitor_enabled: bool
    registry_digest: str
    capture: Any = None  # hostprof.Capture when profile=True
    trace_events: int = 0
    monitor_ticks: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def events_per_s(self) -> float:
        """Scheduled sim-events per host second (coarse, profile-free)."""
        if not self.wall_ns:
            return 0.0
        return self.scheduled_events / (self.wall_ns / 1e9)

    def fingerprint(self) -> dict:
        """Seed-deterministic digest: identical across profiler on/off.

        Everything here is a pure function of (scenario, scale, seed) —
        no host-time fields.
        """
        return {
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "ops": self.ops,
            "errors": self.errors,
            "sim_ms": round(self.sim_ms, 6),
            "scheduled_events": self.scheduled_events,
            "registry_digest": self.registry_digest,
        }


def _registry_digest(sim) -> str:
    snapshot = sim.obs.registry.snapshot()
    payload = json.dumps(snapshot, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_perf_scenario(
    scenario: str,
    scale: str = "small",
    seed: int = 0,
    impl: str = "group",
    trace: bool = False,
    monitor: bool = False,
    profile: bool = True,
    sample: int = 1,
    keep_slices: bool = False,
) -> PerfRun:
    """Run one canonical scenario and measure host cost.

    With ``profile=True`` the whole run (cluster boot included) happens
    inside a :func:`repro.obs.hostprof.capture` block and the result's
    ``capture`` carries full attribution. With ``profile=False`` only
    endpoint counters and wallclock are read — that is the
    configuration ``bench_sim.py`` times, so the published sim-events/s
    numbers carry no per-event profiling overhead.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick from {sorted(SCALES)}")
    params = SCALES[scale]

    def body():
        deployment = build_deployment(impl, seed=seed)
        sim = deployment.sim
        if trace:
            sim.obs.tracer.enable(capacity=4096)
        mon = None
        if monitor:
            from repro.obs.monitor import HealthMonitor

            mon = HealthMonitor(sim).start()
        loop = closed_loop(
            deployment,
            scenario,
            int(params["clients"]),
            params["warmup_ms"],
            params["measure_ms"],
        )
        return sim, mon, loop

    if profile:
        with hostprof.capture(sample=sample, keep_slices=keep_slices) as cap:
            sim, mon, loop = body()
        wall_ns = cap.wall_ns
    else:
        cap = None
        t0 = perf_counter_ns()
        sim, mon, loop = body()
        wall_ns = perf_counter_ns() - t0

    return PerfRun(
        scenario=scenario,
        scale=scale,
        seed=seed,
        ops=loop.ops,
        errors=loop.errors,
        sim_ms=sim.now,
        scheduled_events=sim._sequence,
        wall_ns=wall_ns,
        trace_enabled=trace,
        monitor_enabled=monitor,
        registry_digest=_registry_digest(sim),
        capture=cap,
        trace_events=len(sim.obs.tracer.events()) if trace else 0,
        monitor_ticks=mon.ticks if mon is not None else 0,
    )

"""Deterministic chaos harness for the group protocol.

The paper argues (§2, §4–5) that the sequencer-based group protocol
stays correct and available under processor failures up to the
resilience degree *r*. This package attacks that claim with
*adversarial* faults the polite failure model never produces:

* protocol-aware nemesis scenarios (:mod:`repro.chaos.nemesis`) —
  crash the sequencer mid-broadcast, partition while a replica is
  recovering, crash a server again in the middle of its restart, flap
  links;
* link-level message faults via :mod:`repro.net.policy` — asymmetric
  drop, per-receiver multicast loss, duplication, bounded reordering,
  delay spikes;
* a seeded scenario runner (:mod:`repro.chaos.runner`) that drives
  client workloads against the deployments, waits for quiescence, and
  mechanically checks the paper's one-copy-serializability stand-ins
  (replica equality + per-key linearizability) via :mod:`repro.verify`,
  reporting a structured verdict per run.

Everything is a pure function of the seed: same seed + same scenario
⇒ byte-identical fault logs, network counters, and final replica
fingerprints. Run the suite with ``python -m repro chaos --seeds N``.
"""

from repro.chaos.runner import (
    DEFAULT_TRACE_DIR,
    FLIGHT_RECORDER_CAPACITY,
    SCENARIOS,
    Scenario,
    ScenarioVerdict,
    dump_flight_recorder,
    format_verdicts,
    host_summary,
    run_scenario,
    run_suite,
    scenario_by_name,
    watcher_traffic,
)

__all__ = [
    "DEFAULT_TRACE_DIR",
    "FLIGHT_RECORDER_CAPACITY",
    "SCENARIOS",
    "Scenario",
    "ScenarioVerdict",
    "dump_flight_recorder",
    "format_verdicts",
    "host_summary",
    "run_scenario",
    "run_suite",
    "scenario_by_name",
    "watcher_traffic",
]

"""Chaos sweep with group-commit batching enabled.

The chaos scenarios build their clusters with the default
ServiceConfig, which since the group-commit change means batching is
ON (``batch_max=16``). This sweep pins that down: ten seeds of the
nastiest rotation scenario must still satisfy every ``repro.verify``
invariant, and a seeded run must stay bit-for-bit deterministic —
batch formation is driven purely by simulated time, never by host
nondeterminism.
"""

import pytest

from repro.directory.config import ServiceConfig

SWEEP_SEEDS = list(range(100, 110))


def test_chaos_clusters_run_with_batching_on():
    # The sweep below only covers batching if the default says so.
    assert ServiceConfig(name="x", server_addresses=("a",)).batch_max > 1


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_sequencer_crash_sweep_with_batching(seed, smoke_verdict):
    verdict = smoke_verdict("sequencer_crash", seed)
    assert verdict.ok, f"seed {seed}: {verdict.status}: {verdict.problems}"
    assert verdict.report is not None
    assert verdict.report.replicas_equal


@pytest.mark.parametrize("name", ["multicast_loss", "reordering"])
def test_link_fault_scenarios_with_batching(name, smoke_verdict):
    # Loss and reordering interact with batch formation (retransmitted
    # records become deliverable in bursts); the invariants must hold.
    verdict = smoke_verdict(name, 7)
    assert verdict.ok, f"{name}: {verdict.status}: {verdict.problems}"


def test_batched_chaos_run_is_deterministic(smoke_verdict):
    first = smoke_verdict.fresh("sequencer_crash", 41)
    second = smoke_verdict.fresh("sequencer_crash", 41)
    assert first.status == second.status
    assert first.fault_log == second.fault_log
    assert first.net_stats == second.net_stats
    assert first.fingerprints == second.fingerprints
    assert first.simulated_ms == second.simulated_ms

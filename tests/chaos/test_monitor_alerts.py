"""The watchdog under chaos: alerts fire in-window, clear, stay silent.

ISSUE 5 acceptance sweep: across ≥ 10 seeded nemesis runs the health
monitor must raise at least one alert inside every fault window and
end the run with every alert cleared; across ≥ 10 fault-free control
seeds it must never alert at all. The expect_alerts contract is
enforced by the runner itself (a violation becomes a verdict problem),
so these tests assert on the verdicts.
"""

import pytest

from repro.chaos.runner import SCENARIOS

ALERTING = [s.name for s in SCENARIOS.values() if s.expect_alerts is True]
SWEEP = [  # ≥10 (scenario, seed) nemesis runs, every alerting scenario
    (name, seed)
    for seed in (0, 1)
    for name in ALERTING
]


def test_alerting_scenarios_cover_the_nemesis_rotation():
    assert set(ALERTING) >= {
        "sequencer_crash",
        "partition_during_recovery",
        "crash_during_restart",
        "flapping_links",
        "random_soak",
        "retry_storm",
    }
    assert len(SWEEP) >= 10


@pytest.mark.parametrize("name,seed", SWEEP)
def test_faults_alert_in_window_and_clear(name, seed, smoke_verdict):
    verdict = smoke_verdict(name, seed)
    assert verdict.ok, verdict.problems
    assert verdict.alerts_in_fault_window >= 1
    assert verdict.active_alerts == []
    assert verdict.monitor_ticks > 0
    # Every raised alert eventually cleared.
    assert len(verdict.alert_clears) == len(verdict.alerts)


@pytest.mark.parametrize("seed", list(range(10)))
def test_fault_free_control_stays_silent(seed, smoke_verdict):
    verdict = smoke_verdict("fault_free_control", seed)
    assert verdict.ok, verdict.problems
    assert verdict.alerts == []
    assert verdict.alert_clears == []
    assert verdict.monitor_ticks > 0


def test_verdict_embeds_health_summary(smoke_verdict):
    verdict = smoke_verdict("sequencer_crash", 0)
    health = verdict.as_dict()["health"]
    assert health["ticks"] == verdict.monitor_ticks
    assert health["alerts"], "expected at least one alert dict"
    assert health["active_at_end"] == []
    assert health["alerts_in_fault_window"] >= 1
    first = health["alerts"][0]
    assert {"at_ms", "node", "signal", "value", "threshold", "kind"} <= set(
        first
    )


def test_monitor_is_deterministic_per_seed(smoke_verdict):
    a = smoke_verdict.fresh("flapping_links", 2)
    b = smoke_verdict.fresh("flapping_links", 2)
    assert [x.as_dict() for x in a.alerts] == [x.as_dict() for x in b.alerts]
    assert [x.as_dict() for x in a.alert_clears] == [
        x.as_dict() for x in b.alert_clears
    ]

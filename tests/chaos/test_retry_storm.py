"""The retry_storm scenario: exactly-once under adversarial retries.

retry_storm runs retry-safe clients against shared keys while replies
are dropped and requests delayed, then checks the recorded history for
per-key linearizability and the trace for duplicate applies. The
_nodedup twin switches the servers' session tables off to prove those
checkers actually bite.
"""

import pytest



class TestRetryStorm:
    def test_smoke_run_holds_invariants(self, smoke_verdict):
        verdict = smoke_verdict("retry_storm", 1)
        assert verdict.ok, verdict.problems
        assert verdict.report.linearizability_violations == []
        assert verdict.report.duplicate_applies == []
        # The workload actually exercised the retry path: resends were
        # answered from a reply cache (the monitor's session.dup_rate
        # reads the servers' session.cache_hits).
        assert "session.dup_rate" in {a.signal for a in verdict.alerts}

    def test_same_seed_is_deterministic(self, smoke_verdict):
        first = smoke_verdict.fresh("retry_storm", 3)
        second = smoke_verdict.fresh("retry_storm", 3)
        assert first.status == second.status
        assert first.fault_log == second.fault_log
        assert first.net_stats == second.net_stats
        assert first.fingerprints == second.fingerprints
        assert first.simulated_ms == second.simulated_ms
        assert [
            (e.client, e.kind, e.key, repr(e.value)) for e in first.history_events
        ] == [
            (e.client, e.kind, e.key, repr(e.value)) for e in second.history_events
        ]

    def test_scenario_is_in_rotation(self):
        from repro.chaos.runner import rotation

        names = {s.name for s in rotation()}
        assert "retry_storm" in names
        assert "retry_storm_nodedup" not in names


class TestNoDedupControl:
    """Without the session table the same workload must fail the
    checkers — otherwise a zero-violation sweep proves nothing."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dedup_disabled_is_caught(self, seed, smoke_verdict):
        # Whether a smoke-length run loses the reply of a write that is
        # not idempotent is the seed's luck (about nine in ten do): the
        # control is that a short sweep from here is caught.
        for swept in (seed, seed + 2, seed + 4):
            verdict = smoke_verdict("retry_storm_nodedup", swept)
            if verdict.status == "violation":
                break
        assert verdict.status == "violation"
        assert (
            verdict.report.linearizability_violations
            or verdict.report.duplicate_applies
        )

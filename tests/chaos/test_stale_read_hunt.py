"""The stale_read_hunt scenario: cache coherence under fire.

stale_read_hunt runs cache-enabled retry-safe clients against hot
shared keys while invalidation records and their acks are dropped,
replies lagged, and the sequencer crashed; every cache-served read is
recorded in the history with ``source="cache"`` and held to the same
per-key register linearizability as server reads. The
cache_nocoherence twin acknowledges invalidations but ignores them,
proving the extended checker actually catches stale cached reads.
"""

import dataclasses

import pytest

from repro.chaos import run_scenario, scenario_by_name


class TestStaleReadHunt:
    def test_smoke_run_holds_invariants(self, smoke_verdict):
        verdict = smoke_verdict("stale_read_hunt", 1)
        assert verdict.ok, verdict.problems
        assert verdict.report.linearizability_violations == []
        # Non-vacuity: the run must actually have served reads from
        # client caches, or it proves nothing about coherence.
        cache_reads = sum(
            1 for e in verdict.history_events if e.source == "cache"
        )
        assert cache_reads >= 1
        server_reads = sum(
            1
            for e in verdict.history_events
            if e.kind == "lookup" and e.source == "server"
        )
        assert server_reads >= 1  # misses still go remote under faults

    def test_lapsed_lease_seed_stays_linearizable(self, smoke_verdict):
        """Seed 14 lets a reader's lease lapse with its invalidation
        lost, then renews it through another key: entries filled under
        the old lease used to become servable again (a stale read)."""
        verdict = smoke_verdict("stale_read_hunt", 14)
        assert verdict.ok, verdict.problems
        assert verdict.report.linearizability_violations == []

    def test_same_seed_is_deterministic(self, smoke_verdict):
        first = smoke_verdict.fresh("stale_read_hunt", 3)
        second = smoke_verdict.fresh("stale_read_hunt", 3)
        assert first.status == second.status
        assert first.fault_log == second.fault_log
        assert first.net_stats == second.net_stats
        assert first.fingerprints == second.fingerprints
        assert first.simulated_ms == second.simulated_ms
        assert [
            (e.client, e.kind, e.key, repr(e.value), e.source)
            for e in first.history_events
        ] == [
            (e.client, e.kind, e.key, repr(e.value), e.source)
            for e in second.history_events
        ]

    def test_cached_reads_survive_the_retry_storm(self):
        """Composition: the exactly-once gauntlet (reply drops +
        >timeout request lag) with caching on. Cached reads must stay
        linearizable even while the session layer absorbs blind
        resends."""
        storm = scenario_by_name("retry_storm")
        cached_storm = dataclasses.replace(
            storm, name="retry_storm_cached", cache_size=64, in_rotation=False
        )
        verdict = run_scenario(cached_storm, seed=2, smoke=True)
        assert verdict.ok, verdict.problems
        assert verdict.report.linearizability_violations == []
        assert verdict.report.duplicate_applies == []
        assert any(e.source == "cache" for e in verdict.history_events)

    def test_scenarios_stay_out_of_rotation(self):
        # Inserting either into the rotation would remap which seed
        # runs which scenario in the CI chaos smoke.
        from repro.chaos.runner import rotation

        names = {s.name for s in rotation()}
        assert "stale_read_hunt" not in names
        assert "cache_nocoherence" not in names


class TestNoCoherenceControl:
    """A client that acknowledges invalidations but keeps serving the
    doomed entries must be caught — otherwise a zero-stale-read sweep
    proves nothing."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_ignored_invalidations_are_caught(self, seed, smoke_verdict):
        verdict = smoke_verdict("cache_nocoherence", seed)
        assert verdict.status == "violation"
        assert verdict.report.linearizability_violations
        # The stale values were served locally: the control run did
        # exercise the cache path it subverts.
        assert any(e.source == "cache" for e in verdict.history_events)

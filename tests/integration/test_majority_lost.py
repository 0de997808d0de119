"""NEGATIVE chaos test: losing a majority must be *detected*.

The paper's availability claim (§2, §5) is conditional: the group
directory service serves requests only while a majority of replicas is
present. When a majority is gone the correct behaviour is refusal —
every surviving replica answers ``NoMajority`` — never stale or
divergent data. This is the flip side of the recoverable chaos
scenarios: here the fault schedule is deliberately unrecoverable and
the *expected* verdict is ``unavailable``.
"""

import pytest

from repro.chaos import run_scenario, scenario_by_name
from repro.cluster import GroupServiceCluster
from repro.errors import NoMajority, ReproError


class TestMajorityLostScenario:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_detected_unavailability_not_stale_answers(self, seed):
        verdict = run_scenario(scenario_by_name("majority_lost"), seed=seed)
        # The scenario would FAIL (ok=False) if the service kept
        # serving after the majority died, or if anything served
        # before the blackout was not linearizable.
        assert verdict.ok, verdict.problems
        assert verdict.status == "unavailable"
        assert not verdict.expected_available
        assert verdict.problems == []
        # Fewer than a majority left operational.
        total = verdict.report.total_servers
        assert verdict.report.operational < total // 2 + 1

    def test_survivor_refuses_requests_outright(self):
        """Drive a survivor directly: it must raise, not answer."""
        cluster = GroupServiceCluster(seed=5)
        cluster.start()
        cluster.wait_operational()
        client = cluster.add_client("probe")
        root = cluster.root_capability

        def setup():
            yield from client.append_row(root, "before", (root,))
            value = yield from client.lookup(root, "before")
            return value

        assert cluster.sim.run_until_complete(
            cluster.sim.spawn(setup(), "setup")
        ) is not None

        cluster.crash_server(0)
        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 2_000.0)

        def probe():
            try:
                yield from client.lookup(root, "before")
            except (NoMajority, ReproError) as exc:
                return exc
            return None

        outcome = cluster.sim.run_until_complete(
            cluster.sim.spawn(probe(), "probe")
        )
        assert outcome is not None, (
            "a minority survivor answered a read instead of refusing"
        )

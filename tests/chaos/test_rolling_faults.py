"""The self-driving gauntlet, end to end.

``rolling_faults`` leaves the world broken on purpose — a corpse, a
persistently lossy link, sustained multicast loss — and the
remediation controller must restore the declared shape before the
checks run. ``remediation_off`` is the non-vacuity control: the same
gauntlet with the controller disabled must FAIL
``check_resilience_restored``, proving the check can actually fire.
"""

import json

from repro.chaos.runner import SCENARIOS


def scenario(name):
    return SCENARIOS[name]


class TestRollingFaults:
    def test_remediation_restores_declared_resilience(self, smoke_verdict):
        verdict = smoke_verdict("rolling_faults", 0)
        d = verdict.as_dict()
        assert d["ok"], d["problems"]
        assert d["status"] == "consistent"
        assert d["invariants"]["resilience_problems"] == []
        actions = [a["action"] for a in d["remediation_actions"]]
        assert "restart" in actions, actions
        # Every audit entry is lineage-stamped and ordered.
        numbers = [a["n"] for a in d["remediation_actions"]]
        assert numbers == sorted(numbers)

    def test_same_seed_runs_are_identical(self, smoke_verdict):
        a = smoke_verdict.fresh("rolling_faults", 1)
        b = smoke_verdict.fresh("rolling_faults", 1)

        def canon(v):
            # host_ms is host wallclock — the one deliberately
            # non-deterministic verdict field; everything else must
            # be a pure function of the seed.
            d = v.as_dict()
            d.pop("host_ms")
            return json.dumps(d, sort_keys=True, default=str)

        assert canon(a) == canon(b)


class TestRemediationOffControl:
    def test_without_the_controller_the_check_fails(self, smoke_verdict):
        verdict = smoke_verdict("remediation_off", 0)
        d = verdict.as_dict()
        assert not d["ok"]
        assert d["status"] == "violation"
        problems = d["invariants"]["resilience_problems"]
        assert problems, "check_resilience_restored must flag the cluster"
        assert any("operational" in p for p in problems)
        assert d["remediation_actions"] == []

    def test_control_stays_out_of_the_default_rotation(self):
        assert scenario("remediation_off").in_rotation is False
        assert scenario("rolling_faults").in_rotation is not False

"""Fixtures shared by the whole suite."""

import pytest


@pytest.fixture(scope="session")
def smoke_verdict():
    """``smoke_verdict(name, seed)``: the ``--smoke`` verdict of the
    registered scenario *name* at *seed*, run once per session.

    A chaos run is a pure function of (scenario, seed, window), and many
    tests only read one. ``smoke_verdict.fresh(name, seed)`` runs it
    again whatever the cache holds — a determinism check compares two
    fresh runs — and the cache keeps the latest. A test that
    monkeypatches what a run calls, or builds its own ``Scenario``,
    calls ``run_scenario`` itself; nothing here may mutate a verdict."""
    from repro.chaos import run_scenario, scenario_by_name

    verdicts = {}

    def fresh(name, seed):
        verdicts[name, seed] = run_scenario(scenario_by_name(name), seed, smoke=True)
        return verdicts[name, seed]

    def get(name, seed):
        return verdicts[name, seed] if (name, seed) in verdicts else fresh(name, seed)

    get.fresh = fresh
    return get

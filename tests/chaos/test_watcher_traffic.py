"""The watcher is sized to its traffic: what it keeps, it uses.

Two smoke runs the suite already runs elsewhere (the determinism seed
of ``test_rolling_faults.py`` and the scrub seed of
``test_bitrot_gauntlet.py``) between them trip every threshold the
monitor carries and every policy the controller carries. A signal or a policy that is documented and never
fires — two thresholds and two policies were, for seventeen PRs —
fails here the day it is added. The 111-run tally behind the cut is
in docs/CHAOS.md §2. Which runs trip what is the seed's business: when
a schedule change moves it, re-pick the pair with the tally command
there.
"""

from repro.chaos import format_verdicts, watcher_traffic
from repro.obs.monitor import DEFAULT_THRESHOLDS

RUNS = (("rolling_faults", 1), ("bitrot_gauntlet", 5))


def test_every_threshold_raises_and_every_policy_acts(smoke_verdict):
    verdicts = [smoke_verdict(name, seed) for name, seed in RUNS]
    assert all(v.ok for v in verdicts), [v.problems for v in verdicts]
    alerts, actions = watcher_traffic(verdicts)
    assert set(alerts) == {t.signal for t in DEFAULT_THRESHOLDS}
    assert set(actions) == {"restart", "scrub"}
    # The CLI's footer shows the same totals in every CI chaos step.
    footer = format_verdicts(verdicts).splitlines()[-3:-1]
    assert footer[0].startswith("alerts: group.backlog 1, ")
    assert footer[1] == (
        f"remediation: restart {actions['restart']}, scrub {actions['scrub']}"
    )

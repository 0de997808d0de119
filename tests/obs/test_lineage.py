"""Lineage audit: every protocol-layer trace event is attributable.

The span profiler can only stitch operations whose events carry a
lineage id, so this locks the invariant in: on a traced fault-free
update run, *no* ``dir`` / ``group`` / ``disk`` / ``nvram`` / ``bullet``
event may be anonymous. (Raw ``net`` frames are the one deliberate
exception — the transport is lineage-agnostic by design.)
"""

import pytest

from repro.obs import spans

AUDITED_CATEGORIES = ("dir", "group", "disk", "nvram", "bullet")


@pytest.mark.parametrize("scenario", ["update", "nvram-update"])
def test_every_update_path_event_carries_lineage(scenario):
    run = spans.record_update_trace(scenario, iterations=4, seed=0)
    assert run.events, "expected a non-empty trace"
    anonymous = [
        (e.cat, e.name)
        for e in run.events
        if e.cat in AUDITED_CATEGORIES and e.lineage is None
    ]
    assert anonymous == [], sorted(set(anonymous))


def test_audited_categories_actually_present():
    run = spans.record_update_trace("update", iterations=4, seed=0)
    seen = {e.cat for e in run.events}
    assert {"dir", "group", "disk"} <= seen

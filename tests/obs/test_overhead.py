"""What observability costs: nothing in the schedule when it records,
a few ticks when it watches, and a pinned bound when it is off.

The micro-test at the bottom is the pinned "zero-cost when disabled"
contract: if someone adds eager string formatting or dict allocation
before the enabled-check on a trace/metrics hot path, the per-call
cost blows the bound and this file fails.
"""

from repro.bench.harness import SCALES, run_loop
from repro.obs.overhead import disabled_path_micro

#: Per-call budget (ns) for the *disabled* obs hot paths. A guarded
#: no-op call is a few tens of ns on any modern box; an accidental
#: f-string or dict build pushes it past 1 µs. The bound is loose
#: enough for slow shared CI runners, tight enough to catch eager
#: allocation creep.
DISABLED_CALL_BUDGET_NS = 2_000.0


def _mixed(seed, **obs):
    return run_loop("mixed", **SCALES["small"], seed=seed, **obs)


def test_tracing_is_passive():
    """Enabling the tracer must not change the event schedule or the
    metrics — recording is observation, never participation."""
    traced = _mixed(2, trace=True)
    assert traced.fingerprint() == _mixed(2).fingerprint()
    # The traced run actually recorded something (it isn't vacuous).
    assert len(traced.events) > 0


def test_monitor_cost_is_accounted_events():
    """The health monitor is a real process: its cost shows up as extra
    scheduled events, not as hidden time."""
    extra = _mixed(0, monitor=True).sim._sequence - _mixed(0).sim._sequence
    assert 0 < extra < 1_000  # ticks, not a storm


def test_disabled_path_cost_under_bound():
    micro = disabled_path_micro(reps=20_000, rounds=3)
    for key in (
        "guard_check_ns",
        "disabled_emit_ns",
        "disabled_obs_emit_ns",
        "counter_inc_ns",
    ):
        assert micro[key] < DISABLED_CALL_BUDGET_NS, (
            f"{key} = {micro[key]} ns exceeds the "
            f"{DISABLED_CALL_BUDGET_NS} ns disabled-path budget — "
            "something allocates before the enabled-check"
        )
    # The guard itself must stay far cheaper than a full disabled emit
    # call (attribute read vs call + kwargs packing); 50 ns of slack
    # absorbs timer jitter on loaded runners.
    assert micro["guard_check_ns"] < micro["disabled_emit_ns"] * 5 + 50

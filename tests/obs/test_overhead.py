"""What observability costs: nothing in the schedule when it records,
a few ticks when it watches, and a pinned bound when it is off.

The micro-test at the bottom is the pinned "zero-cost when disabled"
contract: if someone adds eager string formatting or dict allocation
before the enabled-check on a trace/metrics hot path, the per-call
cost blows the bound and this file fails.
"""

from time import perf_counter_ns

from repro.bench.harness import SCALES, run_loop
from repro.sim.scheduler import Simulator

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


def disabled_path_micro(reps: int = 200_000, rounds: int = 5) -> dict:
    """ns/call for the disabled-observability hot paths (best-of-rounds).

    Measured against an empty-loop baseline of the same shape so the
    numbers are the *marginal* cost of the call, not of the loop.
    """
    sim = Simulator(seed=0)
    obs = sim.obs
    tracer = obs.tracer
    assert not tracer.enabled
    counter = obs.registry.counter("bench", "micro.ops")

    def timed(fn) -> float:
        best = None
        for _ in range(rounds):
            t0 = perf_counter_ns()
            fn()
            dt = perf_counter_ns() - t0
            if best is None or dt < best:
                best = dt
        return best / reps

    r = range(reps)

    def loop_empty():
        for _ in r:
            pass

    def loop_guard():
        for _ in r:
            if tracer.enabled:
                pass

    def loop_emit():
        for _ in r:
            tracer.emit("node", "cat", "name", detail=1)

    def loop_obs_emit():
        for _ in r:
            obs.emit("node", "cat", "name", detail=1)

    def loop_counter():
        for _ in r:
            counter.inc()

    empty = timed(loop_empty)
    return {
        "reps": reps,
        "rounds": rounds,
        "empty_loop_ns": round(empty, 2),
        "guard_check_ns": round(max(0.0, timed(loop_guard) - empty), 2),
        "disabled_emit_ns": round(max(0.0, timed(loop_emit) - empty), 2),
        "disabled_obs_emit_ns": round(max(0.0, timed(loop_obs_emit) - empty), 2),
        "counter_inc_ns": round(max(0.0, timed(loop_counter) - empty), 2),
    }


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

"""The cost of observability when it is off.

The obs stack's contract since it landed has been "zero cost when
disabled": a disabled tracer is one attribute read at each call site,
and the health monitor only exists when started.
:func:`disabled_path_micro` times the disabled hot paths themselves
(guarded ``tracer.emit``, the ``enabled`` guard read, ``obs.emit``, a
counter increment) in ns/call; tests/obs/test_overhead.py pins them
under a bound, so an accidentally eager format string or dict
allocation on the disabled path fails CI. What tracing and the monitor
cost when *on* is the ledger's ``trace.overhead_x`` and
``benchmarks/bench_sim.py``'s obs-on/obs-off pair.
"""

from __future__ import annotations

from time import perf_counter_ns


def disabled_path_micro(reps: int = 200_000, rounds: int = 5) -> dict:
    """ns/call for the disabled-observability hot paths (best-of-rounds).

    Measured against an empty-loop baseline of the same shape so the
    numbers are the *marginal* cost of the call, not of the loop.
    """
    from repro.sim.scheduler import Simulator

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

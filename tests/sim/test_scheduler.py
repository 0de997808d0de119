"""Unit tests for the Simulator event loop and processes."""

import pytest

from repro.errors import Interrupted, SimulationError, TimeoutError as SimTimeout
from repro.sim import Simulator
from repro.sim.future import Future


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 5.0

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_run_until_runs_the_instant_and_keeps_what_lies_past_it(self):
        sim = Simulator()
        order = []
        for when, tag in [(1.0, "a"), (2.0, "at"), (3.0, "b"), (3.0, "c"), (5.0, "d")]:
            sim.schedule(when, lambda tag=tag: order.append(tag))
        scheduled = sim._sequence
        entries = sorted(sim._heap)
        assert sim.run(until=2.0) == 2.0
        assert order == ["a", "at"]  # an event at exactly `until` runs
        # The first event past `until` went back as it was: same key,
        # same entry, and no sequence number spent on the push-back.
        assert sim._sequence == scheduled
        assert sorted(sim._heap) == entries[2:]
        assert sim.run(until=2.5) == 2.5
        assert sim._sequence == scheduled and order == ["a", "at"]
        sim.schedule(0.5, lambda: order.append("later"))  # also at 3.0
        sim.run()
        assert order == ["a", "at", "b", "c", "later", "d"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_cancelled_timer_does_not_fire(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, lambda: fired.append(True))
        timer.cancel()
        sim.run()
        assert fired == []

    def test_settled_timeouts_leave_a_bounded_heap(self):
        """Regression: every settled ``sim.timeout`` left its cancelled
        Timer (closure and wrapped future attached) in the heap until
        the deadline; 10k RPCs with a 4 s reply timeout kept 10k dead
        entries."""
        sim = Simulator()

        def caller():
            for _ in range(10_000):
                yield sim.timeout(sim.sleep(0.1), 4_000.0)
                assert len(sim._heap) <= 4

        sim.run_until_complete(sim.spawn(caller()))
        assert sim.now < 4_000.0  # none of the deadlines has come up
        assert all(timer.cancelled for _, _, timer, _ in sim._heap)

    def test_purging_cancelled_timers_keeps_the_schedule(self):
        """Cancelling most of the heap rebuilds it mid-run; what is
        left still fires in (when, scheduling order)."""

        def run(cancel):
            sim = Simulator()
            order = []
            timers = [
                sim.schedule(1.0 + i % 7, lambda i=i: order.append(i))
                for i in range(100)
            ]
            # From inside an event, so the run loop is mid-iteration.
            sim.call_soon(
                lambda: [timers[i].cancel() for i in range(100) if i % 4]
                if cancel else None
            )
            sim.run()
            return order

        kept = [i for i in run(cancel=False) if i % 4 == 0]
        assert run(cancel=True) == kept

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        fired = []
        timers = [sim.schedule(1.0, lambda: fired.append(1)) for _ in range(3)]
        keeper = sim.schedule(5.0, lambda: fired.append(2))
        sim.run(until=2.0)
        for timer in timers:
            timer.cancel()
            timer.cancel()
        sim.run()
        assert fired == [1, 1, 1, 2]
        assert not keeper.cancelled

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(100.0, lambda: fired.append(True))
        sim.run(until=50.0)
        assert sim.now == 50.0
        assert fired == []
        sim.run()
        assert fired == [True]

    def test_run_until_advances_idle_clock(self):
        sim = Simulator()
        sim.run(until=123.0)
        assert sim.now == 123.0

    def test_event_scheduled_during_run_executes(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: order.append("nested")))
        sim.run()
        assert order == ["nested"]
        assert sim.now == 2.0

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.call_soon(rearm)

        sim.call_soon(rearm)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(max_events=100)


class TestSleepAndTimeout:
    def test_sleep_resolves_at_deadline(self):
        sim = Simulator()
        fut = sim.sleep(10.0)
        sim.run()
        assert fut.resolved
        assert sim.now == 10.0

    def test_a_bare_sleep_is_resumed_inside_its_own_timer_event(self):
        sim = Simulator()
        order = []

        def sleeper():
            yield sim.sleep(5.0)
            order.append("sleeper")

        sim.spawn(sleeper())
        sim.run(until=1.0)
        sim.schedule(4.0, lambda: order.append("later"))  # t=5, behind the timer
        scheduled = sim._sequence
        sim.run()
        assert order == ["sleeper", "later"]
        assert sim._sequence == scheduled  # no second event for the wakeup

    def test_a_sleep_with_a_second_waiter_keeps_the_posted_wakeup(self):
        sim = Simulator()
        order = []

        def sleeper(fut):
            yield fut
            order.append("sleeper")

        shared = sim.sleep(5.0)
        sim.spawn(sleeper(shared))
        raced = sim.spawn(sleeper(sim.timeout(sim.sleep(5.0), 10.0)))
        sim.run(until=1.0)
        shared.add_callback(lambda fut: order.append("watcher"))
        sim.schedule(4.0, lambda: order.append("later"))
        sim.run()
        assert order == ["watcher", "later", "sleeper", "sleeper"]
        assert raced.resolved and shared.value is None

    def test_timeout_fires_when_future_is_slow(self):
        sim = Simulator()
        slow = Future("slow")
        wrapped = sim.timeout(slow, 5.0, reason="too slow")
        sim.schedule(10.0, lambda: slow.resolve_if_pending("late"))
        sim.run()
        assert isinstance(wrapped.exception, SimTimeout)

    def test_timeout_passes_value_when_fast(self):
        sim = Simulator()
        fast = Future("fast")
        wrapped = sim.timeout(fast, 5.0)
        sim.schedule(1.0, lambda: fast.resolve("quick"))
        sim.run()
        assert wrapped.value == "quick"

    def test_timeout_propagates_failure(self):
        sim = Simulator()
        failing = Future()
        wrapped = sim.timeout(failing, 5.0)
        sim.schedule(1.0, lambda: failing.fail(ValueError("x")))
        sim.run()
        assert isinstance(wrapped.exception, ValueError)


class TestProcesses:
    def test_process_returns_generator_value(self):
        sim = Simulator()

        def proc():
            yield sim.sleep(3.0)
            return "done"

        process = sim.spawn(proc(), "p")
        result = sim.run_until_complete(process)
        assert result == "done"
        assert sim.now == 3.0

    def test_spawn_rejects_non_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="generator"):
            sim.spawn(lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_future_fails_process(self):
        sim = Simulator()

        def proc():
            yield 42  # type: ignore[misc]

        process = sim.spawn(proc())
        sim.run()
        assert isinstance(process.exception, SimulationError)

    def test_exception_in_process_captured(self):
        sim = Simulator()

        def proc():
            yield sim.sleep(1.0)
            raise RuntimeError("inner")

        process = sim.spawn(proc())
        sim.run()
        assert isinstance(process.exception, RuntimeError)

    def test_future_failure_raised_inside_process(self):
        sim = Simulator()
        doomed = Future()
        sim.schedule(1.0, lambda: doomed.fail(KeyError("gone")))
        caught = []

        def proc():
            try:
                yield doomed
            except KeyError as exc:
                caught.append(exc)
            return "recovered"

        process = sim.spawn(proc())
        assert sim.run_until_complete(process) == "recovered"
        assert len(caught) == 1

    def test_processes_can_join_each_other(self):
        sim = Simulator()

        def child():
            yield sim.sleep(5.0)
            return 99

        def parent():
            value = yield sim.spawn(child(), "child")
            return value + 1

        process = sim.spawn(parent(), "parent")
        assert sim.run_until_complete(process) == 100

    def test_kill_runs_finally_blocks(self):
        sim = Simulator()
        cleaned = []

        def proc():
            try:
                yield sim.sleep(100.0)
            finally:
                cleaned.append(True)

        process = sim.spawn(proc())
        sim.run(until=1.0)
        process.kill("crash")
        assert cleaned == [True]
        assert isinstance(process.exception, Interrupted)

    def test_killed_process_does_not_resume(self):
        sim = Simulator()
        progressed = []

        def proc():
            yield sim.sleep(10.0)
            progressed.append(True)

        process = sim.spawn(proc())
        sim.run(until=1.0)
        process.kill()
        sim.run()
        assert progressed == [] and sim.now == 10.0  # the timer still fired

    def test_join_killed_process_raises_interrupted(self):
        sim = Simulator()

        def child():
            yield sim.sleep(100.0)

        def parent(child_proc):
            try:
                yield child_proc
            except Interrupted:
                return "child died"
            return "child finished"

        child_proc = sim.spawn(child(), "child")
        parent_proc = sim.spawn(parent(child_proc), "parent")
        sim.schedule(1.0, lambda: child_proc.kill())
        assert sim.run_until_complete(parent_proc) == "child died"

    def test_run_until_complete_detects_deadlock(self):
        sim = Simulator()

        def proc():
            yield Future("never")

        process = sim.spawn(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(process)

    def test_alive_processes_listing(self):
        sim = Simulator()

        def proc():
            yield sim.sleep(10.0)

        process = sim.spawn(proc())
        assert process in sim.alive_processes()
        sim.run()
        assert process not in sim.alive_processes()

    def test_finished_processes_are_dropped(self):
        """The simulator holds live processes only: resolved, failed
        and killed ones all leave, so a long run does not keep every
        per-flush helper process it ever spawned."""
        sim = Simulator()

        def short():
            yield sim.sleep(1.0)

        def failing():
            yield sim.sleep(1.0)
            raise ValueError("boom")

        def forever():
            while True:
                yield sim.sleep(1.0)

        for _ in range(1_000):
            sim.spawn(short())
        sim.spawn(failing())
        victim = sim.spawn(forever(), "victim")
        survivor = sim.spawn(forever(), "survivor")
        sim.run(until=5.0)
        victim.kill()
        assert sim.alive_processes() == [survivor]
        assert len(sim._processes) == 1

    def test_alive_processes_keep_spawn_order(self):
        sim = Simulator()

        def proc(ms):
            yield sim.sleep(ms)

        a, b, c = (sim.spawn(proc(ms)) for ms in (30.0, 10.0, 20.0))
        assert sim.alive_processes() == [a, b, c]
        sim.run(until=15.0)
        assert sim.alive_processes() == [a, c]


class TestDeterminism:
    def test_identical_seeds_produce_identical_traces(self):
        def build_and_run(seed):
            sim = Simulator(seed=seed)
            trace = []
            rng = sim.rng.stream("worker")

            def worker(i):
                for _ in range(5):
                    yield sim.sleep(rng.uniform(0.1, 2.0))
                    trace.append((sim.now, f"worker {i} tick"))

            for i in range(4):
                sim.spawn(worker(i), f"w{i}")
            sim.run()
            return trace

        assert build_and_run(7) == build_and_run(7)

    def test_different_seeds_diverge(self):
        def final_time(seed):
            sim = Simulator(seed=seed)

            def worker():
                yield sim.sleep(sim.rng.uniform("w", 1.0, 100.0))

            sim.spawn(worker())
            sim.run()
            return sim.now

        assert final_time(1) != final_time(2)

    def test_rng_streams_are_independent(self):
        sim = Simulator(seed=3)
        first_a = sim.rng.uniform("a", 0, 1)
        # Draw from another stream, then again from "a": interleaving
        # another stream must not change "a"'s sequence.
        sim2 = Simulator(seed=3)
        assert sim2.rng.uniform("a", 0, 1) == first_a
        sim2.rng.uniform("b", 0, 1)
        sim3 = Simulator(seed=3)
        sim3.rng.uniform("a", 0, 1)
        assert sim2.rng.uniform("a", 0, 1) == sim3.rng.uniform("a", 0, 1)

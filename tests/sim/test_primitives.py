"""Unit tests for Condition, Semaphore and Mutex."""

import pytest

from repro.errors import Interrupted, SimulationError
from repro.sim import Condition, Mutex, Semaphore, Simulator


class TestCondition:
    def test_notify_wakes_all_waiters(self):
        cond = Condition()
        a, b = cond.wait(), cond.wait()
        assert cond.notify_all("v") == 2
        assert a.value == "v" and b.value == "v"

    def test_waiter_registered_after_notify_stays_pending(self):
        cond = Condition()
        cond.notify_all()
        fut = cond.wait()
        assert not fut.resolved

    def test_wait_until_rechecks_predicate(self):
        sim = Simulator()
        cond = Condition()
        state = {"ready": False}

        def waiter():
            yield from cond.wait_until(lambda: state["ready"])
            return "woken"

        def setter():
            yield sim.sleep(1.0)
            cond.notify_all()  # spurious: predicate still false
            yield sim.sleep(1.0)
            state["ready"] = True
            cond.notify_all()

        process = sim.spawn(waiter())
        sim.spawn(setter())
        assert sim.run_until_complete(process) == "woken"
        assert sim.now == 2.0

    def test_wait_until_true_predicate_returns_immediately(self):
        sim = Simulator()
        cond = Condition()

        def waiter():
            yield from cond.wait_until(lambda: True)
            return "fast"

        assert sim.run_until_complete(sim.spawn(waiter())) == "fast"


class TestSemaphore:
    def test_initial_value_enforced(self):
        with pytest.raises(SimulationError):
            Semaphore(-1)

    def test_acquire_below_capacity_is_immediate(self):
        sem = Semaphore(2)
        assert sem.acquire().resolved
        assert sem.acquire().resolved
        assert not sem.acquire().resolved

    def test_release_wakes_fifo(self):
        sem = Semaphore(0)
        first, second = sem.acquire(), sem.acquire()
        sem.release()
        assert first.resolved and not second.resolved
        sem.release()
        assert second.resolved

    def test_try_acquire(self):
        sem = Semaphore(1)
        assert sem.try_acquire()
        assert not sem.try_acquire()
        sem.release()
        assert sem.try_acquire()

    def test_release_without_waiters_increments(self):
        sem = Semaphore(0)
        sem.release()
        assert sem._value == 1

    def test_release_skips_interrupted_waiters(self):
        sem = Semaphore(0)
        first, second = sem.acquire(), sem.acquire()
        first.interrupt()
        sem.release()
        assert second.resolved

    def test_abandon_pending_waiter_is_skipped_by_release(self):
        sem = Semaphore(0)
        dead, live = sem.acquire(), sem.acquire()
        sem.abandon(dead)
        assert isinstance(dead.exception, Interrupted)
        sem.release()
        assert live.resolved

    def test_abandon_granted_unit_is_returned(self):
        sem = Semaphore(1)
        held = sem.acquire()
        assert held.resolved
        sem.abandon(held)  # holder died between grant and its next step
        assert sem._value == 1

    def test_abandon_failed_future_returns_nothing(self):
        sem = Semaphore(0)
        fut = sem.acquire()
        fut.interrupt()
        sem.abandon(fut)
        assert sem._value == 0

    def test_killed_waiter_does_not_leak_the_unit(self):
        # Regression: a process killed while queued in acquire() left a
        # pending future in the waiter deque; release() then granted the
        # unit to the corpse and every later acquirer blocked forever.
        sim = Simulator()
        sem = Semaphore(1, "arm")
        order = []

        def holder():
            yield from sem.acquire_gen()
            try:
                yield sim.sleep(5.0)
            finally:
                sem.release()

        def doomed():
            yield from sem.acquire_gen()
            try:
                order.append("doomed ran")
            finally:
                sem.release()

        def survivor():
            yield from sem.acquire_gen()
            try:
                order.append("survivor ran")
            finally:
                sem.release()

        sim.spawn(holder())
        victim = sim.spawn(doomed())
        last = sim.spawn(survivor())

        def killer():
            yield sim.sleep(1.0)  # doomed is now queued behind holder
            victim.kill("machine crash")

        sim.spawn(killer())
        sim.run_until_complete(last)
        assert order == ["survivor ran"]
        assert sem._value == 1

    def test_killed_holder_still_releases_via_finally(self):
        sim = Simulator()
        sem = Semaphore(1)

        def holder():
            yield from sem.acquire_gen()
            try:
                yield sim.sleep(10.0)
            finally:
                sem.release()

        victim = sim.spawn(holder())

        def killer():
            yield sim.sleep(1.0)
            victim.kill("crash while holding")

        sim.spawn(killer())
        sim.run()
        assert sem._value == 1


class TestMutex:
    def test_held_flag(self):
        mutex = Mutex()
        assert not mutex.held
        mutex.acquire()
        assert mutex.held
        mutex.release()
        assert not mutex.held

    def test_mutual_exclusion_in_processes(self):
        sim = Simulator()
        mutex = Mutex()
        active = {"count": 0, "max": 0}

        def worker():
            yield mutex.acquire()
            active["count"] += 1
            active["max"] = max(active["max"], active["count"])
            yield sim.sleep(1.0)
            active["count"] -= 1
            mutex.release()

        for _ in range(5):
            sim.spawn(worker())
        sim.run()
        assert active["max"] == 1
        assert sim.now == 5.0


class TestLatencyModel:
    def test_paper_testbed_disk_write_is_tens_of_ms(self):
        from repro.sim import LatencyModel

        model = LatencyModel.paper_testbed()
        t = model.disk.random_ms(1024)
        assert 25.0 < t < 45.0

    def test_cached_write_is_fast(self):
        from repro.sim import LatencyModel

        model = LatencyModel.paper_testbed()
        assert model.disk.cached_ms(1024) < 5.0

    def test_network_transmit_scales_with_size(self):
        from repro.sim import LatencyModel

        net = LatencyModel.paper_testbed().network
        assert net.transmit_time(10_000) > net.transmit_time(100)


class TestSemaphoreMeter:
    """The busy/wait/grants/queue-depth accounting a metered semaphore
    publishes (the capacity attributor's raw material)."""

    def make_metered(self, capacity=1):
        from repro.obs import MetricsRegistry
        from repro.sim.primitives import SemaphoreMeter

        holder = {"now": 0.0}
        registry = MetricsRegistry(clock=lambda: holder["now"])
        sem = Semaphore(capacity, "res")
        sem.meter = SemaphoreMeter(
            registry, "n0", "res", clock=lambda: holder["now"]
        )
        return holder, sem, sem.meter

    def test_uncontended_hold_charges_busy_time(self):
        holder, sem, meter = self.make_metered()
        assert sem.acquire().resolved
        assert meter.depth.value == 1
        holder["now"] = 4.0
        sem.release()
        assert meter.busy.value == 4.0
        assert meter.wait.value == 0.0
        assert meter.grants.value == 1
        assert meter.depth.value == 0

    def test_try_acquire_is_metered(self):
        holder, sem, meter = self.make_metered()
        assert sem.try_acquire()
        holder["now"] = 2.0
        sem.release()
        assert meter.busy.value == 2.0
        assert meter.grants.value == 1

    def test_handoff_continues_busy_and_departs_the_holder(self):
        holder, sem, meter = self.make_metered()
        sem.acquire()
        queued = sem.acquire()
        assert not queued.resolved
        assert meter.depth.value == 2  # one holder + one waiter
        holder["now"] = 3.0
        sem.release()  # handoff: the unit never goes free
        assert queued.resolved
        assert meter.wait.value == 3.0
        assert meter.grants.value == 2
        # Regression: the departing holder must leave the gauge — a
        # handoff changes WHO holds the unit, not how many are queued.
        assert meter.depth.value == 1
        holder["now"] = 7.0
        sem.release()
        # One continuous busy interval 0..7, not two fragments.
        assert meter.busy.value == 7.0
        assert meter.depth.value == 0

    def test_abandoned_waiter_leaves_the_queue_without_a_grant(self):
        holder, sem, meter = self.make_metered()
        sem.acquire()
        holder["now"] = 1.0
        queued = sem.acquire()
        assert meter.depth.value == 2
        holder["now"] = 5.0
        sem.abandon(queued)
        assert meter.depth.value == 1
        assert meter.grants.value == 1  # no grant for the corpse
        assert meter.wait.value == 0.0  # partial wait dropped
        sem.release()
        assert meter.busy.value == 5.0
        assert meter.depth.value == 0

    def test_capacity_two_busy_is_the_interval_union(self):
        holder, sem, meter = self.make_metered(capacity=2)
        sem.acquire()
        holder["now"] = 1.0
        sem.acquire()
        holder["now"] = 3.0
        sem.release()  # one unit still held: interval continues
        assert meter.busy.value == 0.0
        holder["now"] = 5.0
        sem.release()
        assert meter.busy.value == 5.0  # union 0..5, not 3 + 4

    def test_unmetered_semaphore_publishes_nothing(self):
        sem = Semaphore(1, "plain")
        assert sem.meter is None
        sem.acquire()
        sem.release()  # no AttributeError: meter hooks are all guarded


class TestAcquireInPlace:
    """``acquire_gen`` takes a free unit without yielding; only a
    contended acquire builds a future and waits for a posted grant."""

    def test_a_free_unit_schedules_nothing(self):
        sim = Simulator(seed=0)
        sem = Semaphore(1, "res")
        seen = []

        def user():
            before = sim._sequence
            yield from sem.acquire_gen()
            seen.append(sim._sequence - before)
            sem.release()

        sim.run_until_complete(sim.spawn(user()))
        assert seen == [0]
        gen = sem.acquire_gen()
        with pytest.raises(StopIteration):
            next(gen)  # granted on the spot: the generator never yields
        assert sem._value == 0

    def test_a_mix_of_free_and_contended_grants_is_metered_exactly(self):
        from repro.sim.primitives import SemaphoreMeter

        sim = Simulator(seed=0)
        sem = Semaphore(1, "res")
        meter = sem.meter = SemaphoreMeter(
            sim.obs.registry, "n0", "res", clock=lambda: sim.now
        )

        def user(start, hold):
            yield sim.sleep(start)
            yield from sem.acquire_gen()
            try:
                yield sim.sleep(hold)
            finally:
                sem.release()

        # (arrival, hold): free at 0, queued 1..3, free at 6, queued 6.5..7.
        for start, hold in [(0.0, 3.0), (1.0, 2.0), (6.0, 1.0), (6.5, 1.0)]:
            sim.spawn(user(start, hold))
        sim.run(until=10.0)
        assert meter.busy.value == pytest.approx(5.0 + 2.0)  # [0,5] + [6,8]
        assert meter.wait.value == pytest.approx(2.0 + 0.5)
        assert meter.grants.value == 4
        # Holders + waiters: 1 on [0,1), 2 on [1,3), 1 on [3,5), 0 on
        # [5,6), 1 on [6,6.5), 2 on [6.5,7), 1 on [7,8), then 0.
        assert meter.depth.value == 0
        assert meter.depth.area() == pytest.approx(1 + 4 + 2 + 0.5 + 1 + 1)

"""Unit tests for the CPU resource."""

import pytest

from repro.sim import Simulator
from repro.sim.resources import Cpu


def make():
    sim = Simulator(seed=0)
    return sim, Cpu(sim, "cpu0")


def grants_at_once(sim, cpu) -> bool:
    """Nothing holds *cpu*: a 1 ms use asked for now ends 1 ms later."""
    asked = sim.now
    sim.run_until_complete(sim.spawn(cpu.use(1.0)))
    return sim.now == asked + 1.0


class TestCpu:
    def test_single_use_charges_time(self):
        sim, cpu = make()

        def work():
            yield from cpu.use(5.0)

        sim.run_until_complete(sim.spawn(work()))
        assert sim.now == 5.0
        assert sim.obs.registry.counter("cpu0", "cpu.busy_ms").value == 5.0

    def test_zero_duration_is_free(self):
        sim, cpu = make()

        def work():
            yield from cpu.use(0.0)

        sim.run_until_complete(sim.spawn(work()))
        assert sim.now == 0.0

    def test_contending_processes_serialize(self):
        sim, cpu = make()
        finish_times = []

        def work(tag):
            yield from cpu.use(3.0)
            finish_times.append((tag, sim.now))

        for i in range(4):
            sim.spawn(work(i))
        sim.run()
        assert sim.now == pytest.approx(12.0)
        # FIFO: completion order equals spawn order.
        assert [tag for tag, _ in finish_times] == [0, 1, 2, 3]
        assert [t for _, t in finish_times] == pytest.approx([3.0, 6.0, 9.0, 12.0])

    def test_idle_flag(self):
        sim, cpu = make()
        assert grants_at_once(sim, cpu)

        def work():
            yield from cpu.use(2.0)

        sim.spawn(work())
        sim.run(until=sim.now + 1.0)
        assert not grants_at_once(sim, cpu)
        assert grants_at_once(sim, cpu)

    def test_utilization(self):
        sim, cpu = make()

        def work():
            yield from cpu.use(4.0)
            yield sim.sleep(6.0)  # off-CPU time

        sim.run_until_complete(sim.spawn(work()))
        busy = sim.obs.registry.counter("cpu0", "cpu.busy_ms").value
        assert busy / sim.now == pytest.approx(0.4)

    def test_sleeping_does_not_hold_cpu(self):
        """Blocking on I/O (plain sleep) must not serialize with CPU."""
        sim, cpu = make()
        done = []

        def cpu_bound():
            yield from cpu.use(3.0)
            done.append(("cpu", sim.now))

        def io_bound():
            yield sim.sleep(3.0)
            done.append(("io", sim.now))

        sim.spawn(io_bound())
        sim.spawn(cpu_bound())
        sim.run()
        assert sim.now == pytest.approx(3.0)  # fully overlapped
        assert len(done) == 2

    def test_kill_while_queued_does_not_wedge_cpu(self):
        # Regression: the CPU belongs to the machine and survives a
        # server crash. Killing a process queued for the CPU used to
        # hand the next grant to the corpse, wedging the machine for
        # every restarted server that shared the transport.
        sim, cpu = make()
        done = []

        def long_job():
            yield from cpu.use(10.0)

        def queued_job():
            yield from cpu.use(1.0)
            done.append("queued ran")

        def later_job():
            yield from cpu.use(1.0)
            done.append("later ran")

        sim.spawn(long_job())
        victim = sim.spawn(queued_job())
        sim.spawn(later_job())

        def killer():
            yield sim.sleep(2.0)
            victim.kill("server crash")

        sim.spawn(killer())
        sim.run()
        assert done == ["later ran"]
        assert grants_at_once(sim, cpu)


class TestCpuMetrics:
    """The registry instruments a Cpu publishes (satellite of the
    saturation observatory): the mutex meter's busy/grants accounting.
    A window's busy fraction is read from ``cpu.busy_ms``; there is no
    utilization gauge."""

    def test_busy_counter_tracks_busy_fraction(self):
        sim, cpu = make()

        def work():
            yield sim.sleep(5.0)
            yield from cpu.use(5.0)

        sim.run_until_complete(sim.spawn(work()))
        # 5 ms busy out of 10 ms elapsed.
        registry = sim.obs.registry
        busy = registry.counter("cpu0", "cpu.busy_ms")
        assert busy.value / sim.now == pytest.approx(0.5)
        assert "cpu.utilization" not in registry.snapshot()["cpu0"]["gauges"]

    def test_mutex_meter_publishes_busy_and_grants(self):
        sim, cpu = make()

        def work(tag):
            yield from cpu.use(3.0)

        for i in range(2):
            sim.spawn(work(i))
        sim.run()
        registry = sim.obs.registry
        assert registry.counter("cpu0", "cpu.busy_ms").value == pytest.approx(6.0)
        assert registry.counter("cpu0", "cpu.grants").value == 2
        # The second process queued behind the first for its whole slice.
        assert registry.counter("cpu0", "cpu.wait_ms").value == pytest.approx(3.0)
        assert registry.gauge("cpu0", "cpu.queue_depth").value == 0


class TestKillWhileHolding:
    """A process killed while it *holds* a metered unit (the CPU, the
    disk arm) gives it back at the kill instant: its ``finally``
    releases it, the next queued waiter is granted then, and the meter
    reads as if the holder had finished at that instant. A free unit is
    taken in place by ``Semaphore.acquire_gen``, which books the meter
    inline; these pin that bookkeeping."""

    @staticmethod
    def _run(sim, hold, node, prefix):
        """A 10 ms holder from 0 ms, a 3 ms waiter queued at 1 ms, the
        holder killed at 4 ms; returns the waiter's end and the meter."""
        ends = []

        def waiter():
            yield sim.sleep(1.0)
            yield from hold(3.0)
            ends.append(sim.now)

        holder = sim.spawn(hold(10.0))
        sim.spawn(waiter())

        def killer():
            yield sim.sleep(4.0)
            holder.kill("machine crash")

        sim.spawn(killer())
        sim.run()
        registry = sim.obs.registry
        return ends, {
            "busy_ms": registry.counter(node, prefix + ".busy_ms").value,
            "wait_ms": registry.counter(node, prefix + ".wait_ms").value,
            "grants": registry.counter(node, prefix + ".grants").value,
            "depth": registry.gauge(node, prefix + ".queue_depth"),
        }

    @staticmethod
    def _check(ends, meter, service_ms):
        assert ends == [pytest.approx(4.0 + service_ms)]  # granted at the kill
        assert meter["busy_ms"] == pytest.approx(4.0 + service_ms)
        assert meter["wait_ms"] == pytest.approx(3.0)
        assert meter["grants"] == 2
        depth = meter["depth"]
        assert depth.value == 0 and depth.maximum == 2
        # Depth 1 on [0, 1], 2 on [1, 4], 1 while the waiter is served.
        assert depth.area() == pytest.approx(1.0 + 6.0 + service_ms)

    def test_cpu(self):
        sim, cpu = make()
        ends, meter = self._run(sim, cpu.use, "cpu0", "cpu")
        self._check(ends, meter, 3.0)
        assert grants_at_once(sim, cpu)

    def test_disk_arm(self):
        from repro.storage.disk import BLOCK_SIZE, Disk

        sim = Simulator(seed=0)
        disk = Disk(sim, "d0")
        # Every write below takes the disk's own service time, and the
        # kill at 4 ms lands inside the holder's.
        service_ms = disk.latency.random_ms(BLOCK_SIZE)
        assert service_ms > 4.0
        ends, meter = self._run(
            sim, lambda _ms: disk.write_block(0, b"x"), "d0", "disk.arm"
        )
        self._check(ends, meter, service_ms)
        assert disk.peek_block(0) == b"x"  # the waiter's write landed

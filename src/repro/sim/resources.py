"""Machine-local resources: the CPU.

Server machines in the paper are single-CPU Sun3/60s, so CPU-bound
request processing serializes no matter how many server threads are
listening. :class:`Cpu` models that: processing steps occupy the CPU
exclusively (FIFO), while time spent blocked on disk or network does
not hold the CPU.
"""

from __future__ import annotations

from repro.sim.primitives import Semaphore, SemaphoreMeter
from repro.sim.scheduler import Simulator


class Cpu:
    """FIFO-serialized processor time for one machine.

    Every CPU is metered: ``cpu.busy_ms`` / ``cpu.wait_ms`` /
    ``cpu.grants`` / ``cpu.queue_depth`` under *node* feed the capacity
    attributor (docs/OBSERVABILITY.md §10).
    """

    def __init__(self, sim: Simulator, name: str = "cpu", node: str | None = None):
        self.sim = sim
        self.name = name
        self.node = node or name
        self._mutex = Semaphore(1, f"{name}.mutex")
        self._mutex.meter = SemaphoreMeter(sim.obs.registry, self.node, "cpu")

    def use(self, duration: float):
        """Occupy the CPU for *duration* ms (``yield from cpu.use(3.0)``)."""
        if duration <= 0.0:
            return
        # acquire_gen, not acquire: the CPU belongs to the machine and
        # outlives a crashed server process — a kill while queued for
        # the CPU must not leak it (the restarted server shares it).
        yield from self._mutex.acquire_gen()
        try:
            yield self.sim.sleep(duration)
        finally:
            self._mutex.release()

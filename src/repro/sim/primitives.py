"""Synchronization primitives built on futures.

These mirror the facilities the Amoeba servers use: condition-style
wakeups (a group thread blocking until the kernel has a message to
deliver), semaphores (a CPU, the disk arm) and
mutual exclusion for the RPC service's conflict detection.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque

from repro.errors import SimulationError
from repro.sim.future import Future

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry


class SemaphoreMeter:
    """Busy/wait accounting for a semaphore-guarded resource.

    Attached to a :class:`Semaphore` (``sem.meter = SemaphoreMeter(...)``)
    it publishes four metrics under *node* in the registry:

    - ``<prefix>.busy_ms`` — counter: sim-time some unit was held.  For a
      capacity-1 semaphore (the only kind we meter: CPU mutex, disk arm)
      the busy-interval union equals the per-hold sum, so the windowed
      delta divided by the window is the resource's utilization rho.
    - ``<prefix>.wait_ms`` — counter: sim-time acquirers spent queued
      before their grant (service time excluded).
    - ``<prefix>.grants`` — counter: completed grants (= completions for
      Little's-law checks; a handoff from releaser to waiter counts).
    - ``<prefix>.queue_depth`` — gauge: holders + waiters right now; its
      time-weighted window mean is Little's L for the resource.

    Abandoned waiters (process killed while queued) leave the queue
    without being granted; their partial wait is dropped, which keeps
    the wait counter meaning "wait of completed grants".

    Time is read from the registry's clock (the simulator's ``now``),
    and the counters are bumped in place: a grant or release costs no
    call beyond the depth gauge's.
    """

    __slots__ = ("_clock", "busy", "wait", "grants", "depth",
                 "_in_use", "_busy_since", "_waiting")

    def __init__(self, registry: "MetricsRegistry", node: str, prefix: str):
        self._clock = registry.clock
        self.busy = registry.counter(node, prefix + ".busy_ms")
        self.wait = registry.counter(node, prefix + ".wait_ms")
        self.grants = registry.counter(node, prefix + ".grants")
        self.depth = registry.gauge(node, prefix + ".queue_depth")
        self._in_use = 0
        self._busy_since = 0.0
        self._waiting: dict[Future, float] = {}

    def note_granted(self) -> None:
        """A free unit was taken immediately (no queueing)."""
        self.grants.value += 1
        if self._in_use == 0:
            self._busy_since = self._clock.now
        self._in_use += 1
        self.depth.add(1)

    def note_enqueued(self, fut: Future) -> None:
        self._waiting[fut] = self._clock.now
        self.depth.add(1)

    def note_handoff(self, fut: Future) -> None:
        """A releasing holder handed its unit straight to *fut*.

        The unit never went free, so the busy interval continues and
        ``_in_use`` is unchanged; the departing holder still leaves the
        depth gauge (the waiter's own +1 now counts it as the holder).
        """
        started = self._waiting.pop(fut, None)
        if started is not None:
            self.wait.value += self._clock.now - started
        self.grants.value += 1
        self.depth.add(-1)

    def note_released(self) -> None:
        """A unit went back to the free pool (no waiter took it)."""
        self._in_use -= 1
        if self._in_use == 0:
            self.busy.value += self._clock.now - self._busy_since
        self.depth.add(-1)

    def note_abandoned(self, fut: Future) -> None:
        """A still-queued waiter was killed before its grant."""
        if self._waiting.pop(fut, None) is not None:
            self.depth.add(-1)


class Condition:
    """Broadcast condition variable.

    ``wait()`` returns a future that resolves at the next
    ``notify_all()``. A predicate-based helper avoids the classic
    missed-wakeup bug in generator processes.
    """

    def __init__(self, name: str = "condition"):
        self.name = name
        # Precomputed once: wait() runs on hot paths and the name is
        # debug-only, so it must not cost an f-string per call.
        self._wait_name = name + ".wait"
        self._waiters: list[Future] = []

    def wait(self) -> Future:
        """Future resolving at the next notify_all()."""
        fut = Future(self._wait_name)
        self._waiters.append(fut)
        return fut

    def notify_all(self, value: Any = None) -> int:
        """Wake every current waiter; returns how many were woken."""
        if not self._waiters:
            return 0
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            fut.resolve_if_pending(value)
        return len(waiters)

    def wait_until(self, predicate: Callable[[], bool]):
        """Generator helper: wait (re-checking at each notify) until true.

        Use as ``yield from condition.wait_until(lambda: ...)``.
        """
        while not predicate():
            yield self.wait()


class Semaphore:
    """Counting semaphore with FIFO wakeup order."""

    def __init__(self, value: int = 1, name: str = "semaphore"):
        if value < 0:
            raise SimulationError("semaphore initial value must be >= 0")
        self.name = name
        self._acquire_name = name + ".acquire"
        self._value = value
        self._waiters: Deque[Future] = deque()
        # Optional SemaphoreMeter; None keeps every path a single
        # attribute test so unmetered semaphores stay as cheap as before.
        self.meter: SemaphoreMeter | None = None

    def acquire(self) -> Future:
        """Future resolving once a unit is held."""
        fut = Future(self._acquire_name)
        if self._value > 0:
            self._value -= 1
            fut.resolve()
            if self.meter is not None:
                self.meter.note_granted()
        else:
            self._waiters.append(fut)
            if self.meter is not None:
                self.meter.note_enqueued(fut)
        return fut

    def try_acquire(self) -> bool:
        """Take a unit without blocking; False if none available."""
        if self._value > 0:
            self._value -= 1
            if self.meter is not None:
                self.meter.note_granted()
            return True
        return False

    def release(self) -> None:
        """Return a unit, waking the oldest waiter if any."""
        while self._waiters:
            fut = self._waiters.popleft()
            if fut.resolve_if_pending():
                if self.meter is not None:
                    self.meter.note_handoff(fut)
                return
        self._value += 1
        if self.meter is not None:
            self.meter.note_released()

    def abandon(self, fut: Future) -> None:
        """Disown an acquire whose process was killed (processor crash).

        A still-pending waiter is poisoned so :meth:`release` skips it;
        a unit that was granted but never consumed (the holder died
        between the grant and its next step) is returned. Without this,
        killing a process that is queued for the semaphore hands the
        next grant to a corpse and every later acquirer blocks forever.
        """
        if fut.resolved:
            if fut.exception is None:
                self.release()
            return
        if self.meter is not None:
            self.meter.note_abandoned(fut)
        fut.interrupt(f"{self.name} acquire abandoned")

    def acquire_gen(self):
        """Crash-safe acquire for generator processes.

        ``yield from sem.acquire_gen()`` takes a free unit in place (no
        future, no yield) and otherwise queues like yielding
        :meth:`acquire`, but if the waiting process is killed — its
        generator is closed, raising GeneratorExit at the yield — the
        grant is disowned via :meth:`abandon` instead of leaking.
        Use this whenever the acquiring process can be crashed while
        the semaphore guards state that outlives it (the disk arm, a
        machine CPU).
        """
        if self.try_acquire():
            return
        fut = self.acquire()
        try:
            yield fut
        except GeneratorExit:
            self.abandon(fut)
            raise


class Mutex(Semaphore):
    """Binary semaphore with held/free introspection."""

    def __init__(self, name: str = "mutex"):
        super().__init__(1, name)

    @property
    def held(self) -> bool:
        """True while some process holds the mutex."""
        return self._value == 0

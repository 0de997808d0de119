"""The simulator event loop.

:class:`Simulator` owns the simulated clock (a float, in milliseconds)
and a binary heap of scheduled callbacks. Processes
(:class:`repro.sim.process.Process`) are spawned onto a simulator and
advance whenever the futures they wait on settle.

Determinism: events scheduled for the same instant run in scheduling
order (a monotonically increasing tie-break counter), and all
randomness flows through :class:`repro.sim.randomness.RngStreams`, so a
run is a pure function of the seed.

One loop runs events (:meth:`Simulator._loop`): :meth:`Simulator.run`
stops it at a simulated instant, :meth:`Simulator.run_until_complete`
when a process settles. It pays nothing per event for observation;
host time is measured from outside by :mod:`repro.obs.hostprof`
(``cProfile``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError
from repro.errors import TimeoutError as SimTimeout
from repro.obs.trace import Observability
from repro.sim.future import _PENDING, _SETTLED, Future
from repro.sim.process import Process, Sleep
from repro.sim.randomness import RngStreams

#: Builds a :class:`Sleep` without running ``Future.__init__``.
_new_sleep = object.__new__


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("when", "cancelled", "_sim")

    def __init__(self, when: float, sim: "Simulator"):
        self.when = when
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already ran)."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._note_cancelled()


class Deadline(Future):
    """The future :meth:`Simulator.timeout` returns.

    It settles like the future it guards if that settles first, and
    fails with :class:`repro.errors.TimeoutError` if its timer fires
    first. One bound method, :meth:`_settle`, is both the timer's
    callback (no argument) and the guarded future's (the future).
    """

    __slots__ = ("_timer", "_reason")

    def _settle(self, inner: Future | None = None) -> None:
        if inner is None:  # the timer fired
            if self._value is _PENDING and self._exception is None:
                self.fail(SimTimeout(self._reason))
            return
        self._timer.cancel()
        if self._value is not _PENDING or self._exception is not None:
            return
        if inner._exception is not None:
            self.fail(inner._exception)
        else:
            self.resolve(inner._value)


class Simulator:
    """Discrete-event scheduler with a simulated millisecond clock."""

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        self.rng = RngStreams(seed)
        # Heap entries are (when, seq, timer, fn); timer is None for an
        # event nothing can cancel (a wakeup, a sleep, a delivery), which
        # skips the per-event Timer allocation entirely. Such entries are
        # pushed inline by their makers: :meth:`spawn`, :meth:`sleep`,
        # ``Process._on_future_settled``, ``Network._launch``,
        # ``RpcKernel._arm`` (the reply-deadline timer) and
        # ``GroupKernel._arm_send_watchdog``.
        self._heap: list[tuple[float, int, Timer | None, Callable[[], None]]] = []
        self._sequence = 0
        # Upper bound on the cancelled entries still in the heap: the
        # cancel() calls since the heap was last purged of them.
        self._cancelled = 0
        # Insertion-ordered set of the processes still running.
        self._processes: dict[Process, None] = {}
        #: Metrics registry + causal trace recorder (see repro.obs).
        self.obs = Observability(self)

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` after *delay* simulated milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        timer = Timer(self.now + delay, self)
        heapq.heappush(self._heap, (timer.when, self._sequence, timer, fn))
        self._sequence += 1
        return timer

    def _note_cancelled(self) -> None:
        """Purge cancelled entries once they are most of the heap.

        A cancelled entry otherwise stays (with its callback and
        everything the callback references) until its deadline comes
        up — every settled 4 s RPC timeout would sit there for 4 s.
        Pop order is fixed by ``(when, seq)``, so purging never changes
        a schedule. In place: the run loops hold the list.
        """
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            self._heap[:] = [
                entry for entry in self._heap
                if entry[2] is None or not entry[2].cancelled
            ]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def call_soon(self, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` at the current instant, after pending same-time events."""
        return self.schedule(0.0, fn)

    def sleep(self, delay: float) -> Future:
        """A future that resolves after *delay* simulated milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        # Built slot by slot: no Future.__init__ call, no callback list
        # (a process that yields it waits in its _process slot).
        fut = _new_sleep(Sleep)
        fut._value = _PENDING
        fut._exception = None
        fut._callbacks = _SETTLED
        fut.name = "sleep"
        fut._process = None
        heapq.heappush(self._heap, (self.now + delay, self._sequence, None, fut._fire))
        self._sequence += 1
        return fut

    def timeout(self, fut: Future, delay: float, reason: str = "timeout") -> Future:
        """Wrap *fut* with a deadline.

        The returned :class:`Deadline` resolves with ``fut``'s value if
        it settles within *delay* ms, otherwise fails with
        :class:`repro.errors.TimeoutError`.
        """
        deadline = Deadline("timeout")
        deadline._reason = reason
        settle = deadline._settle
        deadline._timer = self.schedule(delay, settle)
        fut.add_callback(settle)
        return deadline

    # -- processes -------------------------------------------------------

    def spawn(
        self, gen: Generator[Future, Any, Any], name: str = "process"
    ) -> Process:
        """Start a generator as a cooperative process.

        The generator yields :class:`Future` objects; each yield
        suspends the process until the future settles, at which point
        the future's value is sent back in (or its exception raised at
        the yield site). The process object is itself a future that
        settles with the generator's return value.
        """
        process = Process(self, gen, name)
        self._processes[process] = None
        process.add_callback(self._processes.pop)
        heapq.heappush(self._heap, (self.now, self._sequence, None, process._resume))
        self._sequence += 1
        return process

    # -- running ---------------------------------------------------------

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Run events until the heap drains or the clock passes *until*.

        Returns the simulated time at which the run stopped.
        """
        self._loop(until, None, max_events)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_complete(self, process: Process, max_events: int = 50_000_000) -> Any:
        """Run until *process* finishes; return its result (or raise)."""
        self._loop(None, process, max_events)
        if process._value is _PENDING and process._exception is None:
            raise SimulationError(
                f"event queue drained but process {process.name!r} "
                "never completed (deadlock)"
            )
        return process.value

    def _loop(self, until: float | None, process: Process | None, max_events: int) -> None:
        """Run events in ``(when, seq)`` order until the heap drains, the
        next one lies past *until*, or *process* has settled.

        Each event is popped once; the one entry found past *until* is
        pushed back unchanged. ``(when, seq)`` is unique, so it returns
        to the same place in the order and no sequence number is spent.
        """
        events = 0
        heap = self._heap
        while heap:
            if process is not None and (
                process._value is not _PENDING or process._exception is not None
            ):
                return
            entry = heapq.heappop(heap)
            when, _, timer, fn = entry
            if until is not None and when > until:
                heapq.heappush(heap, entry)
                self.now = until
                return
            if timer is not None and timer.cancelled:
                continue
            self.now = when
            fn()
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events at t={self.now:.3f} ms; "
                    "likely a livelock in the simulated system"
                )

    # -- introspection ----------------------------------------------------

    def alive_processes(self) -> Iterable[Process]:
        """Processes that have not yet finished."""
        return list(self._processes)

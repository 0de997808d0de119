"""Generator-based cooperative processes.

A process wraps a generator that yields :class:`Future` objects. When
the yielded future settles, the scheduler resumes the generator with
the future's value (``gen.send``) or raises the future's exception
inside it (``gen.throw``). The process is itself a :class:`Future`:
it resolves with the generator's return value, or fails with whatever
exception escaped the generator — so processes can ``yield`` on each
other to join.

A process that yields a bare ``sim.sleep()`` is resumed by the timer's
own event (:class:`Sleep`): the sleep records it in a slot, not in a
callback list. Every other wakeup is a fresh event behind whatever is
already scheduled for that instant, which the settle callback pushes
onto the simulator's heap itself: its callable is the process's one
bound :meth:`Process._step`, made when the process is, and the settled
value waits on the process's own slots, which ``_step`` reads (a first
step and a sleep's timer find them empty). A yielded future that is
still pending gets that callback appended to its list in place. The
step tells a sleep and a plain future by ``type()``; only any other
yielded object costs it an ``isinstance`` check.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.errors import Interrupted, SimulationError
from repro.sim.future import _PENDING, Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.scheduler import Simulator


class Process(Future):
    """A running generator inside a :class:`Simulator`.

    Created via :meth:`Simulator.spawn`; not meant to be instantiated
    directly.
    """

    __slots__ = (
        "sim", "_gen", "_waiting_on", "_pending_value", "_pending_exc",
        "_settled", "_resume",
    )

    def __init__(self, sim: "Simulator", gen: Generator[Future, Any, Any], name: str):
        super().__init__(name)
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self._gen = gen
        self._waiting_on: Future | None = None
        self._pending_value: Any = None
        self._pending_exc: BaseException | None = None
        # Every yield hands the awaited future this one bound method,
        # and every posted wakeup (the first step included) runs that one.
        self._settled = self._on_future_settled
        self._resume = self._step

    # -- lifecycle -------------------------------------------------------

    def _step(self) -> None:
        """Resume the generator with what the pending slots hold: the
        settled value or exception a wakeup stashed, else None (the
        first step, a sleep's timer)."""
        value = self._pending_value
        exc = self._pending_exc
        self._pending_value = None
        self._pending_exc = None
        if self._value is not _PENDING or self._exception is not None:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.resolve(stop.value)
            return
        except Interrupted as interrupted:
            self.fail(interrupted)
            return
        except Exception as error:
            self.fail(error)
            return
        cls = type(target)
        if cls is Sleep:
            self._waiting_on = target
            if target._value is not _PENDING or target._exception is not None:
                self._on_future_settled(target)  # settled already: wake now
            elif target._process is None and not target._callbacks:
                target._process = self  # a fresh sleep: its timer resumes us
            else:
                target.add_callback(self._settled)
            return
        if cls is not Future and not isinstance(target, Future):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Future objects"
                )
            )
            return
        self._waiting_on = target
        if target._value is not _PENDING or target._exception is not None:
            self._on_future_settled(target)  # settled already: wake now
        else:
            target._callbacks.append(self._settled)

    def _on_future_settled(self, fut: Future) -> None:
        if (
            self._waiting_on is not fut
            or self._value is not _PENDING
            or self._exception is not None
        ):
            return
        # Resume on a fresh event so callback chains cannot reorder the
        # process ahead of same-instant events scheduled earlier. The
        # wakeup payload is stashed on the process itself so the heap
        # entry is a bound method made once, not a fresh one per step.
        exc = fut._exception
        if exc is not None:
            self._pending_value = None
            self._pending_exc = exc
        else:
            self._pending_value = fut._value
            self._pending_exc = None
        sim = self.sim
        heapq.heappush(sim._heap, (sim.now, sim._sequence, None, self._resume))
        sim._sequence += 1

    # -- control ----------------------------------------------------------

    def kill(self, reason: str = "killed") -> None:
        """Terminate the process (models a processor crash).

        The generator is closed so its ``finally`` blocks run, and the
        process future fails with :class:`Interrupted` for any joiner.
        """
        if self.resolved:
            return
        self._waiting_on = None
        gen, self._gen = self._gen, _dead_generator()
        try:
            gen.close()
        except Exception:
            pass  # a crash does not care about cleanup errors
        self.fail(Interrupted(reason))


class Sleep(Future):
    """The future behind :meth:`Simulator.sleep`.

    Its timer event is :meth:`_fire`. Nothing else settles a sleep in
    practice, so a process that yields a fresh one is kept in the
    :attr:`_process` slot rather than in the callback list, and the
    timer resumes it there and then instead of posting a second event
    for the same instant. A sleep raced under ``timeout``, or given any second
    callback, turns that process back into its *first* callback and
    settles like any other future: its waiters get the posted wakeup.
    A sleep starts with the shared empty callback tuple; the first
    callback makes it a list. Settled early by anything else, a sleep
    wakes its process like any waiter and its timer then does nothing.
    """

    __slots__ = ("_process",)

    def add_callback(self, fn: Callable[[Future], None]) -> None:
        if self._value is not _PENDING or self._exception is not None:
            fn(self)
            return
        self._unslot()
        if self._callbacks:
            self._callbacks.append(fn)
        else:
            self._callbacks = [fn]

    # Settled by anything but its timer, a sleep first turns its slotted
    # process into an ordinary callback.

    def resolve(self, value: Any = None) -> None:
        self._unslot()
        Future.resolve(self, value)

    def fail(self, exc: BaseException) -> None:
        self._unslot()
        Future.fail(self, exc)

    def resolve_if_pending(self, value: Any = None) -> bool:
        self._unslot()
        return Future.resolve_if_pending(self, value)

    def fail_if_pending(self, exc: BaseException) -> bool:
        self._unslot()
        return Future.fail_if_pending(self, exc)

    def _unslot(self) -> None:
        """Move a pending sleep's slotted process into its callbacks."""
        process = self._process
        if process is not None and self._value is _PENDING and self._exception is None:
            self._process = None
            self._callbacks = [process._settled]

    def _fire(self) -> None:
        process = self._process
        if process is None:
            if self._value is _PENDING and self._exception is None:
                Future.resolve(self)  # else settled early: nothing to do
            return
        self._value = None
        if process._waiting_on is self:  # not killed meanwhile
            process._step()


def _dead_generator() -> Generator[Future, Any, Any]:
    return
    yield  # pragma: no cover

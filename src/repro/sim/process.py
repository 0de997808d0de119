"""Generator-based cooperative processes.

A process wraps a generator that yields :class:`Future` objects. When
the yielded future settles, the scheduler resumes the generator with
the future's value (``gen.send``) or raises the future's exception
inside it (``gen.throw``). The process is itself a :class:`Future`:
it resolves with the generator's return value, or fails with whatever
exception escaped the generator — so processes can ``yield`` on each
other to join.

A process that yields a bare ``sim.sleep()`` is resumed by the timer's
own event (:class:`Sleep`); every other wakeup is a fresh event behind
whatever is already scheduled for that instant, which the settle
callback pushes onto the simulator's heap itself: its callable is the
process's one bound :meth:`Process._step_pending`, made when the
process is, and the settled value waits on the process's own slots.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Generator

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
        # and every posted wakeup runs that one.
        self._settled = self._on_future_settled
        self._resume = self._step_pending

    # -- lifecycle -------------------------------------------------------

    def _step_initial(self) -> None:
        self._step(None, None)

    def _step(self, value: Any, exc: BaseException | None) -> None:
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
        if not isinstance(target, Future):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Future objects"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._settled)

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

    def _step_pending(self) -> None:
        value, exc = self._pending_value, self._pending_exc
        self._pending_value = None
        self._pending_exc = None
        self._step(value, exc)

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

    Its timer event is :meth:`_fire`. Nothing else can settle a sleep,
    so when the one thing waiting on it is a process that yielded it,
    the timer resumes that process there and then rather than posting
    a second event for the same instant. A sleep raced under
    ``timeout``, or with any second callback, settles like any other
    future and its waiters get the posted wakeup.
    """

    __slots__ = ()

    def _sleeper(self) -> Process | None:
        """The process the timer will resume itself: the only waiter."""
        callbacks = self._callbacks
        if (
            len(callbacks) == 1
            and getattr(callbacks[0], "__func__", None) is _ON_SETTLED
        ):
            return callbacks[0].__self__
        return None

    def _fire(self) -> None:
        process = self._sleeper()
        if process is None:
            self.resolve()
            return
        self._callbacks.clear()
        self._value = None
        if process._waiting_on is self:  # not killed meanwhile
            process._step(None, None)


_ON_SETTLED = Process._on_future_settled


def _dead_generator() -> Generator[Future, Any, Any]:
    return
    yield  # pragma: no cover

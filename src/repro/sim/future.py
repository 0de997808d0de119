"""Futures: single-assignment result placeholders for the simulator.

A :class:`Future` is resolved exactly once, either with a value
(:meth:`Future.resolve`) or with an exception (:meth:`Future.fail`).
Processes suspend on futures by yielding them; the scheduler resumes
the process with the value (or raises the exception inside it).

Settling is on the path of nearly every simulated event, so the
settle methods here, :class:`~repro.sim.process.Process` and
:class:`~repro.sim.scheduler.Deadline` read the ``_value`` and
``_exception`` slots directly; the :attr:`Future.resolved`,
:attr:`Future.value` and :attr:`Future.exception` properties are the
API for everyone else.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import Interrupted, SimulationError

_PENDING = object()
_SETTLED: tuple = ()


class Future:
    """A single-assignment value that processes can wait on.

    Futures are intentionally tiny: no locking (the simulator is
    single-threaded) and no implicit scheduling — callbacks run
    synchronously when the future settles, which keeps event ordering
    deterministic.
    """

    __slots__ = ("_value", "_exception", "_callbacks", "name")

    def __init__(self, name: str = ""):
        self._value: Any = _PENDING
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[[Future], None]] = []
        self.name = name

    # -- state ---------------------------------------------------------

    @property
    def resolved(self) -> bool:
        """True once the future has a value or an exception."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def value(self) -> Any:
        """The settled value; raises if pending or failed."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError(f"future {self.name!r} is still pending")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The exception the future failed with, if any."""
        return self._exception

    # -- settling ------------------------------------------------------

    def resolve(self, value: Any = None) -> None:
        """Settle the future successfully with *value*."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._value = value
        # A settled future takes no more callbacks (add_callback runs
        # them at once), so the list is swapped for a shared empty one.
        callbacks, self._callbacks = self._callbacks, _SETTLED
        for fn in callbacks:
            fn(self)

    def fail(self, exc: BaseException) -> None:
        """Settle the future with an exception."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._exception = exc
        callbacks, self._callbacks = self._callbacks, _SETTLED
        for fn in callbacks:
            fn(self)

    def resolve_if_pending(self, value: Any = None) -> bool:
        """Resolve unless already settled; returns True if it resolved."""
        if self._value is not _PENDING or self._exception is not None:
            return False
        self.resolve(value)
        return True

    def fail_if_pending(self, exc: BaseException) -> bool:
        """Fail unless already settled; returns True if it failed."""
        if self._value is not _PENDING or self._exception is not None:
            return False
        self.fail(exc)
        return True

    def interrupt(self, reason: str = "interrupted") -> bool:
        """Fail the future with :class:`Interrupted` if still pending."""
        return self.fail_if_pending(Interrupted(reason))

    # -- notification ----------------------------------------------------

    def add_callback(self, fn: Callable[[Future], None]) -> None:
        """Run ``fn(self)`` when the future settles (now, if already settled)."""
        if self._value is not _PENDING or self._exception is not None:
            fn(self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._exception is not None:
            state = f"failed={self._exception!r}"
        elif self._value is not _PENDING:
            state = f"value={self._value!r}"
        else:
            state = "pending"
        return f"<Future {self.name!r} {state}>"

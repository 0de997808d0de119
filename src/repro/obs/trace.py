"""The causal trace recorder and the per-simulator Observability bundle.

A :class:`TraceEvent` is one structured protocol event: a simulated
timestamp, the node (machine or device) it happened on, a category
(``net``/``group``/``dir``/``disk``/``nvram``/``bullet``/``chaos``), a
dotted event name, an optional *lineage* id tying events across nodes
to one logical message (the group protocol uses its global msg id,
``(member, epoch, n)``), and free-form args.

The recorder is **disabled by default**. Instrumented call sites guard
with ``if obs.tracer.enabled:`` so a disabled tracer costs one
attribute read. Enabled with a capacity it becomes a ring buffer —
the chaos runner's flight recorder keeps only the last N events, which
is exactly what you want next to a failed invariant.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.obs.registry import MetricsRegistry

Clock = Callable[[], float]


class TraceEvent:
    """One recorded protocol event (see module docstring for fields)."""

    __slots__ = ("ts", "node", "cat", "name", "ph", "dur", "lineage", "args")

    def __init__(
        self,
        ts: float,
        node: str,
        cat: str,
        name: str,
        ph: str = "i",
        dur: float = 0.0,
        lineage: Any = None,
        args: dict | None = None,
    ):
        self.ts = ts
        self.node = node
        self.cat = cat
        self.name = name
        self.ph = ph  # "i" instant, "X" complete span (dur in ms)
        self.dur = dur
        self.lineage = lineage
        self.args = args or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(t={self.ts:.3f}, {self.node}, {self.name}, "
            f"lineage={self.lineage!r})"
        )


class TraceRecorder:
    """Ring-buffered event sink; zero cost when :attr:`enabled` is False."""

    def __init__(self, clock: Clock):
        self._clock = clock
        self.enabled: bool = False
        self._buffer: deque[TraceEvent] | None = None

    # -- lifecycle --------------------------------------------------------

    def enable(self, capacity: int | None = None) -> None:
        """Start recording; *capacity* bounds the buffer (flight
        recorder: the oldest events fall out)."""
        self._buffer = deque(maxlen=capacity)
        self.enabled = True

    # -- recording --------------------------------------------------------

    def emit(
        self,
        node: str,
        cat: str,
        name: str,
        ph: str = "i",
        dur: float = 0.0,
        lineage: Any = None,
        ts: float | None = None,
        **args: Any,
    ) -> None:
        """Record one event. Call sites must guard on :attr:`enabled`."""
        if not self.enabled:
            return
        self._buffer.append(
            TraceEvent(
                self._clock() if ts is None else ts,
                node,
                cat,
                name,
                ph,
                dur,
                lineage,
                args or None,
            )
        )

    # -- reading ----------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """Snapshot of the buffered events, oldest first."""
        return list(self._buffer) if self._buffer is not None else []


class Observability:
    """Per-simulator bundle: one registry + one tracer, as ``sim.obs``.

    Takes anything with a ``now`` attribute (duck-typed so this module
    never imports :mod:`repro.sim`, avoiding an import cycle).
    """

    def __init__(self, sim: Any):
        clock: Clock = lambda: sim.now  # noqa: E731 - tiny closure over sim
        self.registry = MetricsRegistry(clock)
        self.tracer = TraceRecorder(clock)

    def emit(self, node: str, cat: str, name: str, **kwargs: Any) -> None:
        """Convenience passthrough for cold paths (hot paths guard first)."""
        if self.tracer.enabled:
            self.tracer.emit(node, cat, name, **kwargs)

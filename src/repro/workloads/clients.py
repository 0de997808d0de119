"""Closed-loop workload drivers.

A :class:`ClosedLoopClient` issues one operation after another with no
think time — the paper's throughput experiments (Figs. 8 and 9) use
exactly this shape: N clients hammering the service, each with one
outstanding request.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable

from repro.errors import ReproError
from repro.workloads.metrics import Metrics


class ClosedLoopClient:
    """Runs ``make_iteration()`` back to back until told to stop."""

    def __init__(
        self,
        sim,
        name: str,
        make_iteration: Callable[[int], "generator"],
        metrics: Metrics,
        kind: str,
    ):
        self.sim = sim
        self.name = name
        self.make_iteration = make_iteration
        self.metrics = metrics
        self.kind = kind
        self.iterations = 0
        self.errors = 0
        self._stop = False
        self._process = None

    def start(self) -> None:
        self._process = self.sim.spawn(self._run(), f"workload.{self.name}")

    def stop(self) -> None:
        self._stop = True

    @property
    def finished(self) -> bool:
        return self._process is not None and self._process.resolved

    def _run(self):
        while not self._stop:
            start = self.sim.now
            try:
                yield from self.make_iteration(self.iterations)
            except ReproError:
                self.errors += 1
                self.metrics.record_error(self.kind)
                yield self.sim.sleep(5.0)  # brief backoff after failure
                continue
            self.iterations += 1
            self.metrics.record(self.kind, start, self.sim.now)


def run_closed_loop(
    sim,
    clients: list[ClosedLoopClient],
    warmup_ms: float,
    measure_ms: float,
    window=None,
) -> float:
    """Start *clients*, run warmup + measurement, stop them.

    Sets each client's shared metrics window to the measurement span
    and returns the measurement duration (for throughput math).
    *window* is a context manager entered at the instant the
    measurement window opens and left at the instant it closes, for a
    caller that reads the registry at the window's edges. Stopping
    ``sim.run`` at the window's start and resuming does not change the
    schedule, so every caller takes that path.
    """
    window_start = sim.now + warmup_ms
    for client in clients:
        client.metrics.window_start = window_start
        client.metrics.window_end = window_start + measure_ms
        client.start()
    sim.run(until=window_start)
    with window if window is not None else nullcontext():
        sim.run(until=window_start + measure_ms)
    for client in clients:
        client.stop()
    # Let in-flight operations drain so processes exit cleanly.
    sim.run(until=sim.now + 2_000.0)
    return measure_ms

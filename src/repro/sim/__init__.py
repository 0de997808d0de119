"""Deterministic discrete-event simulation kernel.

This package is the substrate everything else in the library runs on.
It provides:

* :class:`~repro.sim.scheduler.Simulator` — the event loop with a
  simulated millisecond clock,
* :class:`~repro.sim.future.Future` — resolvable placeholders that
  processes wait on,
* :class:`~repro.sim.process.Process` — generator-based cooperative
  processes (``yield future`` suspends until the future resolves),
* synchronization primitives (:mod:`repro.sim.primitives`),
* named deterministic RNG streams (:mod:`repro.sim.randomness`), and
* the calibrated latency model (:mod:`repro.sim.latency`).

The kernel is deliberately free of wall-clock time and global state:
two runs with the same seed produce byte-identical event traces, which
the test-suite asserts.
"""

from repro.sim.future import Future
from repro.sim.latency import LatencyModel
from repro.sim.process import Process
from repro.sim.primitives import Condition, Mutex, Semaphore
from repro.sim.randomness import RngStreams
from repro.sim.scheduler import Simulator

__all__ = [
    "Condition",
    "Future",
    "LatencyModel",
    "Mutex",
    "Process",
    "RngStreams",
    "Semaphore",
    "Simulator",
]

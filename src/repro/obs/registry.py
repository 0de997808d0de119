"""Per-node metrics registry: counters, time-weighted gauges, histograms.

Naming convention (documented in docs/OBSERVABILITY.md):

* the **node** is the simulated box that owns the number — a machine
  address like ``"svc.dir0"``, a device name like ``"disk.svc.0"``, or
  the segment-wide pseudo-node ``"net"``;
* the **metric name** is dot-separated ``<layer>.<what>``, e.g.
  ``group.sequenced``, ``disk.random``, ``dir.writes``.

Instruments are created on first use and cached, so hot paths hold a
direct reference (``self._c_foo = registry.counter(node, name)``) and
pay one attribute bump per event. Everything is deterministic: the
registry never consults wall-clock time or RNGs — gauges integrate
over *simulated* time read from the clock handed to the registry: the
simulator itself, whose ``now`` attribute each gauge update reads
directly (no closure call per update).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace
from typing import Dict, Protocol, Tuple


class Clock(Protocol):
    """Where the registry reads simulated time: the simulator itself,
    or any object with a ``now`` in ms (a test's stand-in)."""

    now: float


class Counter:
    """A monotonically increasing count (floats allowed, e.g. busy-ms)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A level that varies over simulated time, integrated time-weighted.

    ``set``/``add`` update the level; :meth:`time_weighted_mean` is the
    integral of the level over simulated time divided by the elapsed
    window since the gauge was created.
    """

    __slots__ = ("_clock", "value", "maximum", "minimum", "_area", "_last", "_start")

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        now = clock.now
        self.value: float = 0.0
        self.maximum: float = 0.0
        self.minimum: float = 0.0
        self._area: float = 0.0
        self._last: float = now
        self._start: float = now

    def set(self, value: float) -> None:
        now = self._clock.now
        self._area += self.value * (now - self._last)
        self._last = now
        self.value = value
        if value > self.maximum:
            self.maximum = value
        if value < self.minimum:
            self.minimum = value

    def add(self, delta: float) -> None:
        now = self._clock.now  # set(self.value + delta), in place
        self._area += self.value * (now - self._last)
        self._last = now
        self.value = value = self.value + delta
        if value > self.maximum:
            self.maximum = value
        if value < self.minimum:
            self.minimum = value

    def time_weighted_mean(self) -> float:
        now = self._clock.now
        elapsed = now - self._start
        if elapsed <= 0.0:
            return self.value
        return self.area() / elapsed

    def area(self) -> float:
        """Integral of the level over simulated time, extended to *now*.

        The running integral only advances on :meth:`set`, so the area
        must include the current level held from the last set until the
        snapshot instant (a gauge set at t=10 and read at t=100 weights
        the final level over [10,100]). Window means over [a,b] are
        ``(area_at_b - area_at_a) / (b - a)`` — :meth:`Window.mean`.
        """
        return self._area + self.value * (self._clock.now - self._last)


class Histogram:
    """A distribution of observed values (optionally weighted).

    Keeps every sample — runs are bounded and simulated, so the memory
    cost is acceptable and exact percentiles beat sketch error bars.
    """

    __slots__ = ("_values", "_weights", "total_weight", "sum")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._weights: list[float] = []
        self.total_weight: float = 0.0
        self.sum: float = 0.0

    def observe(self, value: float, weight: float = 1.0) -> None:
        self._values.append(value)
        self._weights.append(weight)
        self.total_weight += weight
        self.sum += value * weight

    @property
    def count(self) -> int:
        return len(self._values)

    def mean(self) -> float:
        if self.total_weight <= 0.0:
            return 0.0
        return self.sum / self.total_weight

    def percentile(self, p: float) -> float:
        """Weighted percentile: smallest value covering ``p``% of weight."""
        if not self._values:
            return 0.0
        pairs = sorted(zip(self._values, self._weights))
        target = (p / 100.0) * self.total_weight
        cumulative = 0.0
        for value, weight in pairs:
            cumulative += weight
            if cumulative >= target - 1e-12:
                return value
        return pairs[-1][0]

    def stddev(self) -> float:
        if self.total_weight <= 0.0:
            return 0.0
        mu = self.mean()
        var = (
            sum(w * (v - mu) ** 2 for v, w in zip(self._values, self._weights))
            / self.total_weight
        )
        return math.sqrt(max(var, 0.0))

    def summary(self) -> dict:
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": round(self.mean(), 6),
            "min": round(min(self._values), 6),
            "p50": round(self.percentile(50.0), 6),
            "p95": round(self.percentile(95.0), 6),
            "max": round(max(self._values), 6),
        }


@dataclass(frozen=True)
class Mark:
    """Every counter's value and every gauge's time-integral and level
    at one instant, keyed by (node, name). The default is the
    registry's birth: time zero, no instrument yet."""

    t_ms: float = 0.0
    counters: dict = field(default_factory=dict)
    areas: dict = field(default_factory=dict)
    levels: dict = field(default_factory=dict)


class Window:
    """What the instruments did between two marks.

    This is the ONE place two registry captures are subtracted
    (tests/test_lint.py keeps it so): the sampler behind the health
    monitor and the capacity report, the capacity attributor and the
    chaos verdict's utilization rollup all ask a window. An instrument
    first seen inside the window is read from zero — a counter is born
    at zero and a gauge's integral starts at zero, so that is its exact
    delta. An empty window answers 0.0 rather than dividing by zero.
    """

    def __init__(self, start: Mark, end: Mark):
        self.start = start
        self.end = end
        self.dt_ms = end.t_ms - start.t_ms
        self._nodes: Dict[str, list] = {}
        for node, name in chain(end.counters, end.areas):
            self._nodes.setdefault(name, []).append(node)

    def nodes(self, name: str) -> list[str]:
        """Nodes holding an instrument called *name* when the window
        closed, sorted."""
        return sorted(self._nodes.get(name, ()))

    def delta(self, node: str, name: str) -> float:
        """How much a counter grew."""
        key = (node, name)
        return self.end.counters.get(key, 0.0) - self.start.counters.get(key, 0.0)

    def busy(self, node: str, name: str) -> float:
        """Share of the window a busy-ms counter accounts for."""
        if self.dt_ms <= 0.0:
            return 0.0
        return self.delta(node, name) / self.dt_ms

    def rate(self, node: str, name: str) -> float:
        """A counter's growth per second."""
        if self.dt_ms <= 0.0:
            return 0.0
        return self.delta(node, name) * 1000.0 / self.dt_ms

    def mean(self, node: str, name: str) -> float:
        """A gauge's exact time-weighted mean over the window — no
        instant sample can fake it: a queue that spikes and drains
        between two marks still shows up."""
        if self.dt_ms <= 0.0:
            return 0.0
        key = (node, name)
        return (
            self.end.areas.get(key, 0.0) - self.start.areas.get(key, 0.0)
        ) / self.dt_ms

    def since(self, node: str, name: str) -> float:
        """Ms from the timestamp a gauge holds to the window's end."""
        return self.end.t_ms - self.end.levels[(node, name)]


class MetricsRegistry:
    """All instruments for one simulated world, keyed by (node, name)."""

    def __init__(self, clock: Clock | None = None):
        #: The simulated clock every gauge (and every
        #: :class:`~repro.sim.primitives.SemaphoreMeter`) reads; without
        #: one, time stands at zero.
        self.clock: Clock = clock if clock is not None else SimpleNamespace(now=0.0)
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[Tuple[str, str], Histogram] = {}

    # -- instrument accessors (get-or-create) -----------------------------

    def counter(self, node: str, name: str) -> Counter:
        key = (node, name)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, node: str, name: str) -> Gauge:
        key = (node, name)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(self.clock)
        return instrument

    def histogram(self, node: str, name: str) -> Histogram:
        key = (node, name)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # -- introspection ----------------------------------------------------

    def find_counters(self, name: str) -> list[tuple[str, Counter]]:
        """Every (node, counter) registered under *name*, node-sorted."""
        return sorted(
            ((node, c) for (node, n), c in self._counters.items() if n == name),
            key=lambda pair: pair[0],
        )

    def mark(self) -> Mark:
        """Capture every counter and gauge now (gauge integrals
        extended to now)."""
        return Mark(
            t_ms=self.clock.now,
            counters={key: c.value for key, c in self._counters.items()},
            areas={key: g.area() for key, g in self._gauges.items()},
            levels={key: g.value for key, g in self._gauges.items()},
        )

    def window(self, since: Mark | None = None) -> Window:
        """The window from *since* (default: the registry's birth, so
        the whole run) to now."""
        return Window(since if since is not None else Mark(), self.mark())

    def nodes(self) -> list[str]:
        seen = {node for node, _ in self._counters}
        seen.update(node for node, _ in self._gauges)
        seen.update(node for node, _ in self._histograms)
        return sorted(seen)

    def snapshot(self) -> dict:
        """Deterministically ordered copy of every instrument.

        Shape: ``{node: {"counters": {...}, "gauges": {...},
        "histograms": {...}}}`` with zero-count sections omitted.
        """
        out: dict = {}
        for node in self.nodes():
            section: dict = {}
            counters = {
                name: c.value
                for (n, name), c in sorted(self._counters.items())
                if n == node
            }
            if counters:
                section["counters"] = counters
            gauges = {
                name: {
                    "value": g.value,
                    "max": g.maximum,
                    "time_weighted_mean": round(g.time_weighted_mean(), 6),
                }
                for (n, name), g in sorted(self._gauges.items())
                if n == node
            }
            if gauges:
                section["gauges"] = gauges
            histograms = {
                name: h.summary()
                for (n, name), h in sorted(self._histograms.items())
                if n == node
            }
            if histograms:
                section["histograms"] = histograms
            out[node] = section
        return out

"""The one periodic watcher over the metrics registry.

A :class:`Sampler` is a plain simulated process that wakes at a fixed
sim interval, asks the registry for the window since its last wakeup
(:class:`repro.obs.registry.Window`) and derives the series its rows
of :data:`SERIES` name (docs/OBSERVABILITY.md §10). Each row says how
the window reads its source metric:

* ``busy`` — a busy-ms counter's share of the interval (``cpu.busy_ms``
  → ``cpu.rho`` and friends);
* ``rate`` — a counter's growth per second (grants, delivered records,
  retransmission requests, link bytes);
* ``mean`` — the exact time-weighted window mean of a queue-depth gauge;
* ``since`` — ms since the timestamp a gauge holds (the last
  heartbeat).

The sampler holds a bounded ring of samples (oldest evicted first) and
renders them on demand as Perfetto counter-track events (``ph: "C"``)
so a capacity run's trace shows utilization timelines next to the span
profiler's slices. A bare sampler reads the :data:`UTILIZATION` rows —
the capacity lens; the health monitor (:mod:`repro.obs.monitor`) is
this sampler reading the rows its thresholds name.

Passivity: nothing here runs unless :meth:`Sampler.start` is called,
and a tick only *reads* the registry — it creates no instruments and
mutates none, so a sampled run's schedule digest differs from an
unsampled one only by the sampler's own wakeups, and a run that never
starts a sampler is byte-identical to one without this module (the
BENCH_sim obs-off gate relies on that).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, NamedTuple

from repro.obs.trace import TraceEvent

if TYPE_CHECKING:
    from repro.sim.scheduler import Simulator

#: Ring capacity (samples kept; oldest evicted first).
RING_CAPACITY = 4096


class Series(NamedTuple):
    """One row of the series table."""

    metric: str  # the source counter or gauge
    name: str  # the derived series
    how: str  # the Window method that reads it


#: What each resource is doing: the capacity report's ring. Rows that
#: share a series name add up per node.
UTILIZATION = (
    Series("cpu.busy_ms", "cpu.rho", "busy"),
    Series("disk.arm.busy_ms", "disk.arm.rho", "busy"),
    Series("nvram.busy_ms", "nvram.rho", "busy"),
    Series("dir.apply_busy_ms", "dir.apply.rho", "busy"),
    Series("dir.persist_busy_ms", "dir.persist.rho", "busy"),
    Series("net.wire_ms", "net.wire.rho", "busy"),
    Series("net.busy_ms", "net.link.rho", "busy"),
    Series("cpu.grants", "cpu.grants_per_s", "rate"),
    Series("disk.arm.grants", "disk.grants_per_s", "rate"),
    Series("nvram.appends", "nvram.appends_per_s", "rate"),
    Series("group.delivered", "group.delivered_per_s", "rate"),
    Series("dir.applied_records", "dir.applied_per_s", "rate"),
    Series("net.bytes_sent", "net.bytes_per_s", "rate"),
    Series("net.bytes", "net.bytes_per_s", "rate"),
    Series("cpu.queue_depth", "cpu.queue_depth", "mean"),
    Series("disk.arm.queue_depth", "disk.arm.queue_depth", "mean"),
    Series("group.backlog", "group.backlog", "mean"),
)

#: What a fault looks like from outside: read only by the health
#: monitor, whose thresholds (docs/OBSERVABILITY.md §8) say why each
#: one matters.
SYMPTOMS = (
    Series("group.retrans_requested", "group.retrans_rate", "rate"),
    Series("session.cache_hits", "session.dup_rate", "rate"),
    Series("group.views_adopted", "group.view_churn", "rate"),
    Series("disk.corrupt_detected", "storage.corrupt_rate", "rate"),
    Series("disk.corrupt_served", "storage.corrupt_rate", "rate"),
    Series("nvram.corrupt_records", "storage.corrupt_rate", "rate"),
    Series("nvram.corrupt_replayed", "storage.corrupt_rate", "rate"),
    Series("group.last_heartbeat_ms", "group.heartbeat_staleness", "since"),
)

#: The one series table: source metric -> derived series -> how.
SERIES = UTILIZATION + SYMPTOMS


class Sampler:
    """Fixed-interval sampler over one simulator's registry."""

    #: The rows of :data:`SERIES` a tick derives.
    rows = UTILIZATION

    def __init__(self, sim: "Simulator", interval_ms: float):
        if interval_ms <= 0.0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.registry = sim.obs.registry
        self.interval_ms = interval_ms
        self.samples: deque[dict] = deque(maxlen=RING_CAPACITY)
        self.dropped = 0
        self.ticks = 0
        self._mark = None
        self._process = None

    @property
    def running(self) -> bool:
        return self._process is not None and not self._process.resolved

    def start(self) -> "Sampler":
        """Mark every instrument now, so the first window holds no
        history from before; the first tick fires one interval on."""
        if self.running:
            return self
        self._mark = self.registry.mark()
        self._process = self.sim.spawn(self._run(), "obs.sampler")
        return self

    def stop(self) -> None:
        """Take a final partial-interval sample and stop the process."""
        if not self.running:
            return
        if self.sim.now > self._mark.t_ms:
            self.tick()
        self._process.kill("sampler stopped")
        self._process = None

    def _run(self):
        while True:
            yield self.sim.sleep(self.interval_ms)
            self.tick()

    def tick(self) -> dict:
        """Take one sample now (also called internally every interval);
        returns ``{(node, series): value}``, unrounded."""
        window = self.registry.window(self._mark)
        self._mark = window.end
        self.ticks += 1
        values: dict = {}
        for metric, series, how in self.rows:
            read = getattr(window, how)
            for node in window.nodes(metric):
                key = (node, series)
                values[key] = values.get(key, 0.0) + read(node, metric)
        if len(self.samples) == self.samples.maxlen:
            self.dropped += 1
        self.samples.append({
            "t_ms": round(window.end.t_ms, 6),
            "series": {
                f"{node}:{series}": round(value, 6)
                for (node, series), value in values.items()
            },
        })
        return values

    # -- export -----------------------------------------------------------

    def as_dict(self) -> dict:
        """Deterministic snapshot of the ring (series keys sorted)."""
        return {
            "interval_ms": self.interval_ms,
            "capacity": self.samples.maxlen,
            "dropped": self.dropped,
            "samples": [
                {
                    "t_ms": s["t_ms"],
                    "series": dict(sorted(s["series"].items())),
                }
                for s in self.samples
            ],
        }

    def counter_track_events(self) -> list[TraceEvent]:
        """The ring as Perfetto counter-track events (``ph: "C"``).

        One event per (sample, series); the exporter groups them into
        per-node counter tracks next to the span slices.
        """
        events: list[TraceEvent] = []
        for sample in self.samples:
            ts = sample["t_ms"]
            for key in sorted(sample["series"]):
                node, metric = key.split(":", 1)
                events.append(TraceEvent(
                    ts=ts, node=node, cat="saturation", name=metric,
                    ph="C", args={"value": sample["series"][key]},
                ))
        return events

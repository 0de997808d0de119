"""The in-sim health watchdog: the sampler plus hysteresis alerts.

A :class:`HealthMonitor` is the registry sampler
(:class:`repro.obs.saturation.Sampler` — it reads the metrics registry
and *only* the registry, with no privileged view into server
internals) at a 500 ms cadence, deriving the series its thresholds
name and running each through a two-threshold hysteresis state
machine:

* the signal rising to ``alert_above`` raises an **alert** (recorded,
  and emitted as a ``mon.alert`` trace event when the flight recorder
  is on);
* the signal falling back to ``clear_below`` **clears** it
  (``mon.clear``) — the gap between the thresholds stops a signal
  hovering near the line from flapping.

The signals are the rows of :data:`DEFAULT_THRESHOLDS` (each says what
it means; docs/OBSERVABILITY.md §8 is the operator's copy, held to this
one by tests/test_lint.py); how each is read off the registry is its
row of :data:`repro.obs.saturation.SERIES`.

Everything is deterministic: same seed, same alerts.

The chaos runner (:mod:`repro.chaos.runner`) starts a monitor on every
scenario; nemesis runs must raise at least one alert inside the fault
window and end with every alert cleared, while fault-free control runs
must stay silent end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.saturation import SERIES, Sampler

#: Sampling cadence: four ticks per heartbeat-failure window, fine
#: enough to land inside every chaos fault window.
INTERVAL_MS = 500.0


@dataclass(frozen=True)
class Threshold:
    """One signal's hysteresis pair (alert high, clear low)."""

    signal: str
    alert_above: float
    clear_below: float
    unit: str = ""
    description: str = ""


#: Calibrated against fault-free runs of every deployment (the control
#: scenario sweeps seeds and asserts silence) and against the nemesis
#: rotation (every fault window must trip at least one of these). Every
#: row here fires in the chaos suite (tests/chaos/test_watcher_traffic.py;
#: the measured tally is in docs/CHAOS.md §2).
DEFAULT_THRESHOLDS = (
    Threshold(
        "group.backlog", 8.0, 2.0, "msgs",
        "sequenced messages not yet delivered to the state machine",
    ),
    Threshold(
        "group.retrans_rate", 4.0, 0.5, "req/s",
        "gap-repair retransmission requests per second",
    ),
    # A reply-cache hit means a client resent an already-committed
    # update: one hit per sampling window (2/s at the monitor's cadence)
    # is already anomalous on a healthy network, so the threshold sits
    # just under a single hit, like view churn below.
    Threshold(
        "session.dup_rate", 1.9, 0.1, "hits/s",
        "session reply-cache hits per second (duplicate resends)",
    ),
    Threshold(
        "group.heartbeat_staleness", 400.0, 150.0, "ms",
        "time since the member last saw or sent a group heartbeat",
    ),
    # One adoption inside a sampling window reads as 1/interval per
    # second (2/s at the monitor's cadence): the alert threshold sits
    # just under that, so a single membership change trips it and a
    # single quiet window clears it. A partitioned minority member
    # re-forms a solo view (heartbeating itself, staleness low) — the
    # churn it causes on BOTH sides is what this signal catches.
    Threshold(
        "group.view_churn", 1.9, 0.1, "views/s",
        "group view adoptions per second (membership churn)",
    ),
    # One corruption event inside a sampling window (2/s at the
    # monitor's cadence) trips the alert — a single flipped block is
    # already a remediation-worthy fact, and fault-free runs sit at
    # exactly zero. The signal sums every corruption counter a node's
    # storage exposes: detections (disk.corrupt_detected,
    # nvram.corrupt_records) and the integrity-off evidence of silently
    # served damage (disk.corrupt_served, nvram.corrupt_replayed).
    Threshold(
        "storage.corrupt_rate", 1.9, 0.1, "events/s",
        "storage-corruption evidence (detections + corrupt bytes served)",
    ),
)


@dataclass(frozen=True)
class Alert:
    """One raised (or cleared) alert instance."""

    at_ms: float
    node: str
    signal: str
    value: float
    threshold: float
    kind: str = "alert"  # "alert" | "clear"

    def as_dict(self) -> dict:
        return {
            "at_ms": round(self.at_ms, 3),
            "node": self.node,
            "signal": self.signal,
            "value": round(self.value, 6),
            "threshold": self.threshold,
            "kind": self.kind,
        }


class HealthMonitor(Sampler):
    """The sampler at the monitor's cadence, reading the rows its
    thresholds name, plus hysteresis on each of them."""

    def __init__(self, sim, thresholds=DEFAULT_THRESHOLDS):
        super().__init__(sim, INTERVAL_MS)
        self.thresholds = {t.signal: t for t in thresholds}
        self.rows = tuple(row for row in SERIES if row.name in self.thresholds)
        self.alerts: list[Alert] = []
        self.clears: list[Alert] = []
        #: (node, signal) -> the raised, not yet cleared Alert. The
        #: remediation controller reads its policies' inputs here.
        self.active: dict = {}

    def tick(self) -> dict:
        """Take one sample window; returns ``{(node, signal): value}``."""
        samples = super().tick()
        for (node, signal), value in sorted(samples.items()):
            self._update(self.sim.now, node, signal, value)
        return samples

    # -- hysteresis --------------------------------------------------------

    def _update(self, now: float, node: str, signal: str, value: float) -> None:
        threshold = self.thresholds[signal]
        key = (node, signal)
        active = self.active.get(key)
        if active is None and value >= threshold.alert_above:
            alert = Alert(now, node, signal, value, threshold.alert_above)
            self.active[key] = alert
            self.alerts.append(alert)
            self._emit("mon.alert", alert)
        elif active is not None and value <= threshold.clear_below:
            del self.active[key]
            clear = Alert(
                now, node, signal, value, threshold.clear_below, kind="clear"
            )
            self.clears.append(clear)
            self._emit("mon.clear", clear)

    def _emit(self, name: str, alert: Alert) -> None:
        self.sim.obs.emit(
            alert.node, "mon", name,
            lineage=("mon", alert.node),
            signal=alert.signal,
            value=round(alert.value, 6),
            threshold=alert.threshold,
        )

    # -- reading -----------------------------------------------------------

    @property
    def active_alerts(self) -> list:
        """Alerts raised and not yet cleared, deterministically ordered."""
        return [self.active[key] for key in sorted(self.active)]

    def alerts_between(self, start_ms: float, end_ms: float) -> list:
        """Alerts raised inside ``[start_ms, end_ms]``."""
        return [a for a in self.alerts if start_ms <= a.at_ms <= end_ms]

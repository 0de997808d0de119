"""Host-clock profiler for the simulator event loop.

Everything else in :mod:`repro.obs` measures *simulated* time. This
module answers the other question — where does **host** wallclock go
per simulated event — which is what decides whether a million-entry
scenario fits in CI. A :class:`HostProfiler` rides on one
:class:`~repro.sim.scheduler.Simulator`; the scheduler's profiled run
loops hand each event's callback to :meth:`HostProfiler.dispatch`, which
runs it between two ``perf_counter_ns`` reads and attributes the time:

* **event kind** — ``process.step`` (a generator resumed, by a posted
  wakeup or by the sleep timer it was waiting on), ``deliver`` (a frame
  arriving and its handler, which runs inside the delivery event),
  ``future.settle`` (a sleep with other waiters resolving, or a
  ``sim.timeout`` deadline expiring — site ``Deadline._settle``), or
  ``callback`` (plain scheduled fn);
* **component** — the ``repro`` subpackage owning the code that ran
  (``net`` / ``group`` / ``storage`` / ``directory`` / ``workloads`` /
  ``obs`` / ``rpc`` / ``sim`` / ...), derived from the resumed
  generator's (or callback's) code object; a delivery is booked to the
  subsystem whose handler takes that frame kind
  (:data:`HANDLER_COMPONENT`), ``net`` when nothing claims it;
* **site** — the function itself (``GroupKernel._ticker`` etc.), or
  ``deliver:<frame kind>``; the unit of the top-K "hottest sites" table.

The profiler reads host time and callback metadata only — it never
touches simulated state, RNGs, or the event order, so a profiled run
is event-for-event identical to an unprofiled one (pinned by
tests/obs/test_hostprof.py). Sampling (``sample=N``) times every Nth
event but still counts all of them, for lower overhead on big runs.

Use :func:`capture` to profile code that builds its own simulators
(the bench harness builds one per cluster): every Simulator constructed
inside the ``with`` block gets a profiler attached, and the capture
merges their reports and tracks GC/allocation deltas for the whole
block.

Report invariant (tested): per-component ``host_ns`` sums exactly to
the measured event-execution total — attribution never drops or
double-counts a nanosecond. Counts (events, kinds, components, sites)
are a pure function of the seed; only the ``*_ns`` fields are measured.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

from repro.obs.trace import TraceEvent

#: Cap on retained per-event slices for the Perfetto host timeline.
DEFAULT_MAX_SLICES = 200_000

#: Frame-kind prefix -> the subsystem whose handler a delivery runs.
HANDLER_COMPONENT = {"rpc": "rpc", "grp": "group", "cache": "directory"}


class SiteStats:
    """Accumulated host cost of one code site (function/generator)."""

    __slots__ = ("site", "component", "kind", "count", "timed", "host_ns")

    def __init__(self, site: str, component: str, kind: str):
        self.site = site
        self.component = component
        self.kind = kind
        self.count = 0       # events executed (timed or not)
        self.timed = 0       # events with host-ns measurements
        self.host_ns = 0     # summed execution ns over the timed events

    def as_dict(self) -> dict:
        out = {
            "site": self.site,
            "component": self.component,
            "kind": self.kind,
            "count": self.count,
            "timed": self.timed,
            "host_ns": self.host_ns,
        }
        if self.timed:
            out["ns_per_event"] = round(self.host_ns / self.timed, 1)
        return out


def _component_of(filename: str) -> str:
    """Map a code object's filename onto its owning subsystem.

    ``.../repro/net/network.py`` -> ``net``; top-level modules such as
    ``repro/cluster.py`` -> ``cluster``; anything outside the package
    (tests, benchmark drivers) -> ``harness``.
    """
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            nxt = parts[i + 1]
            if nxt.endswith(".py"):
                return nxt[:-3]
            return nxt
    return "harness"


class HostProfiler:
    """Per-simulator host-time accounting (see module docstring)."""

    def __init__(
        self,
        sample: int = 1,
        keep_slices: bool = False,
        max_slices: int = DEFAULT_MAX_SLICES,
    ):
        if sample < 1:
            raise ValueError(f"sample stride must be >= 1, got {sample}")
        self.sample = int(sample)
        self.keep_slices = keep_slices
        self.max_slices = max_slices
        self.sim: Any = None
        self.active = False
        self._stride_pos = 0
        # Attribution, keyed by the executing code object (stable per
        # function, shared by all processes running the same generator).
        self._sites: dict[Any, SiteStats] = {}
        self._fallback_sites: dict[str, SiteStats] = {}
        self._executed = 0
        self._timed = 0
        self._exec_ns = 0
        #: Cancelled timers the run loops popped and skipped.
        self.cancelled_pops = 0
        self._max_heap = 0
        self._seq_start = 0
        self._scheduled = 0
        self._wall_ns = 0
        self._wall_start: int | None = None
        self._epoch_ns: int | None = None
        self._sim_ms = 0.0
        self._slices: list[tuple[int, int, SiteStats]] = []
        self.slices_dropped = 0

    # -- lifecycle ---------------------------------------------------------

    def attach(self, sim: Any) -> "HostProfiler":
        """Install on *sim* and start measuring."""
        if self.sim is not None:
            raise ValueError("profiler is already attached to a simulator")
        self.sim = sim
        sim.hostprof = self
        self._seq_start = sim._sequence
        self._wall_start = perf_counter_ns()
        if self._epoch_ns is None:
            self._epoch_ns = self._wall_start
        self.active = True
        return self

    def stop(self) -> "HostProfiler":
        """Stop measuring (the run loops call the events themselves again)."""
        if self.active:
            self.active = False
            self._wall_ns += perf_counter_ns() - (self._wall_start or 0)
            self._wall_start = None
            if self.sim is not None:
                self._scheduled = self.sim._sequence - self._seq_start
                self._sim_ms = self.sim.now
        return self

    # -- the scheduler's per-event hook (hot while active) ------------------

    def dispatch(self, fn: Callable, heap: list) -> None:
        """Run one event for the scheduler's loops: every event is
        counted against its site, every ``sample``-th one timed."""
        # Looked up before the call: running the event consumes what
        # says whose it is (a sleep's waiter list, a finished generator).
        site = self._site_of(fn)
        self._stride_pos += 1
        if self._stride_pos < self.sample:
            fn()
            site.count += 1
            self._executed += 1
            return
        self._stride_pos = 0
        t0 = perf_counter_ns()
        fn()
        exec_ns = perf_counter_ns() - t0
        self._executed += 1
        site.count += 1
        site.timed += 1
        site.host_ns += exec_ns
        self._timed += 1
        self._exec_ns += exec_ns
        if len(heap) > self._max_heap:
            self._max_heap = len(heap)
        if self.keep_slices:
            if len(self._slices) < self.max_slices:
                self._slices.append((t0 - (self._epoch_ns or 0), exec_ns, site))
            else:
                self.slices_dropped += 1

    def _site_of(self, fn: Callable) -> SiteStats:
        # A process wakeup is a bound method of the Process; attribute
        # it to the *generator* being resumed, not to sim.process. The
        # timer of a bare sleep resumes its sleeper itself: same thing.
        self_obj = getattr(fn, "__self__", None)
        kind = "callback"
        if self_obj is not None:
            if hasattr(self_obj, "_sleeper"):
                self_obj = self_obj._sleeper() or self_obj
            gen = getattr(self_obj, "_gen", None)
            code = getattr(gen, "gi_code", None)
            if code is not None:
                return self._sites.get(code) or self._make_site(code, "process.step")
            if hasattr(self_obj, "_callbacks"):
                kind = "future.settle"  # a shared sleep, an expiring deadline
        func = getattr(fn, "func", None)
        if func is None:
            func = fn
        elif func.__name__ == "_deliver":
            # Network.transmit's partial(_deliver, packet): the frame's
            # handler runs inside it, so book it where the handler lives.
            return self._delivery_site(fn.args[0].kind)
        code = getattr(func, "__code__", None)
        if code is not None:
            return self._sites.get(code) or self._make_site(code, kind)
        # C-implemented callable: no code object to attribute with.
        label = getattr(fn, "__qualname__", None) or repr(type(fn))
        site = self._fallback_sites.get(label)
        if site is None:
            site = self._fallback_sites[label] = SiteStats(label, "other", kind)
        return site

    def _delivery_site(self, frame_kind: str) -> SiteStats:
        label = "deliver:" + frame_kind
        site = self._fallback_sites.get(label)
        if site is None:
            component = HANDLER_COMPONENT.get(frame_kind.partition(".")[0], "net")
            site = self._fallback_sites[label] = SiteStats(label, component, "deliver")
        return site

    def _make_site(self, code: Any, kind: str) -> SiteStats:
        qualname = getattr(code, "co_qualname", None) or code.co_name
        site = SiteStats(qualname, _component_of(code.co_filename), kind)
        self._sites[code] = site
        return site

    # -- reporting ---------------------------------------------------------

    def _all_sites(self) -> list[SiteStats]:
        sites = list(self._sites.values()) + list(self._fallback_sites.values())
        return [s for s in sites if s.count]

    def wall_ns(self) -> int:
        if self.active and self._wall_start is not None:
            return self._wall_ns + (perf_counter_ns() - self._wall_start)
        return self._wall_ns

    def report(self, top: int | None = None) -> dict:
        """The host-time budget for this simulator (see build_report)."""
        scheduled = self._scheduled
        if self.active and self.sim is not None:
            scheduled = self.sim._sequence - self._seq_start
        sim_ms = self._sim_ms
        if self.active and self.sim is not None:
            sim_ms = self.sim.now
        return build_report(
            sites=self._all_sites(),
            sample=self.sample,
            executed=self._executed,
            timed=self._timed,
            exec_ns=self._exec_ns,
            cancelled_pops=self.cancelled_pops,
            scheduled=scheduled,
            max_heap=self._max_heap,
            wall_ns=self.wall_ns(),
            sim_ms=sim_ms,
            simulators=1,
            top=top,
        )

    def host_track_events(self) -> list[TraceEvent]:
        """Per-event slices as trace events on the host timeline.

        Timestamps are host-milliseconds since the profiler attached
        (``ph="X"`` spans), one pseudo-node per component — exported
        next to the sim-time tracks by ``python -m repro perf
        --perfetto``.
        """
        events = []
        for start_ns, dur_ns, site in self._slices:
            events.append(
                TraceEvent(
                    ts=start_ns / 1e6,
                    node=f"host.{site.component}",
                    cat=site.kind,
                    name=site.site,
                    ph="X",
                    dur=dur_ns / 1e6,
                )
            )
        return events


# ----------------------------------------------------------------------
# report assembly (shared by single profilers and merged captures)
# ----------------------------------------------------------------------


def _merge_site_rows(sites: list[SiteStats]) -> list[SiteStats]:
    """Collapse same-(site, component, kind) rows from different sims."""
    merged: dict[tuple[str, str, str], SiteStats] = {}
    for s in sites:
        key = (s.site, s.component, s.kind)
        agg = merged.get(key)
        if agg is None:
            agg = merged[key] = SiteStats(*key)
        agg.count += s.count
        agg.timed += s.timed
        agg.host_ns += s.host_ns
    return list(merged.values())


def build_report(
    sites: list[SiteStats],
    sample: int,
    executed: int,
    timed: int,
    exec_ns: int,
    cancelled_pops: int,
    scheduled: int,
    max_heap: int,
    wall_ns: int,
    sim_ms: float,
    simulators: int,
    top: int | None = None,
    gc_stats: dict | None = None,
    alloc_blocks_delta: int | None = None,
) -> dict:
    """Assemble the canonical host-time budget report.

    All ``*_ns`` fields are integers, so the attribution invariant —
    by-component and by-kind sums equal ``host.exec_ns`` exactly — is
    checkable without epsilon.
    """
    sites = sorted(
        _merge_site_rows(sites),
        key=lambda s: (-s.host_ns, -s.count, s.component, s.site),
    )
    by_kind: dict[str, dict] = {}
    by_component: dict[str, dict] = {}
    for s in sites:
        k = by_kind.setdefault(s.kind, {"count": 0, "host_ns": 0})
        k["count"] += s.count
        k["host_ns"] += s.host_ns
        c = by_component.setdefault(s.component, {"count": 0, "host_ns": 0})
        c["count"] += s.count
        c["host_ns"] += s.host_ns
    for c in by_component.values():
        c["share"] = round(c["host_ns"] / exec_ns, 6) if exec_ns else 0.0
    generator_switches = by_kind.get("process.step", {}).get("count", 0)
    wall_s = wall_ns / 1e9 if wall_ns else 0.0
    # Derived, not measured: the wall clock minus event execution (scaled
    # up from the timed events under sampling) — heap pops, the run
    # loops, the profiler's own attribution, set-up between runs.
    sched_ns = max(0, wall_ns - (exec_ns * executed // timed if timed else 0))
    report = {
        "schema": 1,
        "sample": sample,
        "simulators": simulators,
        "events": {
            "executed": executed,
            "timed": timed,
            "scheduled": scheduled,
            "cancelled_pops": cancelled_pops,
            "generator_switches": generator_switches,
            "max_heap": max_heap,
            "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
            "by_component": {c: by_component[c] for c in sorted(by_component)},
        },
        "host": {
            "wall_ns": wall_ns,
            "exec_ns": exec_ns,
            "scheduler_ns": sched_ns,
            "sim_ms": round(sim_ms, 3),
            "sim_events_per_s": round(executed / wall_s, 1) if wall_s else 0.0,
            "us_per_event": (
                round(wall_ns / executed / 1e3, 3) if executed else 0.0
            ),
        },
        "sites": [s.as_dict() for s in (sites[:top] if top else sites)],
    }
    if gc_stats is not None:
        report["gc"] = gc_stats
    if alloc_blocks_delta is not None:
        report["alloc"] = {"blocks_delta": alloc_blocks_delta}
    return report


def deterministic_digest(report: dict) -> dict:
    """The seed-deterministic subset of a report (no host-ns fields).

    Two same-seed runs of the same scenario must produce identical
    digests — the CI perf-smoke job and the determinism tests diff
    this, not the measured nanoseconds.
    """
    events = report["events"]
    return {
        "executed": events["executed"],
        "scheduled": events["scheduled"],
        "cancelled_pops": events["cancelled_pops"],
        "generator_switches": events["generator_switches"],
        "max_heap": events["max_heap"],
        "by_kind": {k: v["count"] for k, v in events["by_kind"].items()},
        "by_component": {
            c: v["count"] for c, v in events["by_component"].items()
        },
        "sites": sorted(
            (s["site"], s["component"], s["kind"], s["count"])
            for s in report["sites"]
        ),
    }


# ----------------------------------------------------------------------
# capture: profile every simulator built inside a with-block
# ----------------------------------------------------------------------


class Capture:
    """Aggregated result of a :func:`capture` block."""

    def __init__(self, sample: int, keep_slices: bool, max_slices: int):
        self.sample = sample
        self.keep_slices = keep_slices
        self.max_slices = max_slices
        self.profilers: list[HostProfiler] = []
        self.wall_ns = 0
        self.gc_collections = 0
        self.gc_collected = 0
        self.gc_uncollectable = 0
        self.alloc_blocks_delta = 0
        self._t0: int | None = None

    @property
    def executed(self) -> int:
        return sum(p._executed for p in self.profilers)

    def report(self, top: int | None = None) -> dict:
        sites: list[SiteStats] = []
        for p in self.profilers:
            sites.extend(p._all_sites())
        wall = self.wall_ns
        if wall == 0 and self._t0 is not None:  # still inside the block
            wall = perf_counter_ns() - self._t0
        return build_report(
            sites=sites,
            sample=self.sample,
            executed=self.executed,
            timed=sum(p._timed for p in self.profilers),
            exec_ns=sum(p._exec_ns for p in self.profilers),
            cancelled_pops=sum(p.cancelled_pops for p in self.profilers),
            scheduled=sum(
                (p._scheduled if not p.active else
                 p.sim._sequence - p._seq_start)
                for p in self.profilers
            ),
            max_heap=max((p._max_heap for p in self.profilers), default=0),
            wall_ns=wall,
            sim_ms=sum(
                (p._sim_ms if not p.active else p.sim.now)
                for p in self.profilers
            ),
            simulators=len(self.profilers),
            top=top,
            gc_stats={
                "collections": self.gc_collections,
                "collected": self.gc_collected,
                "uncollectable": self.gc_uncollectable,
            },
            alloc_blocks_delta=self.alloc_blocks_delta,
        )

    def host_track_events(self) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        for p in self.profilers:
            events.extend(p.host_track_events())
        return events


@contextmanager
def capture(
    sample: int = 1,
    keep_slices: bool = False,
    max_slices: int = DEFAULT_MAX_SLICES,
) -> Iterator[Capture]:
    """Profile every Simulator constructed inside the block.

    GC and allocation deltas are tracked once for the whole block (a
    per-profiler count would double-count when a scenario builds
    several simulators).
    """
    from repro.sim import scheduler as _scheduler

    cap = Capture(sample, keep_slices, max_slices)

    def hook(sim: Any) -> None:
        prof = HostProfiler(
            sample=cap.sample,
            keep_slices=cap.keep_slices,
            max_slices=cap.max_slices,
        )
        prof._epoch_ns = cap._t0
        prof.attach(sim)
        cap.profilers.append(prof)

    def gc_callback(phase: str, info: dict) -> None:
        if phase == "stop":
            cap.gc_collections += 1
            cap.gc_collected += info.get("collected", 0)
            cap.gc_uncollectable += info.get("uncollectable", 0)

    _scheduler._new_sim_hooks.append(hook)
    gc.callbacks.append(gc_callback)
    blocks0 = sys.getallocatedblocks()
    cap._t0 = perf_counter_ns()
    try:
        yield cap
    finally:
        cap.wall_ns = perf_counter_ns() - cap._t0
        cap.alloc_blocks_delta = sys.getallocatedblocks() - blocks0
        gc.callbacks.remove(gc_callback)
        _scheduler._new_sim_hooks.remove(hook)
        for prof in cap.profilers:
            prof.stop()


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------


def format_report(report: dict, title: str = "host-time budget") -> str:
    """Render one report as the terminal table ``repro perf`` prints."""
    events = report["events"]
    host = report["host"]
    lines = [title]
    lines.append(
        f"  events: {events['executed']:,} executed "
        f"({events['timed']:,} timed, sample={report['sample']}), "
        f"{events['scheduled']:,} scheduled, "
        f"{events['cancelled_pops']:,} cancelled pops, "
        f"{events['generator_switches']:,} generator switches, "
        f"max heap {events['max_heap']:,}"
    )
    lines.append(
        f"  host: {host['wall_ns'] / 1e9:.3f} s wall for "
        f"{host['sim_ms']:.1f} sim-ms across {report['simulators']} "
        f"simulator(s) — {host['sim_events_per_s']:,.0f} sim-events/s, "
        f"{host['us_per_event']:.2f} µs/event"
    )
    if "gc" in report:
        gc_stats = report["gc"]
        alloc = report.get("alloc", {}).get("blocks_delta")
        lines.append(
            f"  gc: {gc_stats['collections']} collection(s), "
            f"{gc_stats['collected']} collected, "
            f"{gc_stats['uncollectable']} uncollectable"
            + (f"; alloc blocks delta {alloc:+,}" if alloc is not None else "")
        )
    exec_ns = host["exec_ns"]
    lines.append(
        f"  attribution over {exec_ns / 1e6:.2f} ms of measured event "
        f"execution (+ {host['scheduler_ns'] / 1e6:.2f} ms outside callbacks):"
    )
    lines.append(
        f"    {'component':<12}{'events':>10}  {'host-ms':>9}  {'share':>6}"
    )
    for comp, row in sorted(
        events["by_component"].items(), key=lambda kv: -kv[1]["host_ns"]
    ):
        lines.append(
            f"    {comp:<12}{row['count']:>10,}  "
            f"{row['host_ns'] / 1e6:>9.2f}  {row['share'] * 100:>5.1f}%"
        )
    lines.append("  event kinds:")
    for kind, row in sorted(
        events["by_kind"].items(), key=lambda kv: -kv[1]["host_ns"]
    ):
        lines.append(
            f"    {kind:<16}{row['count']:>10,}  {row['host_ns'] / 1e6:>9.2f} ms"
        )
    if report["sites"]:
        lines.append("  hottest sites:")
        lines.append(
            f"    {'host-ms':>8}  {'count':>9}  {'ns/event':>9}  site"
        )
        for s in report["sites"]:
            lines.append(
                f"    {s['host_ns'] / 1e6:>8.2f}  {s['count']:>9,}  "
                f"{s.get('ns_per_event', 0):>9,.0f}  "
                f"{s['site']}  [{s['component']}/{s['kind']}]"
            )
    return "\n".join(lines)

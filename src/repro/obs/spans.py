"""Per-operation span trees and the one report of a traced Fig. 7 run
(``python -m repro trace``).

Given the flight-recorder trace of a run and one :class:`OpWindow` per
client-observed operation, this module answers *for each individual
operation* what happened, in causal order, on which node, and how long
every hop took:

* :func:`stitch` groups the flight recorder's lineage-stamped
  :class:`~repro.obs.trace.TraceEvent`\\ s into one :class:`OpSpan`
  per client-observed operation — a causal tree following the update
  path submit → sequence → deliver → apply → persist → reply;
* every span splits its end-to-end latency into **ten adjacent
  segments** (:data:`SEGMENT_ORDER`) measured between consecutive
  markers on the handling server's critical path, so the segments sum
  to the client-observed latency *exactly*;
* :func:`phases_from_span` folds the segments into the paper's four
  cost components (section 4, discussion of Fig. 7);
* :func:`budget` aggregates spans into the one deterministic report:
  the phases averaged per operation kind and per benchmark iteration,
  p50/p95/p99 per segment, the top-K slowest operations with their
  full trees, and stragglers whose segment *mix* deviates from their
  kind's profile (not merely slow — differently shaped);
  :func:`format_report` renders it, phase table first;
* :func:`span_track_events` renders the spans as synthetic trace
  events on a ``profile`` pseudo-node, one Chrome-trace track per
  operation lineage (exported beside the raw events, for Perfetto).

Fan-in is modelled, not hidden: a group-commit batch (PR 3) persists
many operations under one disk operation, so their spans share the
persist interval and carry ``fan_in = batch size``. Dedup
short-circuits (PR 4) yield degenerate spans flagged ``dedup`` whose
persist segment is ~0 — the reply came from the session cache.

The spans read here come from one traced Fig. 7 run,
:func:`repro.bench.harness.run_solo`. :func:`check_against_benchmark`
imports the harness inside the function only: the harness imports
:class:`OpWindow` from here, and :mod:`repro.obs` stays free of
simulator imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.export import _plain
from repro.obs.registry import Histogram
from repro.obs.trace import TraceEvent

_EPS = 1e-9

#: The write path's ten adjacent segments, in causal order. Measured
#: between consecutive critical-path markers, so they telescope: their
#: sum is the client-observed latency exactly.
SEGMENT_ORDER = (
    "wire_request",   # client send -> dir.write.recv
    "pre_submit",     # recv -> grp.submit (unmarshal, check injection)
    "sequencer",      # submit -> grp.send.committed (kernel round trip)
    "delivery",       # committed -> grp.deliver (kernel -> applier)
    "apply_wait",     # deliver -> dir.apply.start (applier backlog)
    "apply",          # apply.start -> dir.persist.start (state change)
    "persist",        # persist.start -> persist.end (disk / NVRAM)
    "post_persist",   # persist.end -> dir.apply.end (bookkeeping)
    "reply_send",     # apply.end -> dir.write.reply (result marshal)
    "wire_reply",     # reply -> client receive
)

#: Reads never enter the group: three segments only.
READ_SEGMENTS = ("wire_request", "service", "wire_reply")

#: A straggler is an op one of whose segments claims this much more of
#: the total than that segment's mean share across its op kind.
STRAGGLER_SHARE_DELTA = 0.25
#: ... provided the segment is at least this big (absolute floor so a
#: 0.2 ms op cannot be a straggler by jitter alone).
STRAGGLER_MIN_MS = 1.0


@dataclass
class OpWindow:
    """One client-observed operation: its kind and [start, end] ms."""

    op: str
    start: float
    end: float
    pair: int  # iteration index; append+delete of one pair share it


class AttributionError(ValueError):
    """The trace lacks the markers an operation window needs."""


@dataclass
class Span:
    """One node of a causal span tree: a named [start, end] interval."""

    name: str
    node: str
    start: float
    end: float
    args: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "node": str(self.node),
            "start_ms": round(self.start, 6),
            "dur_ms": round(self.dur, 6),
        }
        if self.args:
            out["args"] = {
                str(k): _plain(v) for k, v in sorted(self.args.items())
            }
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out


@dataclass
class OpSpan:
    """One stitched operation: its tree, segments, and annotations."""

    op: str
    pair: int
    lineage: tuple | None
    node: str
    start: float
    end: float
    root: Span
    segments: dict
    storage: str | None = None  # "disk" | "nvram" | None (reads)
    fan_in: int = 1             # ops sharing this span's persist write
    dedup: bool = False         # reply served from the session cache
    disk_queue_ms: float = 0.0  # arm contention inside persist
    disk_service_ms: float = 0.0  # pure device time inside persist

    @property
    def total(self) -> float:
        return self.end - self.start

    def critical_path(self) -> list:
        """The chain of longest spans, root downward."""
        path = []
        span = self.root
        while span.children:
            span = max(span.children, key=lambda s: (s.dur, -s.start))
            path.append(span)
        return path

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "pair": self.pair,
            "lineage": _plain(self.lineage),
            "node": str(self.node),
            "total_ms": round(self.total, 6),
            "segments_ms": {
                k: round(v, 6) for k, v in self.segments.items()
            },
            "storage": self.storage,
            "fan_in": self.fan_in,
            "dedup": self.dedup,
            "disk_queue_ms": round(self.disk_queue_ms, 6),
            "disk_service_ms": round(self.disk_service_ms, 6),
            "critical_path": [s.name for s in self.critical_path()],
            "tree": self.root.as_dict(),
        }


# ----------------------------------------------------------------------
# stitching
# ----------------------------------------------------------------------


def _first(events, predicate):
    for event in events:
        if predicate(event):
            return event
    return None


def stitch_window(events, window: OpWindow) -> OpSpan:
    """Stitch one client-observed operation window into an OpSpan."""
    inside = [
        e for e in events
        if window.start - _EPS <= e.ts <= window.end + _EPS
    ]
    recv = _first(
        inside, lambda e: e.name in ("dir.write.recv", "dir.read.recv")
    )
    if recv is None:
        raise AttributionError(
            f"no dir.*.recv marker inside window for {window.op!r} "
            f"[{window.start:.3f}, {window.end:.3f}]"
        )
    if recv.name == "dir.read.recv":
        return _stitch_read(inside, window, recv)
    return _stitch_write(events, inside, window, recv)


def _stitch_read(inside, window, recv) -> OpSpan:
    node = recv.node
    reply = _first(
        inside,
        lambda e: e.name == "dir.read.reply"
        and e.node == node
        and e.lineage == recv.lineage,
    )
    if reply is None:
        raise AttributionError(f"no dir.read.reply for {window.op!r} on {node}")
    segments = {
        "wire_request": recv.ts - window.start,
        "service": reply.ts - recv.ts,
        "wire_reply": window.end - reply.ts,
    }
    return OpSpan(
        window.op, window.pair, recv.lineage, node,
        window.start, window.end, _segment_tree(window, node, segments), segments,
    )


def _segment_tree(window, node, segments: dict) -> Span:
    """The operation's root span over one child per segment, laid end
    to end in the order *segments* lists them."""
    root = Span(f"{window.op} #{window.pair}", node, window.start, window.end)
    cursor = window.start
    for name, dur in segments.items():
        root.children.append(Span(name, node, cursor, cursor + dur))
        cursor += dur
    return root


def _stitch_write(events, inside, window, recv) -> OpSpan:
    node = recv.node
    lineage = recv.lineage
    mine = [e for e in inside if e.node == node]

    def marker(name, pool=None):
        found = _first(
            pool if pool is not None else mine,
            lambda e: e.name == name and e.lineage == lineage,
        )
        if found is None:
            raise AttributionError(
                f"no {name} for lineage {lineage} on {node} "
                f"({window.op!r} #{window.pair})"
            )
        return found

    submit = marker("grp.submit")
    committed = marker("grp.send.committed")
    deliver = marker("grp.deliver")
    apply_start = marker("dir.apply.start")
    apply_end = marker("dir.apply.end")

    # The persist pair. A group-commit batch persists under the batch
    # head's lineage, so a non-head op falls back to the pair that
    # brackets its apply interval (applies are serialized per node:
    # that pair is the one that served it).
    persist_start = _first(
        mine, lambda e: e.name == "dir.persist.start" and e.lineage == lineage
    )
    if persist_start is not None:
        persist_end = marker("dir.persist.end")
    else:
        persist_start = _first(
            mine,
            lambda e: e.name == "dir.persist.start"
            and apply_start.ts - _EPS <= e.ts <= apply_end.ts + _EPS,
        )
        if persist_start is None:
            raise AttributionError(
                f"no persist pair covering {window.op!r} #{window.pair} "
                f"on {node}"
            )
        persist_end = _first(
            mine,
            lambda e: e.name == "dir.persist.end"
            and e.lineage == persist_start.lineage
            and e.ts >= persist_start.ts,
        )
        if persist_end is None:
            raise AttributionError(
                f"unterminated persist for {window.op!r} on {node}"
            )
    reply = marker("dir.write.reply")

    segments = {
        "wire_request": recv.ts - window.start,
        "pre_submit": submit.ts - recv.ts,
        "sequencer": committed.ts - submit.ts,
        "delivery": deliver.ts - committed.ts,
        "apply_wait": apply_start.ts - deliver.ts,
        "apply": persist_start.ts - apply_start.ts,
        "persist": persist_end.ts - persist_start.ts,
        "post_persist": apply_end.ts - persist_end.ts,
        "reply_send": reply.ts - apply_end.ts,
        "wire_reply": window.end - reply.ts,
    }

    root = _segment_tree(window, node, segments)
    by_name = {child.name: child for child in root.children}

    # Group-protocol sub-spans: the kernel hops (on whichever node
    # they happened) nested under the sequencer segment.
    seq_span = by_name["sequencer"]
    for e in events:
        if (
            e.lineage == lineage
            and e.name in ("grp.sequence", "grp.bc.rx")
            and submit.ts - _EPS <= e.ts <= committed.ts + _EPS
        ):
            seq_span.children.append(
                Span(e.name, e.node, e.ts, e.ts, dict(e.args or {}))
            )
    seq_span.children.sort(key=lambda s: (s.start, s.node, s.name))

    # Storage sub-spans: disk / NVRAM operations carrying this span's
    # persist lineage inside the persist interval. Their queue args
    # split the persist segment into arm-contention vs device time.
    persist_span = by_name["persist"]
    disk_queue = disk_service = 0.0
    for e in events:
        if (
            e.cat in ("disk", "nvram")
            and e.lineage == persist_start.lineage
            and persist_start.ts - _EPS <= e.ts <= persist_end.ts + _EPS
        ):
            args = dict(e.args or {})
            persist_span.children.append(
                Span(e.name, e.node, e.ts, e.ts + e.dur, args)
            )
            if e.cat == "disk":
                disk_service += e.dur
                disk_queue += float(args.get("queue", 0.0))
    persist_span.children.sort(key=lambda s: (s.start, s.node, s.name))

    fan_in = int((persist_start.args or {}).get("batch", 1))
    if fan_in > 1:
        persist_span.args["fan_in"] = fan_in
    dedup = bool((apply_end.args or {}).get("dedup", False))
    storage = (persist_start.args or {}).get("storage", "disk")

    return OpSpan(
        window.op, window.pair, lineage, node,
        window.start, window.end, root, segments,
        storage=storage, fan_in=fan_in, dedup=dedup,
        disk_queue_ms=disk_queue, disk_service_ms=disk_service,
    )


def stitch(events, windows) -> list:
    """Stitch every window; one OpSpan per client operation."""
    return [stitch_window(events, w) for w in windows]


# ----------------------------------------------------------------------
# aggregation: the latency-budget report
# ----------------------------------------------------------------------


def _dist(values) -> dict:
    """Mean and p50/p95/p99: the registry's percentile with unit
    weights, which is the nearest rank."""
    hist = Histogram()
    for value in values:
        hist.observe(value)
    return {
        "mean": round(sum(values) / len(values), 6),
        "p50": round(hist.percentile(50), 6),
        "p95": round(hist.percentile(95), 6),
        "p99": round(hist.percentile(99), 6),
    }


def budget(spans, top: int = 3) -> dict:
    """Aggregate spans into the solo lens's deterministic report.

    Returns a JSON-safe dict: the paper's phases
    (:func:`phases_from_span`) averaged per op kind and per benchmark
    iteration (the ops of one pair summed, e.g. append + delete, which
    is what :func:`repro.bench.harness.fig7_cell` measures);
    per-op-kind totals and per-segment p50/p95/p99 + mean share; the
    *top* slowest operations with their full span trees, straggler
    flags, and fan-in/dedup counts.
    """
    by_op: dict = {}
    by_pair: dict = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)
        by_pair.setdefault(s.pair, []).append(s)

    ops = {}
    shares: dict = {}  # (op, segment) -> mean share of total
    for op, items in sorted(by_op.items()):
        totals = [s.total for s in items]
        order = READ_SEGMENTS if "sequencer" not in items[0].segments else SEGMENT_ORDER
        segs = {}
        for name in order:
            values = [s.segments.get(name, 0.0) for s in items]
            share = sum(
                (s.segments.get(name, 0.0) / s.total) if s.total else 0.0
                for s in items
            ) / len(items)
            shares[(op, name)] = share
            segs[name] = {**_dist(values), "share": round(share, 4)}
        ops[op] = {
            "count": len(items),
            "total_ms": _dist(totals),
            "segments_ms": segs,
        }

    stragglers = []
    for s in spans:
        for name, value in s.segments.items():
            if value < STRAGGLER_MIN_MS or not s.total:
                continue
            share = value / s.total
            mean_share = shares[(s.op, name)]
            if share > mean_share + STRAGGLER_SHARE_DELTA:
                stragglers.append(
                    {
                        "op": s.op,
                        "pair": s.pair,
                        "segment": name,
                        "segment_ms": round(value, 6),
                        "share": round(share, 4),
                        "mean_share": round(mean_share, 4),
                    }
                )
    stragglers.sort(key=lambda d: (-(d["share"] - d["mean_share"]), d["op"], d["pair"]))

    slowest = sorted(spans, key=lambda s: (-s.total, s.op, s.pair))[:top]
    return {
        "operations": len(spans),
        "phases": {
            "ops": {
                op: _phase_means([s] for s in items)
                for op, items in sorted(by_op.items())
            },
            "iteration": _phase_means(group for _, group in sorted(by_pair.items())),
        },
        "ops": ops,
        "top": [s.as_dict() for s in slowest],
        "stragglers": stragglers,
        "fan_in_max": max((s.fan_in for s in spans), default=0),
        "shared_persist_ops": sum(1 for s in spans if s.fan_in > 1),
        "dedup_ops": sum(1 for s in spans if s.dedup),
    }


# ----------------------------------------------------------------------
# the Fig. 7 phase table
# ----------------------------------------------------------------------

#: Column order for tables and JSON output.
PHASE_ORDER = ("wire", "sequencer", "compute", "disk", "nvram")


def phases_from_span(span: OpSpan) -> dict:
    """One operation's latency as the paper's cost components.

    * **wire** — request and reply transit between the client and the
      server that handled the operation (including FLIP locate costs);
    * **sequencer** — from handing the update to the group kernel until
      the kernel reports it committed (broadcast to the sequencer, the
      sequenced broadcast back, commit propagation);
    * **disk** / **nvram** — the persistence stage of the apply pipeline
      (two Bullet+object-table disk subsystems, or the board append);
    * **compute** — everything else on the server's critical path
      (marshalling, state application, scheduling gaps).

    ``compute`` is the residual, so the phases sum to the
    client-observed latency exactly and nothing is silently dropped.
    """
    segments = span.segments
    phases = {"wire": segments["wire_request"] + segments["wire_reply"]}
    if "sequencer" in segments:  # reads never enter the kernel or touch storage
        phases["sequencer"] = segments["sequencer"]
        phases[span.storage] = segments["persist"]
    phases["compute"] = span.total - sum(phases.values())
    return phases


def _phase_means(groups) -> dict:
    """Count, mean total and mean of each phase over *groups* of spans,
    each group's totals and phases summed first (a group is one span
    for an op kind's row, one pair's ops for the iteration row). Left
    unrounded: the benchmark cross-check reads the iteration total."""
    rows = []
    for group in groups:
        summed: dict = {}
        for span in group:
            for key, value in phases_from_span(span).items():
                summed[key] = summed.get(key, 0.0) + value
        rows.append((sum(span.total for span in group), summed))
    n = len(rows)
    block = {"count": n, "total_ms": sum(total for total, _ in rows) / n}
    for key in sorted({k for _, phases in rows for k in phases}):
        block[key] = sum(phases.get(key, 0.0) for _, phases in rows) / n
    return block


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def span_track_events(spans) -> list:
    """Synthetic trace events: one Chrome-trace track per operation.

    All spans live on a ``profile`` pseudo-node (one Perfetto process
    next to the real machines); each operation's lineage is its own
    thread track, its segments rendered as complete ("X") slices.
    """
    out = []
    for s in spans:
        track = f"{s.op} #{s.pair}"
        out.append(
            TraceEvent(
                s.start, "profile", track, "op", ph="X", dur=s.total,
                lineage=s.lineage,
                args={"node": str(s.node), "fan_in": s.fan_in, "dedup": s.dedup},
            )
        )
        for child in s.root.children:
            if child.dur <= 0.0:
                continue
            out.append(
                TraceEvent(
                    child.start, "profile", track, child.name,
                    ph="X", dur=child.dur, lineage=s.lineage,
                    args=dict(child.args) or None,
                )
            )
    return out


def format_report(report: dict, scenario: str, impl: str) -> str:
    """:func:`budget`'s report as text (byte-stable): the phase table,
    then each op kind's segment budget, the stragglers and the slowest
    operations' trees."""
    lines = _phase_table(report["phases"], scenario, impl) + [
        "",
        f"Per-operation latency budget — scenario={scenario} impl={impl}",
        f"({report['operations']} operations; segments sum to the "
        "client-observed latency exactly)",
        "",
    ]
    header = f"  {'segment':<14}{'mean':>9}{'p50':>9}{'p95':>9}{'p99':>9}{'share':>8}"
    for op, block in report["ops"].items():
        total = block["total_ms"]
        lines += [
            f"{op}  n={block['count']}  total p50={total['p50']:.3f} "
            f"p95={total['p95']:.3f} p99={total['p99']:.3f} "
            f"mean={total['mean']:.3f} ms",
            header,
            "  " + "-" * (len(header) - 2),
        ]
        for name, seg in block["segments_ms"].items():
            lines.append(
                f"  {name:<14}{seg['mean']:>9.3f}{seg['p50']:>9.3f}"
                f"{seg['p95']:>9.3f}{seg['p99']:>9.3f}"
                f"{seg['share'] * 100:>7.1f}%"
            )
        lines.append("")
    lines.append(
        f"fan-in: max {report['fan_in_max']} "
        f"({report['shared_persist_ops']} op(s) sharing a persist write); "
        f"{report['dedup_ops']} dedup short-circuit(s)"
    )
    if report["stragglers"]:
        lines.append("stragglers (segment mix deviates from the op profile):")
        for s in report["stragglers"]:
            lines.append(
                f"  {s['op']} #{s['pair']}: {s['segment']} took "
                f"{s['share'] * 100:.1f}% of the op "
                f"(mean {s['mean_share'] * 100:.1f}%), {s['segment_ms']:.3f} ms"
            )
    else:
        lines.append("stragglers: none")
    lines += ["", f"top {len(report['top'])} slowest operations:"]
    for entry in report["top"]:
        lines += [
            "",
            f"{entry['op']} #{entry['pair']}  {entry['total_ms']:.3f} ms  "
            f"node={entry['node']} fan_in={entry['fan_in']} "
            f"dedup={entry['dedup']} lineage={entry['lineage']}",
            *_tree_lines(entry["tree"], 1),
            "  critical path: " + " -> ".join(entry["critical_path"]),
        ]
    return "\n".join(lines)


def _phase_table(phases: dict, scenario: str, impl: str) -> list:
    rows = dict(phases["ops"])
    if len(rows) > 1:
        rows["iteration"] = phases["iteration"]
    keys = [k for k in PHASE_ORDER if any(k in block for block in rows.values())]
    header = f"{'op':<12} {'n':>3} {'total':>9}" + "".join(f" {k:>10}" for k in keys)
    lines = [
        f"Per-phase latency breakdown — scenario={scenario} impl={impl}",
        "(simulated ms, mean over iterations; phases sum to total)",
        "",
        header,
        "-" * len(header),
    ]
    for op, block in rows.items():
        line = f"{op:<12} {block['count']:>3} {block['total_ms']:>9.3f}"
        for key in keys:
            value = block.get(key)
            line += f" {value:>10.3f}" if value is not None else f" {'-':>10}"
        lines.append(line)
    return lines


def _tree_lines(tree: dict, indent: int) -> list:
    args = tree.get("args") or {}
    lines = [
        f"{'  ' * indent}{tree['name']:<{max(2, 24 - 2 * indent)}}"
        f"{tree['dur_ms']:>9.3f} ms  @{tree['node']}"
        + (
            " " + " ".join(f"{k}={v}" for k, v in sorted(args.items()))
            if args
            else ""
        )
    ]
    for child in tree.get("children", ()):
        lines.extend(_tree_lines(child, indent + 1))
    return lines


# ----------------------------------------------------------------------
# the traced run against the untraced benchmark
# ----------------------------------------------------------------------

#: Tracing is passive, so a traced run and an untraced one of the same
#: seed follow the same schedule: their totals may differ by float
#: rounding of the per-operation sums and by nothing else.
TRACED_VS_UNTRACED_TOLERANCE = 1e-9


def check_against_benchmark(run, report: dict) -> dict:
    """Compare the per-iteration total of *report* (:func:`budget` of a
    :func:`~repro.bench.harness.run_solo` run's spans) against an
    untraced :func:`fig7_cell` run of the same cell.

    Returns ``{"benchmark_ms", "traced_ms", "relative_error", "ok"}``.
    The benchmark runs fresh (same seed/iterations), so this verifies
    both that tracing does not perturb the simulation and that the
    phase decomposition accounts for the full latency.
    """
    from repro.bench.harness import FIG7_TEST, SCENARIOS, fig7_cell

    benchmark = fig7_cell(
        run.impl, FIG7_TEST[SCENARIOS[run.scenario][1]],
        iterations=run.iterations, seed=run.seed,
    )
    traced = report["phases"]["iteration"]["total_ms"]
    error = abs(traced - benchmark) / benchmark if benchmark else 0.0
    return {
        "benchmark_ms": round(benchmark, 6),
        "traced_ms": round(traced, 6),
        "relative_error": error,
        "ok": error <= TRACED_VS_UNTRACED_TOLERANCE,
    }

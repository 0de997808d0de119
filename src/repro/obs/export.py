"""Trace exporters: JSONL, Chrome trace-event JSON, text timeline.

* :func:`to_jsonl` — one canonical JSON object per line, keys sorted,
  compact separators. Byte-identical for identical event streams, so
  the determinism tests diff it directly and the chaos flight recorder
  dumps it next to failing seeds.
* :func:`to_chrome_trace` — the Chrome trace-event format (the
  ``traceEvents`` array form). Open the file at https://ui.perfetto.dev
  or ``chrome://tracing``; each simulated machine/device is its own
  process track (pid) and each event category its own thread (tid).
* :func:`to_text` — a human-readable timeline for terminals and diffs.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.obs.trace import TraceEvent


def _plain(value: Any) -> Any:
    """Coerce *value* into canonical JSON-representable data."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return repr(value)


def event_as_dict(event: TraceEvent) -> dict:
    """Canonical dict form of one event (shared by every exporter)."""
    out: dict = {
        "ts": round(event.ts, 6),
        "node": str(event.node),
        "cat": event.cat,
        "name": event.name,
        "ph": event.ph,
    }
    if event.ph == "X":
        out["dur"] = round(event.dur, 6)
    if event.lineage is not None:
        out["lineage"] = _plain(event.lineage)
    if event.args:
        out["args"] = _plain(event.args)
    return out


def to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize events as canonical JSON Lines (byte-stable)."""
    lines = [
        json.dumps(event_as_dict(e), sort_keys=True, separators=(",", ":"))
        for e in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Build a Chrome trace-event document (one process track per node)."""
    events = list(events)
    nodes = sorted({str(e.node) for e in events})
    pid_of = {node: i + 1 for i, node in enumerate(nodes)}
    tids: dict[tuple[int, str], int] = {}
    trace_events: list[dict] = []
    for node in nodes:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid_of[node],
                "tid": 0,
                "args": {"name": node},
            }
        )
    for event in events:
        pid = pid_of[str(event.node)]
        tid_key = (pid, event.cat)
        tid = tids.get(tid_key)
        if tid is None:
            tid = tids[tid_key] = len([k for k in tids if k[0] == pid]) + 1
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": event.cat},
                }
            )
        args = {str(k): _plain(v) for k, v in (event.args or {}).items()}
        if event.lineage is not None:
            args["lineage"] = str(_plain(event.lineage))
        entry: dict = {
            "name": event.name,
            "cat": event.cat,
            "pid": pid,
            "tid": tid,
            "ts": round(event.ts * 1000.0, 3),  # trace format wants µs
            "args": args,
        }
        if event.ph == "X":
            entry["ph"] = "X"
            entry["dur"] = round(event.dur * 1000.0, 3)
        elif event.ph == "C":
            # Counter track (saturation sampler): Perfetto plots each
            # args key as a series on a per-process counter lane.
            entry["ph"] = "C"
        else:
            entry["ph"] = "i"
            entry["s"] = "t"  # instant scoped to its thread
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def to_text(events: Iterable[TraceEvent]) -> str:
    """Render a fixed-width text timeline (one line per event)."""
    lines = []
    for e in events:
        extra = ""
        if e.ph == "X":
            extra += f" dur={e.dur:.3f}ms"
        if e.lineage is not None:
            extra += f" lineage={_plain(e.lineage)!r}"
        if e.args:
            pairs = " ".join(f"{k}={_plain(v)!r}" for k, v in sorted(e.args.items()))
            extra += f" {pairs}"
        lines.append(
            f"{e.ts:12.3f} ms  {str(e.node):<18} {e.cat:<7} {e.name:<22}{extra}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(events: Iterable[TraceEvent], path: str, fmt: str = "jsonl") -> None:
    """Write events to *path* in *fmt* (``jsonl``/``chrome``/``text``)."""
    events = list(events)
    if fmt == "jsonl":
        payload = to_jsonl(events)
    elif fmt == "chrome":
        payload = json.dumps(to_chrome_trace(events), sort_keys=True)
    elif fmt == "text":
        payload = to_text(events)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)

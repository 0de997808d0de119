"""Span-profiler tests: stitching, telescoping, fan-in, determinism."""

import json

import pytest

from repro.obs.spans import (
    READ_SEGMENTS,
    SEGMENT_ORDER,
    AttributionError,
    OpWindow,
    budget,
    format_report,
    percentile,
    phases_from_span,
    profile_run,
    span_track_events,
    stitch,
    stitch_window,
)
from repro.obs.trace import TraceEvent


def _write_events(lineage, base=10.0, node="m0"):
    """A full, well-formed write-path marker set for one operation."""
    t = base
    return [
        TraceEvent(t + 1.0, node, "dir", "dir.write.recv", lineage=lineage),
        TraceEvent(t + 2.0, node, "group", "grp.submit", lineage=lineage),
        TraceEvent(t + 2.5, "m1", "group", "grp.sequence", lineage=lineage),
        TraceEvent(t + 3.0, node, "group", "grp.bc.rx", lineage=lineage),
        TraceEvent(
            t + 5.0, node, "group", "grp.send.committed", lineage=lineage
        ),
        TraceEvent(t + 6.0, node, "group", "grp.deliver", lineage=lineage),
        TraceEvent(t + 7.0, node, "dir", "dir.apply.start", lineage=lineage),
        TraceEvent(
            t + 8.0, node, "dir", "dir.persist.start", lineage=lineage,
            args={"storage": "disk"},
        ),
        TraceEvent(
            t + 8.5, node, "disk", "disk.random", ph="X", dur=2.0,
            lineage=lineage, args={"queue": 0.5, "bytes": 64},
        ),
        TraceEvent(t + 11.0, node, "dir", "dir.persist.end", lineage=lineage),
        TraceEvent(t + 11.5, node, "dir", "dir.apply.end", lineage=lineage),
        TraceEvent(t + 12.0, node, "dir", "dir.write.reply", lineage=lineage),
    ]


class TestWriteStitching:
    LINEAGE = ("m0", 1, 7)
    WINDOW = OpWindow("append", 10.0, 23.0, 0)

    def span(self):
        return stitch_window(_write_events(self.LINEAGE), self.WINDOW)

    def test_segments_telescope_to_total(self):
        span = self.span()
        assert tuple(span.segments) == SEGMENT_ORDER
        assert sum(span.segments.values()) == pytest.approx(span.total)
        assert span.total == pytest.approx(13.0)

    def test_individual_segments(self):
        segments = self.span().segments
        assert segments["wire_request"] == pytest.approx(1.0)
        assert segments["sequencer"] == pytest.approx(3.0)
        assert segments["persist"] == pytest.approx(3.0)
        assert segments["wire_reply"] == pytest.approx(1.0)

    def test_kernel_hops_nested_under_sequencer(self):
        span = self.span()
        seq = next(c for c in span.root.children if c.name == "sequencer")
        assert [c.name for c in seq.children] == ["grp.sequence", "grp.bc.rx"]
        assert seq.children[0].node == "m1"  # hop on another machine

    def test_storage_nested_under_persist_with_queue_split(self):
        span = self.span()
        persist = next(c for c in span.root.children if c.name == "persist")
        assert [c.name for c in persist.children] == ["disk.random"]
        assert span.disk_service_ms == pytest.approx(2.0)
        assert span.disk_queue_ms == pytest.approx(0.5)
        assert span.storage == "disk"

    def test_critical_path_is_longest_chain(self):
        path = [s.name for s in self.span().critical_path()]
        assert path[0] in ("sequencer", "persist")
        assert path == ["sequencer", "grp.sequence"] or path[-1] == "disk.random"

    def test_missing_marker_raises(self):
        events = [
            e for e in _write_events(self.LINEAGE)
            if e.name != "grp.deliver"
        ]
        with pytest.raises(AttributionError):
            stitch_window(events, self.WINDOW)

    def test_no_recv_raises(self):
        with pytest.raises(AttributionError):
            stitch_window([], self.WINDOW)


class TestFanIn:
    """Two ops persisted by one batched write share the persist pair."""

    def events(self):
        head = ("m0", 1, 1)
        rider = ("m0", 1, 2)
        events = []
        for lng, recv in ((head, 11.0), (rider, 11.1)):
            events += [
                TraceEvent(recv, "m0", "dir", "dir.write.recv", lineage=lng),
                TraceEvent(recv + 0.5, "m0", "group", "grp.submit", lineage=lng),
                TraceEvent(
                    recv + 2.0, "m0", "group", "grp.send.committed", lineage=lng
                ),
                TraceEvent(recv + 2.5, "m0", "group", "grp.deliver", lineage=lng),
                TraceEvent(
                    recv + 6.5, "m0", "dir", "dir.apply.end", lineage=lng
                ),
                TraceEvent(
                    recv + 7.0, "m0", "dir", "dir.write.reply", lineage=lng
                ),
            ]
        # Applies serialize: the rider's apply interval brackets the
        # head's persist pair, which carries the whole batch.
        events += [
            TraceEvent(13.6, "m0", "dir", "dir.apply.start", lineage=head),
            TraceEvent(13.7, "m0", "dir", "dir.apply.start", lineage=rider),
            TraceEvent(
                14.0, "m0", "dir", "dir.persist.start", lineage=head,
                args={"storage": "disk", "batch": 2},
            ),
            TraceEvent(17.0, "m0", "dir", "dir.persist.end", lineage=head),
        ]
        events.sort(key=lambda e: e.ts)
        return events, head, rider

    def windows(self):
        return [
            OpWindow("append", 10.0, 19.0, 0),
            OpWindow("append", 10.1, 19.1, 1),
        ]

    def test_rider_adopts_head_persist_pair(self):
        events, head, rider = self.events()
        spans = stitch(events, self.windows())
        assert [s.fan_in for s in spans] == [2, 2]
        assert all(s.segments["persist"] == pytest.approx(3.0) for s in spans)
        # Both segment sets still telescope exactly.
        for s in spans:
            assert sum(s.segments.values()) == pytest.approx(s.total)

    def test_budget_counts_shared_persists(self):
        events, _, _ = self.events()
        report = budget(stitch(events, self.windows()))
        assert report["fan_in_max"] == 2
        assert report["shared_persist_ops"] == 2


class TestDedup:
    def test_degenerate_span_flagged(self):
        lineage = ("m0", 2, 9)
        events = [
            TraceEvent(11.0, "m0", "dir", "dir.write.recv", lineage=lineage),
            TraceEvent(11.5, "m0", "group", "grp.submit", lineage=lineage),
            TraceEvent(
                13.0, "m0", "group", "grp.send.committed", lineage=lineage
            ),
            TraceEvent(13.5, "m0", "group", "grp.deliver", lineage=lineage),
            TraceEvent(14.0, "m0", "dir", "dir.apply.start", lineage=lineage),
            TraceEvent(14.0, "m0", "dir", "dir.persist.start", lineage=lineage),
            TraceEvent(14.0, "m0", "dir", "dir.persist.end", lineage=lineage),
            TraceEvent(
                14.0, "m0", "dir", "dir.apply.end", lineage=lineage,
                args={"dedup": True},
            ),
            TraceEvent(14.5, "m0", "dir", "dir.write.reply", lineage=lineage),
        ]
        span = stitch_window(events, OpWindow("append", 10.0, 15.0, 0))
        assert span.dedup
        assert span.segments["persist"] == pytest.approx(0.0)
        report = budget([span])
        assert report["dedup_ops"] == 1


class TestAggregation:
    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.50) == 3.0
        assert percentile(values, 0.95) == 5.0
        assert percentile(values, 0.99) == 5.0
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.01) == 7.0

    def test_straggler_flags_deviant_segment_mix(self):
        windows, events = [], []
        # Nine ops with persist ~3 ms; one with persist 15 ms (and a
        # correspondingly longer window) — same total shape otherwise.
        for i in range(10):
            lineage = ("m0", 1, i)
            base = 100.0 * i
            evs = _write_events(lineage, base=base)
            if i == 9:  # stretch the persist pair by 12 ms
                stretched = []
                for e in evs:
                    if e.name in (
                        "dir.persist.end", "dir.apply.end", "dir.write.reply"
                    ):
                        e = TraceEvent(
                            e.ts + 12.0, e.node, e.cat, e.name,
                            lineage=e.lineage, args=e.args,
                        )
                    stretched.append(e)
                evs = stretched
            events += evs
            end = base + 13.0 + (12.0 if i == 9 else 0.0)
            windows.append(OpWindow("append", base, end, i))
        report = budget(stitch(events, windows))
        flagged = [
            (s["pair"], s["segment"]) for s in report["stragglers"]
        ]
        assert (9, "persist") in flagged

    def test_report_formats_and_is_byte_stable(self):
        events = _write_events(("m0", 1, 0))
        spans = stitch(events, [OpWindow("append", 10.0, 23.0, 0)])
        report = budget(spans)
        text = format_report(report, "update", "group")
        assert "Per-operation latency budget" in text
        assert "append" in text and "persist" in text
        assert text == format_report(budget(spans), "update", "group")


class TestReconciliation:
    def test_phases_from_span_conserve_total(self):
        span = stitch_window(
            _write_events(("m0", 1, 0)), OpWindow("append", 10.0, 23.0, 0)
        )
        phases = phases_from_span(span)
        assert sum(phases.values()) == pytest.approx(span.total)
        assert phases["wire"] == pytest.approx(2.0)
        assert phases["sequencer"] == pytest.approx(3.0)
        assert phases["disk"] == pytest.approx(3.0)


class TestExports:
    def test_one_track_per_operation(self):
        events = _write_events(("m0", 1, 0)) + _write_events(
            ("m0", 1, 1), base=200.0
        )
        spans = stitch(
            events,
            [
                OpWindow("append", 10.0, 23.0, 0),
                OpWindow("delete", 200.0, 213.0, 1),
            ],
        )
        track_events = span_track_events(spans)
        assert all(e.node == "profile" for e in track_events)
        assert {e.cat for e in track_events} == {"append #0", "delete #1"}
        assert all(e.ph == "X" for e in track_events)
        roots = [e for e in track_events if e.name == "op"]
        assert len(roots) == 2
        # Zero-duration segments are dropped from the visual tracks.
        assert all(e.dur > 0.0 for e in track_events)

    def test_span_tracks_survive_chrome_export(self):
        from repro.obs.export import to_chrome_trace

        events = _write_events(("m0", 1, 0))
        spans = stitch(events, [OpWindow("append", 10.0, 23.0, 0)])
        doc = to_chrome_trace(events + span_track_events(spans))
        json.loads(json.dumps(doc))  # round-trips
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "profile" in names


class TestDeterminism:
    def test_profile_run_byte_identical(self):
        first = profile_run("update", iterations=4, seed=3)
        second = profile_run("update", iterations=4, seed=3)
        a = json.dumps(first, indent=2, sort_keys=True)
        b = json.dumps(second, indent=2, sort_keys=True)
        assert a == b

    def test_read_segments_on_lookup(self):
        result = profile_run("lookup", iterations=4, seed=0)
        segs = result["report"]["ops"]["lookup"]["segments_ms"]
        assert tuple(segs) == READ_SEGMENTS

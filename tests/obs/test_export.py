"""Exporter tests: canonical JSONL, Chrome trace validity, determinism."""

import json

from repro.obs import TraceEvent, to_chrome_trace, to_jsonl, to_text, write_trace


def sample_events():
    return [
        TraceEvent(1.0, "m0", "net", "net.send", args={"dst": "m1", "size": 64}),
        TraceEvent(1.5, "m1", "net", "net.deliver", lineage=("m0", 0.0, 1)),
        TraceEvent(2.0, "m1", "disk", "disk.random", ph="X", dur=17.5),
    ]


class TestJsonl:
    def test_one_canonical_object_per_line(self):
        lines = to_jsonl(sample_events()).splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["name"] == "net.send"
        assert first["args"] == {"dst": "m1", "size": 64}
        assert "dur" not in first  # instants carry no duration
        span = json.loads(lines[2])
        assert span["ph"] == "X" and span["dur"] == 17.5

    def test_byte_stable_for_equal_streams(self):
        assert to_jsonl(sample_events()) == to_jsonl(sample_events())

    def test_lineage_tuples_become_lists(self):
        line = to_jsonl(sample_events()).splitlines()[1]
        assert json.loads(line)["lineage"] == ["m0", 0.0, 1]

    def test_empty_stream_is_empty_string(self):
        assert to_jsonl([]) == ""


class TestChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(sample_events())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        # Round-trips through json (Perfetto/chrome://tracing loads it).
        json.loads(json.dumps(doc))

    def test_one_process_track_per_node(self):
        doc = to_chrome_trace(sample_events())
        names = {
            e["args"]["name"]: e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"m0": 1, "m1": 2}

    def test_timestamps_are_microseconds(self):
        doc = to_chrome_trace(sample_events())
        span = [e for e in doc["traceEvents"] if e.get("ph") == "X"][0]
        assert span["ts"] == 2000.0
        assert span["dur"] == 17500.0

    def test_instants_are_thread_scoped(self):
        doc = to_chrome_trace(sample_events())
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert instants and all(e["s"] == "t" for e in instants)

    def test_counter_events_keep_their_phase(self):
        # The saturation sampler's utilization timelines export as
        # Perfetto counter tracks, not instants.
        events = [
            TraceEvent(
                250.0, "m0", "saturation", "cpu.rho",
                ph="C", args={"value": 0.75},
            )
        ]
        doc = to_chrome_trace(events)
        (counter,) = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counter["name"] == "cpu.rho"
        assert counter["args"] == {"value": 0.75}
        assert counter["ts"] == 250_000.0
        assert "s" not in counter and "dur" not in counter


class TestTextAndFiles:
    def test_text_timeline_mentions_each_event(self):
        text = to_text(sample_events())
        assert "net.send" in text and "disk.random" in text
        assert "dur=17.500ms" in text

    def test_write_trace_formats(self, tmp_path):
        events = sample_events()
        for fmt, check in (
            ("jsonl", lambda s: json.loads(s.splitlines()[0])),
            ("chrome", json.loads),
            ("text", lambda s: "net.send" in s),
        ):
            path = tmp_path / f"t.{fmt}"
            write_trace(events, str(path), fmt)
            assert check(path.read_text())

    def test_unknown_format_rejected(self, tmp_path):
        try:
            write_trace([], str(tmp_path / "x"), "xml")
        except ValueError as exc:
            assert "xml" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestChromeTraceSchema:
    """Schema validity on a real traced run, span tracks included."""

    REQUIRED_KEYS = {"name", "ph", "pid", "tid"}

    def document(self):
        from repro.obs.spans import record_update_trace, span_track_events, stitch

        run = record_update_trace("update", iterations=3, seed=0)
        spans = stitch(run.events, run.windows)
        return to_chrome_trace(run.events + span_track_events(spans))

    def test_valid_json_with_required_keys(self):
        doc = self.document()
        parsed = json.loads(json.dumps(doc))
        assert parsed["traceEvents"], "expected a non-empty trace"
        for e in parsed["traceEvents"]:
            assert self.REQUIRED_KEYS <= set(e), e
            assert e["ph"] in {"M", "X", "i"}, e
            if e["ph"] != "M":  # metadata rows are timeless
                assert "ts" in e and e["ts"] >= 0.0
            if e["ph"] == "X":
                assert "dur" in e and e["dur"] >= 0.0
            if e["ph"] == "i":
                assert e["s"] == "t"  # thread-scoped instant

    def test_timestamps_monotone_per_track(self):
        doc = self.document()
        last: dict = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "M":
                continue
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(key, float("-inf")), key
            last[key] = e["ts"]
        assert last, "expected at least one event track"

    def test_span_tracks_present_one_per_operation(self):
        doc = self.document()
        profile_pid = {
            e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
            and e["name"] == "process_name"
            and e["args"]["name"] == "profile"
        }
        assert len(profile_pid) == 1
        pid = profile_pid.pop()
        tracks = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["pid"] == pid
        }
        # 3 iterations of the update scenario = 3 append + 3 delete ops.
        assert tracks == {
            f"{op} #{pair}" for op in ("append", "delete") for pair in range(3)
        }


class TestEndToEndDeterminism:
    def test_same_seed_same_bytes(self):
        """Two identical cluster runs serialize to identical JSONL."""

        def run_once():
            from repro.cluster import GroupServiceCluster

            cluster = GroupServiceCluster(seed=7)
            cluster.start()
            cluster.wait_operational()
            tracer = cluster.enable_tracing()
            client = cluster.add_client("c")

            def driver():
                target = yield from client.create_dir()
                yield from client.append_row(
                    cluster.root_capability, "k", (target,)
                )

            cluster.run_process(driver())
            return to_jsonl(tracer.events())

        first = run_once()
        second = run_once()
        assert first, "expected a non-empty trace"
        assert first == second

"""Phase spans: the one phase timer's span dicts, and their Chrome-event
rendering."""

import pytest

from repro.obs import SelfProfile, spans_to_trace_events


class TestSpanTracer:
    """Spans as :class:`SelfProfile` records them."""

    def test_begin_end_nesting(self):
        profile = SelfProfile()
        with profile.section("cell", key="abc"):
            with profile.section("measure"):
                pass
        measure, cell = profile.spans
        assert [measure["name"], cell["name"]] == ["measure", "cell"]
        assert cell["attrs"] == {"key": "abc"}
        assert "attrs" not in measure
        assert cell["start"] <= measure["start"] <= measure["end"] \
            <= cell["end"]
        assert all(s["status"] == "ok" for s in profile.spans)

    def test_context_manager_records_error_status(self):
        profile = SelfProfile()
        with pytest.raises(RuntimeError):
            with profile.section("measure"):
                raise RuntimeError("boom")
        (span,) = profile.spans
        assert span["status"] == "error"
        assert span["end"] >= span["start"]


class TestSpansToTraceEvents:
    def test_wall_spans_become_complete_slices(self):
        profile = SelfProfile()
        with profile.section("cell", key="k"):
            pass
        events = spans_to_trace_events(profile.spans, pid=42, tid=9)
        (event,) = events
        assert event["ph"] == "X"
        assert event["pid"] == 42 and event["tid"] == 9
        assert event["name"] == "cell"
        assert event["args"] == {"key": "k", "status": "ok"}
        assert event["dur"] > 0

    def test_cycle_clock_spans_are_skipped(self):
        # Journals written before the one phase timer hold a cycle-clock
        # span per PRM episode; their timebase is not the wall clock.
        spans = [{"name": "prm", "id": 2, "start": 100.0, "end": 130.0,
                  "clock": "cycles", "status": "ok"},
                 {"name": "measure", "id": 1, "start": 1.0, "end": 2.0,
                  "clock": "wall", "status": "ok"},
                 {"name": "cell", "start": 0.5, "end": 2.5,
                  "status": "ok"}]
        events = spans_to_trace_events(spans, pid=1)
        assert [e["name"] for e in events] == ["measure", "cell"]

    def test_open_spans_are_skipped(self):
        spans = [{"name": "open", "start": 1.0, "end": None}]
        assert spans_to_trace_events(spans, pid=1) == []

"""Chrome trace-event export and the text summary."""

from __future__ import annotations

import json

import pytest

from repro.obs.exporters import (
    render_trace_summary,
    to_chrome_trace,
    write_trace_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import CAT_PHASE, CAT_TASK, Span

REQUIRED_KEYS = {"ph", "ts", "dur", "pid", "tid", "name"}


def _spans():
    return [
        Span("task 0.0", CAT_TASK, 1.0, 0.5, 42, "t0", {"task": 0}),
        Span("task 0.1", CAT_TASK, 1.0, 0.7, 42, "t1", {"task": 1}),
        Span("phase0", CAT_PHASE, 1.0, 0.8, 42, "main", {"phase": 0}),
    ]


class TestToChromeTrace:
    def test_every_event_has_required_keys(self):
        trace = to_chrome_trace([("run-a", _spans())])
        assert trace["traceEvents"]
        for ev in trace["traceEvents"]:
            assert REQUIRED_KEYS <= set(ev), ev

    def test_complete_events_use_microseconds(self):
        trace = to_chrome_trace([("run-a", _spans())])
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        first = next(e for e in xs if e["name"] == "task 0.0")
        assert first["ts"] == pytest.approx(1.0e6)
        assert first["dur"] == pytest.approx(0.5e6)
        assert first["cat"] == CAT_TASK

    def test_tracks_map_to_distinct_tids_with_names(self):
        trace = to_chrome_trace([("run-a", _spans())])
        events = trace["traceEvents"]
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert len(thread_names) == 3  # t0, t1, main
        xs_tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert xs_tids == set(thread_names)

    def test_each_group_is_one_trace_process(self):
        trace = to_chrome_trace(
            [("run-a", _spans()), ("run-b", _spans())]
        )
        events = trace["traceEvents"]
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names == {0: "run-a", 1: "run-b"}
        assert {e["pid"] for e in events} == {0, 1}

    def test_worker_processes_get_separate_rows(self):
        # same track name in different OS pids must not share a tid
        spans = [
            Span("a", CAT_TASK, 0.0, 1.0, 100, "worker"),
            Span("b", CAT_TASK, 0.0, 1.0, 200, "worker"),
        ]
        trace = to_chrome_trace([("run", spans)])
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["tid"] != xs[1]["tid"]

    def test_meta_lands_in_other_data(self):
        trace = to_chrome_trace([], meta={"hostname": "h"})
        assert trace["otherData"] == {"hostname": "h"}
        assert trace["displayTimeUnit"] == "ms"

    def test_write_trace_json_is_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace_json(path, [("run-a", _spans())], meta={"k": "v"})
        payload = json.loads(path.read_text())
        assert payload["otherData"] == {"k": "v"}
        assert len(payload["traceEvents"]) == 3 + 1 + 3  # X + process + threads


class TestRenderTraceSummary:
    def _registry(self):
        reg = MetricsRegistry()
        reg.gauge(
            "phase_load_imbalance_measured", 1.8,
            run="tiny/sdc/threads", phase=0,
            phase_name="density:color0/phase0", n_tasks=4,
        )
        reg.gauge(
            "phase_barrier_slack_s", 0.002,
            run="tiny/sdc/threads", phase=0,
            phase_name="density:color0/phase0",
        )
        reg.gauge(
            "phase_load_imbalance_measured", 1.1,
            run="tiny/sdc/threads", phase=1,
            phase_name="force:color0/phase1", n_tasks=4,
        )
        return reg

    def test_ranks_worst_first(self):
        text = render_trace_summary(self._registry())
        lines = text.splitlines()
        first_data = next(l for l in lines if "density:color0" in l)
        assert "1.80" in first_data
        assert lines.index(first_data) < lines.index(
            next(l for l in lines if "force:color0" in l)
        )

    def test_joins_barrier_slack(self):
        text = render_trace_summary(self._registry())
        row = next(
            l for l in text.splitlines() if "density:color0" in l
        )
        assert "2.000 ms" in row

    def test_top_limits_rows(self):
        text = render_trace_summary(self._registry(), top=1)
        assert "1 more phases omitted" in text

    def test_empty_registry(self):
        assert "(no measured phase metrics)" in render_trace_summary(
            MetricsRegistry()
        )

"""Span tracer: recording, the one builder of a parallel region's spans,
alignment."""

from __future__ import annotations

import os
import threading

import pytest

from repro.obs.tracer import (
    CAT_BARRIER,
    CAT_MD,
    CAT_PHASE,
    CAT_REGION,
    CAT_TASK,
    Span,
    Tracer,
    trace_region,
)
from repro.core.strategies.base import run_phase
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.threads import ThreadBackend


class TestSpan:
    def test_end_is_start_plus_duration(self):
        span = Span("a", CAT_TASK, 1.0, 0.25, 42, "t0")
        assert span.end_s == pytest.approx(1.25)


class TestTracer:
    def test_span_context_records_one_span(self):
        tracer = Tracer()
        with tracer.span("work", category=CAT_MD, step=3):
            pass
        assert len(tracer) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.category == CAT_MD
        assert span.args == {"step": 3}
        assert span.duration_s >= 0.0
        assert span.pid == os.getpid()

    def test_region_stack_nests_and_unwinds(self):
        """Nested regions close inner first, the outer one around it."""
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert (inner.name, outer.name) == ("inner", "outer")
        assert outer.start_s <= inner.start_s <= inner.end_s <= outer.end_s

    def test_region_stack_unwinds_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                raise RuntimeError("boom")
        # the span is still recorded (finally path)
        assert [s.name for s in tracer.spans] == ["outer"]

    def test_region_stack_is_thread_local(self):
        """A region opened on another thread lands on that thread's track."""
        tracer = Tracer()

        def worker():
            with tracer.span("side-only"):
                pass

        with tracer.span("main-only"):
            t = threading.Thread(target=worker, name="side")
            t.start()
            t.join()
        tracks = {s.name: s.track for s in tracer.spans}
        assert tracks == {
            "side-only": "side",
            "main-only": threading.current_thread().name,
        }

    def test_by_category_and_total(self):
        tracer = Tracer()
        # one phase of two tasks on two tracks: 1 s and 2 s of work
        trace_region(tracer, (0.0, 5.0), [("a", {})], [
            ([0.0, 1.0], "w0", 1), ([1.0, 3.0], "w1", 1),
        ])
        with tracer.span("c", category=CAT_MD):
            pass
        tasks = tracer.by_category(CAT_TASK)
        assert [s.track for s in tasks] == ["w0", "w1"]
        assert sum(s.duration_s for s in tasks) == pytest.approx(3.0)
        assert [s.name for s in tracer.by_category(CAT_MD)] == ["c"]
        tracer.clear()
        assert len(tracer) == 0

    def test_concurrent_recording_loses_nothing(self):
        tracer = Tracer()

        def worker(k):
            for i in range(50):
                with tracer.span(f"{k}.{i}", category=CAT_TASK):
                    pass

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 200

    def test_context_and_added_spans_read_back_in_record_order(self):
        tracer = Tracer()
        with tracer.span("first", category=CAT_MD):
            pass
        trace_region(tracer, (0.0, 1.0), [("second", {})], [])

        def worker():
            with tracer.span("third"):
                pass

        t = threading.Thread(target=worker, name="side")
        t.start()
        t.join()
        spans = tracer.spans
        # the added region is two spans: the region and its phase
        assert [s.name for s in spans] == ["first", "second", "second/phase0", "third"]
        assert all(type(s) is Span for s in spans)
        assert spans[0].track == threading.current_thread().name
        assert spans[3].track == "side"
        assert tracer.spans == spans  # reading again reads the same spans

    def test_concurrent_context_spans_lose_nothing(self):
        tracer = Tracer()

        def worker():
            for _ in range(200):
                with tracer.span("x"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == len(tracer.spans) == 800


class TestTracingObserver:
    """A backend's phases through the strategies' one dispatch, each task
    stamping itself: the spans :func:`trace_region` builds."""

    def _run(self, backend, tracer, sizes):
        for size in sizes:
            run_phase(backend, tracer, [(lambda: None)] * size, "region")

    def test_serial_backend_emits_task_and_phase_spans(self):
        tracer = Tracer()
        self._run(SerialBackend(), tracer, [3, 2])
        tasks = tracer.by_category(CAT_TASK)
        phases = tracer.by_category(CAT_PHASE)
        assert len(tasks) == 5
        assert len(phases) == 2
        assert {s.args["phase"] for s in tasks} == {0, 1}
        assert [s.args["n_tasks"] for s in phases] == [3, 2]

    def test_task_spans_sit_inside_their_phase_span(self):
        tracer = Tracer()
        self._run(SerialBackend(), tracer, [4])
        phase = tracer.by_category(CAT_PHASE)[0]
        for task in tracer.by_category(CAT_TASK):
            assert task.start_s >= phase.start_s
            assert task.end_s <= phase.end_s + 1e-9

    def test_phase_label_uses_enclosing_region(self):
        """The caller's label names the region span and its phase span."""
        tracer = Tracer()
        run_phase(
            SerialBackend(), tracer, [lambda: None], "density:color0",
            phase="density", color=0,
        )
        (region,) = tracer.by_category(CAT_REGION)
        (phase,) = tracer.by_category(CAT_PHASE)
        assert region.name == "density:color0"
        assert region.args == {"phase": "density", "color": 0}
        assert phase.name == "density:color0/phase0"
        assert (phase.start_s, phase.duration_s) == (
            region.start_s, region.duration_s
        )

    def test_barrier_wait_one_span_per_track(self):
        tracer = Tracer()
        backend = ThreadBackend(2)
        try:
            self._run(backend, tracer, [6])
        finally:
            backend.close()
        barriers = tracer.by_category(CAT_BARRIER)
        # at most one barrier-wait span per worker track
        tracks = [s.track for s in barriers]
        assert len(tracks) == len(set(tracks))
        phase = tracer.by_category(CAT_PHASE)[0]
        for b in barriers:
            assert b.end_s <= phase.end_s + 1e-9

    def test_threads_run_all_tasks(self):
        tracer = Tracer()
        backend = ThreadBackend(3)
        try:
            self._run(backend, tracer, [8])
        finally:
            backend.close()
        tasks = tracer.by_category(CAT_TASK)
        assert sorted(s.args["task"] for s in tasks) == list(range(8))


def _one_phase(tracer, label, window, stamps, **args):
    """A region of one phase; ``stamps[k] = (start, end, track, pid)``."""
    trace_region(tracer, window, [(label, args)], [
        None if s is None else ((s[0], s[1]), s[2], s[3]) for s in stamps
    ])


class TestTraceRegion:
    """Clock-free: the spans of hand-made marks."""

    def test_one_barrier_wait_per_track_from_its_last_task(self):
        tracer = Tracer()
        _one_phase(
            tracer, "force:color1", (0.0, 4.0),
            [(0.0, 1.0, "w0", 7), (1.0, 3.0, "w0", 7), (0.0, 2.0, "w1", 8)],
            phase="force",
        )
        tasks = tracer.by_category(CAT_TASK)
        assert [(s.name, s.track, s.args) for s in tasks] == [
            ("force:color1:chunk", "w0", {"phase": 0, "task": 0}),
            ("force:color1:chunk", "w0", {"phase": 0, "task": 1}),
            ("force:color1:chunk", "w1", {"phase": 0, "task": 2}),
        ]
        waits = {
            s.track: (s.start_s, s.duration_s, s.pid)
            for s in tracer.by_category(CAT_BARRIER)
        }
        assert waits == {"w0": (3.0, 1.0, 7), "w1": (2.0, 2.0, 8)}
        (region,) = tracer.by_category(CAT_REGION)
        assert (region.name, region.args) == ("force:color1", {"phase": "force"})

    def test_a_task_at_the_barrier_waits_not_and_a_missing_one_is_skipped(self):
        tracer = Tracer()
        _one_phase(tracer, "x", (0.0, 1.0), [(0.0, 1.0, "w0", 1), None])
        assert [s.args["task"] for s in tracer.by_category(CAT_TASK)] == [0]
        assert tracer.by_category(CAT_BARRIER) == []
        assert tracer.by_category(CAT_PHASE)[0].args["n_tasks"] == 2

    def test_phases_are_numbered_per_tracer_from_zero(self):
        tracer = Tracer()
        for _ in range(3):
            _one_phase(tracer, "x", (0.0, 1.0), [])
        assert [s.args["phase"] for s in tracer.by_category(CAT_PHASE)] == [
            0, 1, 2
        ]
        tracer.clear()
        _one_phase(tracer, "x", (0.0, 1.0), [])
        assert tracer.by_category(CAT_PHASE)[0].args["phase"] == 0

    def test_marks_split_at_the_first_barrier_exits(self):
        """Worker marks: start, each barrier's entry and exit, end."""
        tracer = Tracer()
        trace_region(
            tracer, (1.0, 6.0),
            [("a", {"phase": "density"}), ("b", {"phase": "force"})],
            [
                ([1.0, 2.0, 3.0, 4.0, 5.0, 5.5], "w0", 1),
                ([1.0, 2.5, 2.75, 4.5, 5.0, 5.25], "w1", 1),
            ],
        )
        regions = [
            (s.name, s.start_s, s.end_s) for s in tracer.by_category(CAT_REGION)
        ]
        assert regions == [("a", 1.0, 2.75), ("b", 2.75, 6.0)]
        tasks = [(s.start_s, s.end_s) for s in tracer.by_category(CAT_TASK)]
        assert tasks == [(1.0, 2.0), (1.0, 2.5), (3.0, 4.0), (2.75, 4.5)]

    def test_a_region_becomes_spans_when_read(self):
        """Recording is one append; reading (or counting) makes the spans."""
        tracer = Tracer()
        _one_phase(tracer, "x", (0.0, 1.0), [(0.0, 0.5, "w0", 1)])
        assert len(tracer._spans) == 1
        assert len(tracer) == 4  # region, phase, task, barrier-wait
        assert all(type(s) is Span for s in tracer.spans)


def _aligned(origin, window, *marks):
    """Task marks ``[origin, *marks]`` of a one-phase region over
    ``window``, as the parent's timeline reads them."""
    tracer = Tracer()
    trace_region(
        tracer, window, [("x", {})], [([origin, *marks], "worker-9", 9)]
    )
    (task,) = tracer.by_category(CAT_TASK)
    return task


class TestAlignWorkerSpans:
    """A worker's marks on its own clock, moved onto the parent's."""

    def test_origin_inside_window_keeps_timestamps(self):
        task = _aligned(10.4, (10.0, 11.0), 10.6)
        assert (task.start_s, task.end_s) == (10.4, 10.6)

    def test_origin_outside_window_pins_to_window_start(self):
        # worker clock started at 1000.0, parent window is [10, 11]
        task = _aligned(1000.0, (10.0, 11.0), 1000.1)
        assert task.start_s == 10.0
        assert task.duration_s == pytest.approx(0.1)

    def test_empty_input(self):
        tracer = Tracer()
        trace_region(tracer, (0.0, 1.0), [("x", {})], [])
        assert tracer.by_category(CAT_TASK) == []

    def test_empty_worker_track_with_skewed_clock(self):
        # a worker that never started must not crash alignment even when
        # another one's clock origin is far outside the dispatch window
        tracer = Tracer()
        trace_region(
            tracer, (10.0, 11.0), [("x", {})],
            [None, ([1e9, 1e9 + 0.5], "worker-1", 1)],
        )
        (task,) = tracer.by_category(CAT_TASK)
        assert (task.start_s, task.args["task"]) == (10.0, 1)

    def test_out_of_order_spans_keep_their_order_and_offsets(self):
        # one worker's steps translate by one offset: gaps survive exactly
        tracer = Tracer()
        trace_region(
            tracer, (10.0, 11.0), [("a", {}), ("b", {})],
            [([1000.0, 1000.2, 1000.5, 1000.7], "worker-9", 9)],
        )
        a, b = tracer.by_category(CAT_TASK)
        assert (a.start_s, b.start_s) == (10.0, pytest.approx(10.5))
        assert b.end_s - a.start_s == pytest.approx(0.7)

    def test_two_workers_with_different_skews_land_in_same_window(self):
        # forked workers can carry *different* clock origins; aligning each
        # against the same dispatch window brings both into parent time
        tracer = Tracer()
        window = (10.0, 11.0)
        trace_region(tracer, window, [("x", {})], [
            ([500.0, 500.1], "worker-11", 11),
            ([9000.0, 9000.2], "worker-22", 22),
        ])
        for task in tracer.by_category(CAT_TASK):
            assert window[0] <= task.start_s <= task.end_s <= window[1]

    def test_negative_skew_worker_clock_behind_parent(self):
        # worker origin *before* the parent window (clock behind parent):
        # still pinned to the dispatch start, shifting marks forward
        task = _aligned(1.0, (10.0, 11.0), 1.5)
        assert (task.start_s, task.end_s) == (10.0, 10.5)

    def test_origin_exactly_on_window_edges_is_not_shifted(self):
        assert _aligned(10.0, (10.0, 11.0), 10.1).start_s == 10.0
        assert _aligned(11.0, (10.0, 11.0), 11.0).start_s == 11.0


class TestCategories:
    def test_category_constants_are_distinct(self):
        cats = {CAT_PHASE, CAT_TASK, CAT_BARRIER, CAT_REGION, CAT_MD}
        assert len(cats) == 5


class TestDisabledOverhead:
    def test_untraced_strategy_span_is_the_shared_noop(self):
        """With no tracer attached, ``_span`` must not allocate.

        The ≤5 % disabled-overhead budget rests on this: the instrumented
        hot paths pay one attribute check and return the module-level
        no-op context manager, never a fresh object per call.
        """
        from repro.core.strategies.sdc import SDCStrategy
        from repro.obs.tracer import NULL_SPAN

        strategy = SDCStrategy()
        assert (
            strategy._span("density:color0", phase="density", color=0)
            is NULL_SPAN
        )
        assert strategy._span("force:color1") is NULL_SPAN

    def test_untraced_simulation_span_is_the_shared_noop(self, potential):
        from repro.harness.cases import case_by_key
        from repro.md.simulation import Simulation
        from repro.obs.tracer import NULL_SPAN

        sim = Simulation(case_by_key("tiny").build(), potential)
        assert sim._span("md-step", step=0) is NULL_SPAN


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_records_its_own_pid():
    tracer = Tracer()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: one span, its pid down the pipe
        try:
            with tracer.span("child"):
                pass
            os.write(write, str(tracer.spans[-1].pid).encode())
        finally:
            os._exit(0)
    os.close(write)
    recorded = int(os.read(read, 64))
    os.close(read)
    os.waitpid(pid, 0)
    assert recorded == pid != os.getpid()
    with tracer.span("parent"):
        pass
    assert tracer.spans[-1].pid == os.getpid()

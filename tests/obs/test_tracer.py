"""Span tracer: recording, region labels, backend observer, alignment."""

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
    TracingObserver,
    align_worker_spans,
)
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.threads import ThreadBackend


class TestSpan:
    def test_end_is_start_plus_duration(self):
        span = Span("a", CAT_TASK, 1.0, 0.25, 42, "t0")
        assert span.end_s == pytest.approx(1.25)

    def test_shifted_translates_start_only(self):
        span = Span("a", CAT_TASK, 1.0, 0.25, 42, "t0", {"k": 1})
        moved = span.shifted(2.0)
        assert moved.start_s == pytest.approx(3.0)
        assert moved.duration_s == pytest.approx(0.25)
        assert moved.name == "a" and moved.args == {"k": 1}

    def test_zero_shift_returns_same_object(self):
        span = Span("a", CAT_TASK, 1.0, 0.25, 42, "t0")
        assert span.shifted(0.0) is span


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

    def test_add_defaults_to_current_thread_and_process(self):
        tracer = Tracer()
        span = tracer.add("x", CAT_TASK, 0.0, 1.0)
        assert span.track == threading.current_thread().name
        assert span.pid == os.getpid()

    def test_add_clamps_negative_duration(self):
        tracer = Tracer()
        assert tracer.add("x", CAT_TASK, 5.0, -1.0).duration_s == 0.0

    def test_region_stack_nests_and_unwinds(self):
        tracer = Tracer()
        assert tracer.current_region() is None
        with tracer.span("outer"):
            assert tracer.current_region() == "outer"
            with tracer.span("inner"):
                assert tracer.current_region() == "inner"
            assert tracer.current_region() == "outer"
        assert tracer.current_region() is None

    def test_region_stack_unwinds_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                raise RuntimeError("boom")
        assert tracer.current_region() is None
        # the span is still recorded (finally path)
        assert [s.name for s in tracer.spans] == ["outer"]

    def test_region_stack_is_thread_local(self):
        tracer = Tracer()
        seen = []

        def worker():
            seen.append(tracer.current_region())

        with tracer.span("main-only"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == [None]

    def test_by_category_and_total(self):
        tracer = Tracer()
        tracer.add("a", CAT_TASK, 0.0, 1.0)
        tracer.add("b", CAT_TASK, 1.0, 2.0)
        tracer.add("c", CAT_PHASE, 0.0, 5.0)
        assert [s.name for s in tracer.by_category(CAT_TASK)] == ["a", "b"]
        assert tracer.total(CAT_TASK) == pytest.approx(3.0)
        tracer.clear()
        assert len(tracer) == 0

    def test_concurrent_recording_loses_nothing(self):
        tracer = Tracer()

        def worker(k):
            for i in range(50):
                tracer.add(f"{k}.{i}", CAT_TASK, 0.0, 0.0)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 200


class TestTracingObserver:
    def _run(self, backend, tracer, sizes):
        observer = TracingObserver(tracer)
        backend.attach_observer(observer)
        try:
            for size in sizes:
                backend.run_phase([(lambda: None) for _ in range(size)])
        finally:
            backend.detach_observer()

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
        tracer = Tracer()
        backend = SerialBackend()
        observer = TracingObserver(tracer)
        backend.attach_observer(observer)
        try:
            with tracer.span("density:color0"):
                backend.run_phase([lambda: None])
        finally:
            backend.detach_observer()
        phase = tracer.by_category(CAT_PHASE)[0]
        assert phase.name == "density:color0/phase0"

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


class TestAlignWorkerSpans:
    def test_origin_inside_window_keeps_timestamps(self):
        spans = [Span("a", CAT_TASK, 10.5, 0.1, 99, "worker-99")]
        aligned = align_worker_spans(spans, 10.4, 10.0, 11.0)
        assert aligned[0].start_s == pytest.approx(10.5)

    def test_origin_outside_window_pins_to_window_start(self):
        # worker clock started at 1000.0, parent window is [10, 11]
        spans = [Span("a", CAT_TASK, 1000.2, 0.1, 99, "worker-99")]
        aligned = align_worker_spans(spans, 1000.0, 10.0, 11.0)
        assert aligned[0].start_s == pytest.approx(10.2)
        assert aligned[0].duration_s == pytest.approx(0.1)

    def test_empty_input(self):
        assert align_worker_spans([], 0.0, 0.0, 1.0) == []

    def test_empty_worker_track_with_skewed_clock(self):
        # a worker that recorded nothing must not crash alignment even
        # when its clock origin is far outside the dispatch window
        assert align_worker_spans([], 1e9, 10.0, 11.0) == []

    def test_out_of_order_spans_keep_their_order_and_offsets(self):
        # workers may ship spans in completion order, not start order;
        # alignment must translate each span independently and preserve
        # the sequence it was given
        spans = [
            Span("late", CAT_TASK, 1000.7, 0.1, 99, "worker-99"),
            Span("early", CAT_TASK, 1000.1, 0.2, 99, "worker-99"),
            Span("mid", CAT_TASK, 1000.4, 0.05, 99, "worker-99"),
        ]
        aligned = align_worker_spans(spans, 1000.0, 10.0, 11.0)
        assert [s.name for s in aligned] == ["late", "early", "mid"]
        assert aligned[0].start_s == pytest.approx(10.7)
        assert aligned[1].start_s == pytest.approx(10.1)
        assert aligned[2].start_s == pytest.approx(10.4)
        # relative gaps between spans survive the shift exactly
        assert aligned[0].start_s - aligned[1].start_s == pytest.approx(0.6)

    def test_two_workers_with_different_skews_land_in_same_window(self):
        # forked workers can carry *different* clock origins (spawned
        # workers, CLOCK_MONOTONIC resets); aligning each track against
        # the same dispatch window must bring both into parent time
        worker_a = [Span("a", CAT_TASK, 500.2, 0.1, 11, "worker-11")]
        worker_b = [Span("b", CAT_TASK, 9000.5, 0.1, 22, "worker-22")]
        window = (10.0, 11.0)
        aligned_a = align_worker_spans(worker_a, 500.0, *window)
        aligned_b = align_worker_spans(worker_b, 9000.0, *window)
        for span in aligned_a + aligned_b:
            assert window[0] <= span.start_s <= window[1]
        assert aligned_a[0].start_s == pytest.approx(10.2)
        assert aligned_b[0].start_s == pytest.approx(10.5)

    def test_negative_skew_worker_clock_behind_parent(self):
        # worker origin *before* the parent window (clock behind parent):
        # still pinned to the dispatch start, shifting spans forward
        spans = [Span("a", CAT_TASK, 1.5, 0.1, 99, "worker-99")]
        aligned = align_worker_spans(spans, 1.0, 10.0, 11.0)
        assert aligned[0].start_s == pytest.approx(10.5)

    def test_origin_exactly_on_window_edges_is_not_shifted(self):
        spans = [Span("a", CAT_TASK, 10.0, 0.1, 99, "worker-99")]
        assert (
            align_worker_spans(spans, 10.0, 10.0, 11.0)[0].start_s
            == pytest.approx(10.0)
        )
        assert (
            align_worker_spans(spans, 11.0, 10.0, 11.0)[0].start_s
            == pytest.approx(10.0)
        )


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

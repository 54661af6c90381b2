"""Multi-observer fan-out: several observers on one backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies.sdc import SDCStrategy
from repro.obs.recorder import FlightRecorder, set_recorder
from repro.obs.tracer import CAT_TASK, Tracer, TracingObserver
from repro.parallel.backends.base import MultiObserver, PhaseObserver
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.threads import ThreadBackend


class _Broken(PhaseObserver):
    """An observer whose every hook raises."""

    def __init__(self, exc=RuntimeError("observer exploded")):
        self.exc = exc

    def on_phase_begin(self, phase, n_tasks):
        raise self.exc

    def on_task_begin(self, phase, task):
        raise self.exc

    def on_task_end(self, phase, task):
        raise self.exc

    def on_phase_end(self, phase):
        raise self.exc


class _Recorder(PhaseObserver):
    def __init__(self):
        self.calls = []

    def on_phase_begin(self, phase, n_tasks):
        self.calls.append(("phase-begin", phase, n_tasks))

    def on_task_begin(self, phase, task):
        self.calls.append(("task-begin", phase, task))

    def on_task_end(self, phase, task):
        self.calls.append(("task-end", phase, task))

    def on_phase_end(self, phase):
        self.calls.append(("phase-end", phase))


class TestMultiObserver:
    def test_forwards_all_hooks_in_add_order(self):
        order = []

        class Tagged(PhaseObserver):
            def __init__(self, tag):
                self.tag = tag

            def on_phase_begin(self, phase, n_tasks):
                order.append(self.tag)

        multi = MultiObserver(Tagged("a"), Tagged("b"))
        multi.add(Tagged("c"))
        multi.on_phase_begin(0, 1)
        assert order == ["a", "b", "c"]
        assert len(multi) == 3

    def test_remove_is_identity_based(self):
        a, b = _Recorder(), _Recorder()
        multi = MultiObserver(a, b)
        multi.remove(a)
        assert multi.observers == [b]
        multi.remove(a)  # absent: no-op
        assert multi.observers == [b]


class TestExceptionIsolation:
    """A raising child must neither abort the phase nor starve siblings."""

    @pytest.fixture()
    def recorder(self):
        recorder = FlightRecorder()
        previous = set_recorder(recorder)
        yield recorder
        set_recorder(previous)

    def test_broken_child_does_not_starve_siblings(self, recorder):
        healthy = _Recorder()
        multi = MultiObserver(_Broken(), healthy)
        backend = SerialBackend()
        backend.attach_observer(multi)
        backend.run_phase([lambda: None])
        # the healthy sibling saw the full hook sequence
        assert [c[0] for c in healthy.calls] == [
            "phase-begin",
            "task-begin",
            "task-end",
            "phase-end",
        ]

    def test_failure_recorded_once_per_hook_with_repeat_counter(
        self, recorder
    ):
        multi = MultiObserver(_Broken())
        multi.on_phase_begin(0, 1)
        multi.on_phase_begin(1, 1)
        multi.on_phase_begin(2, 1)
        events = recorder.events(category="observer")
        assert len(events) == 1
        event = events[0]
        assert event.event == "observer-failed"
        assert event.severity == "warning"
        assert event.fields["observer"] == "_Broken"
        assert event.fields["hook"] == "on_phase_begin"
        assert "observer exploded" in event.fields["error"]
        assert recorder.counts()["observer_failures"] == 3

    def test_each_hook_reported_separately(self, recorder):
        multi = MultiObserver(_Broken())
        multi.on_phase_begin(0, 1)
        multi.on_task_begin(0, 0)
        multi.on_task_end(0, 0)
        multi.on_phase_end(0)
        hooks = {
            e.fields["hook"] for e in recorder.events(category="observer")
        }
        assert hooks == {
            "on_phase_begin",
            "on_task_begin",
            "on_task_end",
            "on_phase_end",
        }

    def test_keyboard_interrupt_still_propagates(self, recorder):
        multi = MultiObserver(_Broken(exc=KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            multi.on_phase_begin(0, 1)

    def test_phase_result_unaffected_by_broken_observer(
        self, recorder, potential, sdc_atoms, sdc_nlist
    ):
        strategy = SDCStrategy(dims=2, n_threads=2)
        reference = strategy.compute(
            potential, sdc_atoms.copy(), sdc_nlist
        )
        # co-attached with a healthy sibling -> MultiObserver isolation
        strategy.backend.add_observer(_Recorder())
        strategy.backend.add_observer(_Broken())
        observed = strategy.compute(
            potential, sdc_atoms.copy(), sdc_nlist
        )
        np.testing.assert_allclose(
            observed.forces, reference.forces, atol=1e-12
        )
        assert recorder.events(category="observer")


class TestAddObserverOnBackend:
    def test_first_add_behaves_like_attach(self):
        backend = SerialBackend()
        rec = _Recorder()
        backend.add_observer(rec)
        assert backend.observer is rec
        backend.run_phase([lambda: None])
        assert rec.calls[0] == ("phase-begin", 0, 1)

    def test_second_add_wraps_without_resetting_numbering(self):
        backend = SerialBackend()
        first, second = _Recorder(), _Recorder()
        backend.add_observer(first)
        backend.run_phase([lambda: None])  # phase 0
        backend.add_observer(second)
        backend.run_phase([lambda: None])  # phase 1 for both
        assert isinstance(backend.observer, MultiObserver)
        assert ("phase-begin", 1, 1) in first.calls
        assert ("phase-begin", 1, 1) in second.calls
        # the late joiner never saw phase 0
        assert ("phase-begin", 0, 1) not in second.calls

    def test_remove_observer_unwraps_to_single_child(self):
        backend = SerialBackend()
        first, second = _Recorder(), _Recorder()
        backend.add_observer(first)
        backend.add_observer(second)
        backend.remove_observer(first)
        assert backend.observer is second

    def test_remove_sole_observer_detaches(self):
        backend = SerialBackend()
        rec = _Recorder()
        backend.add_observer(rec)
        backend.remove_observer(rec)
        assert backend.observer is None

    def test_remove_unattached_is_noop(self):
        backend = SerialBackend()
        rec = _Recorder()
        backend.add_observer(rec)
        backend.remove_observer(_Recorder())
        assert backend.observer is rec


class TestCoAttachedObservers:
    def test_tracer_and_eventlog_see_the_same_phases(self):
        backend = ThreadBackend(2)
        tracer = Tracer()
        log = _Recorder()
        backend.add_observer(TracingObserver(tracer))
        backend.add_observer(log)
        try:
            backend.run_phase([(lambda: None) for _ in range(4)])
            backend.run_phase([(lambda: None) for _ in range(2)])
        finally:
            backend.close()
        begun = [c for c in log.calls if c[0] == "phase-begin"]
        assert begun == [("phase-begin", 0, 4), ("phase-begin", 1, 2)]
        ended = sorted(c[1:] for c in log.calls if c[0] == "task-end")
        assert ended == sorted(
            (s.args["phase"], s.args["task"])
            for s in tracer.by_category(CAT_TASK)
        )
        assert len(ended) == 6

    def test_profiler_and_tracer_co_attach_through_strategy(
        self, potential, sdc_atoms, sdc_nlist
    ):
        """A bench-style reduction and a second tracer on one execution."""
        from repro.utils.profiler import phase_stats

        strategy = SDCStrategy(dims=2, n_threads=2)
        tracer, bystander = Tracer(), Tracer()
        foreign = TracingObserver(bystander)
        strategy.attach_tracer(tracer)
        strategy.backend.add_observer(foreign)
        try:
            result = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        finally:
            strategy.detach_tracer()
        assert np.all(np.isfinite(result.forces))
        # both instruments observed the same execution
        assert {"density", "color-barrier"} <= set(phase_stats(tracer.spans))
        assert len(bystander.by_category(CAT_TASK)) == len(
            tracer.by_category(CAT_TASK)
        )
        assert strategy.backend.observer is foreign

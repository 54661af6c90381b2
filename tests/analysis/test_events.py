"""The execution-event stream: backend phases and tasks as tracer spans.

A traced phase goes through the strategies' one dispatch
(:func:`~repro.core.strategies.base.run_phase`): each task stamps its own
start and end, and :func:`~repro.obs.tracer.trace_region` builds the
spans.  The questions an event log answers (did every task end?  did
phases bracket their tasks?  on which clock?) are asked of those ``task``
/ ``phase`` spans here.  Observer hook ordering lives in
``tests/parallel/test_backend_contract.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.strategies import SDCStrategy
from repro.core.strategies.base import run_phase
from repro.obs.tracer import CAT_PHASE, CAT_TASK, Tracer
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.threads import ThreadBackend


def _run_phases(backend, sizes, tracer=None):
    sink = []
    for size in sizes:
        run_phase(
            backend, tracer,
            [(lambda k=k: sink.append(k)) for k in range(size)], "phase",
        )
    return sink


def _phase_sizes(tracer):
    """``{phase index: n_tasks}`` of the recorded backend phase spans."""
    return {
        s.args["phase"]: s.args["n_tasks"] for s in tracer.by_category(CAT_PHASE)
    }


def _completed_tasks(tracer, phase):
    return sorted(
        s.args["task"]
        for s in tracer.by_category(CAT_TASK)
        if s.args["phase"] == phase
    )


def _well_formed(tracer) -> bool:
    """Every phase span covers exactly the tasks counted at its barrier."""
    return all(
        _completed_tasks(tracer, phase) == list(range(n_tasks))
        for phase, n_tasks in _phase_sizes(tracer).items()
    )


class TestEventLogOnSerialBackend:
    def test_records_every_phase_and_task(self):
        backend, tracer = SerialBackend(), Tracer()
        _run_phases(backend, [3, 1, 4], tracer)
        assert _phase_sizes(tracer) == {0: 3, 1: 1, 2: 4}
        assert _completed_tasks(tracer, 0) == [0, 1, 2]
        assert _completed_tasks(tracer, 2) == [0, 1, 2, 3]
        assert _well_formed(tracer)

    def test_events_are_ordered_within_a_phase(self):
        backend, tracer = SerialBackend(), Tracer()
        _run_phases(backend, [2], tracer)
        first, second = tracer.by_category(CAT_TASK)
        (phase,) = tracer.by_category(CAT_PHASE)
        # serial: task intervals never interleave, the phase brackets both
        assert phase.start_s <= first.start_s
        assert first.end_s <= second.start_s
        assert second.end_s <= phase.end_s

    def test_detach_stops_recording(self):
        """An untraced dispatch records nothing."""
        backend, tracer = SerialBackend(), Tracer()
        _run_phases(backend, [1], tracer)
        _run_phases(backend, [1])
        assert _phase_sizes(tracer) == {0: 1}

    def test_reattach_restarts_phase_numbering(self):
        """A cleared tracer numbers its phases from 0 again."""
        backend, tracer = SerialBackend(), Tracer()
        _run_phases(backend, [1, 1], tracer)
        tracer.clear()
        _run_phases(backend, [2], tracer)
        assert _phase_sizes(tracer) == {0: 2}

    def test_timestamps_share_the_perf_counter_clock_domain(self):
        """One clock: spans recorded between two ``time.perf_counter()``
        readings must fall inside the window (regression: events once
        used ``time.monotonic()``, a different domain on some platforms).
        """
        backend, tracer = SerialBackend(), Tracer()
        before = time.perf_counter()
        _run_phases(backend, [2], tracer)
        after = time.perf_counter()
        assert len(tracer) > 0
        for span in tracer.spans:
            assert before <= span.start_s <= span.end_s <= after

    def test_task_end_fires_on_raise(self):
        backend, tracer = SerialBackend(), Tracer()

        def boom() -> None:
            raise RuntimeError("task failure")

        with pytest.raises(RuntimeError):
            run_phase(backend, tracer, [boom], "phase")
        assert [s.category for s in tracer.spans][1:3] == [CAT_PHASE, CAT_TASK]
        assert _well_formed(tracer)


class TestEventLogOnThreadBackend:
    def test_all_tasks_complete_on_threads(self):
        backend, tracer = ThreadBackend(4), Tracer()
        try:
            _run_phases(backend, [8, 5], tracer)
        finally:
            backend.close()
        assert _phase_sizes(tracer) == {0: 8, 1: 5}
        assert _completed_tasks(tracer, 0) == list(range(8))
        assert _completed_tasks(tracer, 1) == list(range(5))

    def test_phase_boundaries_bracket_tasks(self):
        """The phase span begins before and ends after every task span."""
        backend, tracer = ThreadBackend(3), Tracer()
        try:
            _run_phases(backend, [6], tracer)
        finally:
            backend.close()
        (phase,) = tracer.by_category(CAT_PHASE)
        tasks = tracer.by_category(CAT_TASK)
        assert len(tasks) == 6
        assert all(
            phase.start_s <= t.start_s and t.end_s <= phase.end_s for t in tasks
        )


class TestEventLogThroughStrategy:
    def test_sdc_compute_emits_balanced_phases(
        self, potential, sdc_atoms, sdc_nlist
    ):
        tracer = Tracer()
        strategy = SDCStrategy(dims=2, n_threads=2)
        strategy.attach_tracer(tracer)
        try:
            result = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        finally:
            strategy.detach_tracer()
        assert np.all(np.isfinite(result.forces))
        assert _well_formed(tracer)
        # density colors + embedding + force colors
        assert len(_phase_sizes(tracer)) >= 3

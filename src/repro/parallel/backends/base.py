"""Backend interface: phase-at-a-time execution of task closures.

A *phase* is a list of closures whose write sets the caller guarantees to
be disjoint (SDC color phases) or internally synchronized (CS locks, SAP
private arrays).  ``run_phase`` returns only when every closure has
finished — the OpenMP implicit barrier.

Backends also carry an optional :class:`PhaseObserver`.  When attached,
the backend surrounds every phase and every task with ``on_phase_begin`` /
``on_task_begin`` / ``on_task_end`` / ``on_phase_end`` callbacks, which is
what the dynamic race detector's write recorder
(:mod:`repro.analysis.racecheck`) hooks into.  Timelines do not: a traced
region stamps its own tasks (:func:`repro.obs.tracer.trace_region`).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Tuple

TaskClosure = Callable[[], None]


def team_cpus(n_workers: int) -> List[int]:
    """``cpus[k]``, the CPU team worker ``k`` walks on: the affinity mask's
    when it has one per worker, else none.  Two unbound walkers can settle
    on one CPU and trade timeslices at every barrier of a walk."""
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= n_workers:
            return cpus[:n_workers]
    return []


class BackendError(RuntimeError):
    """The execution substrate itself failed (not the task's code).

    Raised when a backend loses workers mid-phase — e.g. a forked pool
    process is killed — as opposed to a task raising, which propagates the
    task's own exception.  A backend that raises this guarantees the phase
    barrier still held: no partially-scattered results are handed back,
    and the backend is safe to use again (pools restart lazily).
    """


class PhaseObserver:
    """No-op base for phase/task execution observers.

    Subclasses override any subset of the hooks.  ``on_task_begin`` and
    ``on_task_end`` run *on the worker executing the task* (so an observer
    may key per-task state off the current thread); ``on_phase_begin`` and
    ``on_phase_end`` run on the thread that called ``run_phase``, strictly
    before the first and after the last task of the phase.
    """

    def on_phase_begin(self, phase: int, n_tasks: int) -> None:
        """A phase of ``n_tasks`` closures is about to start."""

    def on_task_begin(self, phase: int, task: int) -> None:
        """Task ``task`` of ``phase`` starts on the current worker."""

    def on_task_end(self, phase: int, task: int) -> None:
        """Task ``task`` of ``phase`` finished (also on raise)."""

    def on_phase_end(self, phase: int) -> None:
        """All tasks of ``phase`` have settled (the barrier)."""


def _noop() -> None:
    return None


class ExecutionBackend(ABC):
    """Executes phases of closures with barrier semantics."""

    _observer: Optional[PhaseObserver] = None
    _phase_counter: int = 0

    @abstractmethod
    def run_phase(self, closures: Sequence[TaskClosure]) -> None:
        """Run all closures; return after the last one completes.

        Exceptions raised by closures propagate to the caller (after all
        submitted work has settled).
        """

    def team(self, n_workers: int):
        """The threads that walk beside the caller, worker 0, in a walk of
        ``n_workers`` (:class:`~repro.kernels.c_tier.SDCTeam`); None here."""
        return None

    # --- observability --------------------------------------------------------

    @property
    def observer(self) -> Optional[PhaseObserver]:
        """The currently attached observer (None when unobserved)."""
        return self._observer

    def attach_observer(self, observer: PhaseObserver) -> None:
        """Attach ``observer`` and restart the phase numbering at 0."""
        self._observer = observer
        self._phase_counter = 0

    def detach_observer(self) -> None:
        """Remove the observer (idempotent)."""
        self._observer = None

    def _begin_phase(
        self, closures: Sequence[TaskClosure]
    ) -> Tuple[Sequence[TaskClosure], Callable[[], None]]:
        """Instrument a phase's closures for the attached observer.

        Returns the (possibly wrapped) closures plus a finalizer the
        backend must call once the phase has settled — from a ``finally``
        block, so ``on_phase_end`` fires even when a task raised.
        """
        observer = self._observer
        if observer is None:
            return closures, _noop
        phase = self._phase_counter
        self._phase_counter += 1
        observer.on_phase_begin(phase, len(closures))
        wrapped = [
            self._wrap_task(observer, phase, k, closure)
            for k, closure in enumerate(closures)
        ]
        return wrapped, lambda: observer.on_phase_end(phase)

    @staticmethod
    def _wrap_task(
        observer: PhaseObserver, phase: int, task: int, closure: TaskClosure
    ) -> TaskClosure:
        def run() -> None:
            observer.on_task_begin(phase, task)
            try:
                closure()
            finally:
                observer.on_task_end(phase, task)

        return run

    def worker_pids(self) -> List[int]:
        """OS pids of worker *processes* this backend currently owns.

        Serial and thread backends run everything inside the calling
        process, so the base implementation returns an empty list.  The
        process engine overrides this with its live pool pids.
        """
        return []

    def health_snapshot(self) -> dict:
        """Backend lifecycle state for the health plane.

        The base implementation covers stateless backends (serial);
        pooled backends extend it with their worker/pool state.
        """
        return {
            "backend": type(self).__name__,
            "observed": self._observer is not None,
            "phases_run": self._phase_counter,
        }

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

"""Thread-pool backend: real concurrent execution of phase closures.

A pool of ``n_threads`` persistent threads runs each phase, one closure
per thread, and ``wait`` is the phase's barrier.  That is the per-colour
route — the NumPy tier, an instrumented or observed strategy, the
comparison strategies — where a phase is one colour, its closures worker
``k``'s contiguous pair range of it (see :mod:`repro.core.sdc_plan`), and
the NumPy calls and argument checks inside them trade the GIL.  An SDC
evaluation on the C tier is not a phase: it is one walk on the backend's
:meth:`~ThreadBackend.team` (:class:`~repro.kernels.c_tier.SDCTeam`), the
calling thread worker 0 beside ``n_threads - 1`` C helpers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import List, Optional, Sequence

from repro import kernels
from repro.parallel.backends.base import ExecutionBackend, TaskClosure


class ThreadBackend(ExecutionBackend):
    """Run each phase on a persistent pool of ``n_threads`` workers.

    ``run_phase`` blocks until every closure finishes (barrier); the
    exception of the first closure (in submission order) that raised is
    re-raised after the phase settles.  A phase of at most ``n_threads``
    closures runs them all at once, so they may wait for each other.
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        self._pool: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=n_threads, thread_name_prefix="repro-worker"
        )
        self._team = None

    def _cpus(self) -> List[int]:
        """``cpus[k]``, the CPU team worker ``k`` walks on: the affinity
        mask's when it has one per worker, else none — as the process
        workers bind themselves.  Two unbound walkers can settle on one
        CPU and trade timeslices at every barrier of a walk.  The pool's
        threads, which wait at no barrier, are not bound."""
        if hasattr(os, "sched_getaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
            if len(cpus) >= self.n_threads:
                return cpus[: self.n_threads]
        return []

    def team(self, n_workers: int):
        """The team a walk of ``n_workers`` runs on, this thread as worker
        0; None when it is wider than the backend or the tier has no
        team.  Started at the first call, and again in a forked child."""
        if self._pool is None:
            raise RuntimeError("backend already closed")
        if n_workers > self.n_threads:
            return None
        team = self._team
        if team is None or not team.usable:
            team = self._team = kernels.active_tier().sdc_team(
                self.n_threads, self._cpus()
            )
        return team

    def run_phase(self, closures: Sequence[TaskClosure]) -> None:
        if self._pool is None:
            raise RuntimeError("backend already closed")
        if not closures:
            return
        closures, end_phase = self._begin_phase(closures)
        try:
            futures = [self._pool.submit(c) for c in closures]
            wait(futures)
            for future in futures:
                exc = future.exception()
                if exc is not None:
                    raise exc
        finally:
            end_phase()

    def health_snapshot(self) -> dict:
        snapshot = super().health_snapshot()
        snapshot.update(n_threads=self.n_threads, pool_live=self._pool is not None)
        return snapshot

    def close(self) -> None:
        if self._team is not None:
            self._team.close()
            self._team = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

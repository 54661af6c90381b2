"""Thread-pool backend: real concurrent execution of phase closures.

A pool of ``n_threads`` persistent threads runs each phase, one closure
per thread, and ``wait`` is the phase's barrier.  An SDC evaluation on the
C tier is one such phase: each closure is one worker's ``sdc_walk`` call
(:class:`~repro.kernels.c_tier.SDCWalk`), which drops the GIL for every
colour, the embedding and the barriers between them, so the two halves of
an evaluation run on two cores at once, traced or not.  Elsewhere — the
NumPy tier, an instrumented or observed strategy, the comparison
strategies — a phase is one colour, its closures worker ``k``'s
contiguous pair range of it (see :mod:`repro.core.sdc_plan`), and the
NumPy calls and argument checks inside them trade the GIL.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Optional, Sequence

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
        self.n_threads = self.concurrent_tasks = n_threads
        self._started = itertools.count()
        self._pool: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=n_threads, thread_name_prefix="repro-worker",
            initializer=self._bind,
        )

    def _bind(self) -> None:
        """Pool thread ``k`` takes the ``k``-th CPU of the affinity mask
        when the mask has one per thread, as the process workers do: two
        unbound siblings can settle on one CPU and trade timeslices at
        every barrier of a walked evaluation."""
        if hasattr(os, "sched_setaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
            if len(cpus) >= self.n_threads:
                try:
                    os.sched_setaffinity(0, {cpus[next(self._started)]})
                except OSError:  # a failed initializer would break the pool
                    pass

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
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

"""Thread-pool backend: real concurrent execution of phase closures.

Python's GIL serializes interpreter bytecode, but the NumPy kernels the
closures call release the GIL for large array operations, so this backend
does exercise real core-level parallelism for the vectorized work — enough
to demonstrate the SDC schedule is race-free on real hardware.  An SDC
phase arrives as one closure per worker of the static schedule (worker
``k``'s contiguous pair range of the color, see
:mod:`repro.core.sdc_plan`), so a pool of the schedule's width runs each
closure on its own thread and ``wait`` is the color barrier; the ~10 NumPy
calls inside a closure still trade the GIL.  Wall-clock scaling claims are
the simulator's job (DESIGN.md, substitutions).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from typing import Optional, Sequence

from repro.parallel.backends.base import ExecutionBackend, TaskClosure


class ThreadBackend(ExecutionBackend):
    """Run each phase on a persistent pool of ``n_threads`` workers.

    ``run_phase`` blocks until every closure finishes (barrier); the first
    raised exception is re-raised after the phase settles.
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        self._pool: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=n_threads, thread_name_prefix="repro-worker"
        )

    def run_phase(self, closures: Sequence[TaskClosure]) -> None:
        if self._pool is None:
            raise RuntimeError("backend already closed")
        if not closures:
            return
        closures, end_phase = self._begin_phase(closures)
        try:
            futures = [self._pool.submit(c) for c in closures]
            done, _ = wait(futures)
            for future in done:
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

"""Window reads of per-worker scheduler time from ``/proc/<pid>/schedstat``.

``repro scale`` reads every pool worker just before and just after its
measured window; what accumulated in between is each worker's on-CPU
time and its run-queue wait (runnable, but waiting for a CPU).  The file
counts nanoseconds, so a window of a few tens of milliseconds resolves
where the jiffy counters of ``/proc/<pid>/stat`` would not.  It covers
the pid's main thread, which is where a pool worker computes.  A worker
that is the calling thread itself (worker 0 of a team) is read from
``/proc/self/task/<tid>/schedstat``, its on-CPU time from its own CPU
clock: a running thread's schedstat counts only up to its last tick or
switch.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["read_window", "schedstat", "window_digest"]

Reading = Tuple[float, float]


def schedstat(pid: int, own_thread: bool = False) -> Optional[Reading]:
    """``(on-CPU s, run-queue wait s)`` of ``pid`` — of this process's
    thread ``pid`` with ``own_thread`` — or None when unreadable."""
    where = f"self/task/{pid}" if own_thread else str(pid)
    try:
        with open(f"/proc/{where}/schedstat", "rb") as handle:
            fields = handle.read().split()
        return int(fields[0]) * 1e-9, int(fields[1]) * 1e-9
    except (OSError, ValueError, IndexError):
        return None


def read_window(pids: Iterable[int], caller: bool = False) -> Dict[int, Reading]:
    """:func:`schedstat` of the calling thread (with ``caller``, keyed by
    its tid: tids and pids share one number space), then of every pid in
    ``pids``, wherever it could be read."""
    readings: Dict[int, Optional[Reading]] = {}
    if caller:
        tid = threading.get_native_id()
        own = schedstat(tid, own_thread=True)
        readings[tid] = own and (time.thread_time(), own[1])
    readings.update((pid, schedstat(pid)) for pid in pids)
    return {pid: r for pid, r in readings.items() if r is not None}


def window_digest(
    before: Mapping[int, Reading], after: Mapping[int, Reading]
) -> Dict[str, List[float]]:
    """Per-worker deltas between two reads, in the order of ``before``.

    Pids missing from either read are skipped; ``{}`` when none is left.
    """
    pids = [pid for pid in before if pid in after]
    if not pids:
        return {}
    return {
        "worker_cpu_s": [after[p][0] - before[p][0] for p in pids],
        "worker_run_delay_s": [after[p][1] - before[p][1] for p in pids],
    }

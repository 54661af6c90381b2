"""Structured run logs: one JSON object per line, plus environment meta.

A :class:`RunLog` is the machine-readable counterpart of a run's stdout:
every record is one line of JSON with a ``kind`` discriminator and a
``t`` timestamp (``time.perf_counter()``, the repo-wide trace clock).
Canonical kinds:

* ``meta`` — the environment block (:func:`collect_run_meta`), written
  once at open;
* ``span`` — mirrored trace spans (optional; traces usually go to
  ``trace.json`` instead);
* ``metric`` — mirrored metric samples;
* ``observables`` — per-sample MD observables from the simulation loop;
* ``health`` — mirrored health-plane records: invariant threshold
  crossings from :class:`~repro.obs.health.PhysicsMonitor` and the
  end-of-run health summary (see :mod:`repro.obs.recorder`);
* ``event`` — anything else worth grepping for.

The ``meta`` record carries ``schema_version``
(:data:`RUNLOG_SCHEMA_VERSION`) so downstream readers (the CI smoke
checks, ``repro report``) can reject streams written by an incompatible
layout instead of mis-parsing them.

:func:`collect_run_meta` is also what stamps ``BENCH_*.json``
(schema ``repro-bench-v2``) so bench trajectories are comparable across
machines.

File-backed logs stream to ``<path>.tmp`` (line-buffered append; safe to
tail mid-run) and are atomically renamed to the final path on
:meth:`RunLog.close` — an interrupted run never leaves a truncated
``run.jsonl`` where a complete one is expected.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "RUNLOG_SCHEMA_VERSION",
    "RunLog",
    "collect_run_meta",
    "git_sha",
]

#: bump when the run.jsonl record layout changes incompatibly
RUNLOG_SCHEMA_VERSION = 1


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit SHA, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def collect_run_meta(n_threads: Optional[int] = None) -> Dict[str, object]:
    """Host/environment block identifying where a run happened.

    ``kernel_tier`` names the process's tier, the one the run computed
    with.  ``kernel_tiers`` lists the tiers known to run on this host
    without building anything: ``"c"`` appears once this process has
    loaded it.  ``kernel_simd`` names the C tier's pair-term clone
    (``"avx512f"``, ``"avx2"`` or ``"default"``), None until it is loaded.
    """
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    from repro import kernels

    # CPU affinity: constrained runners (CI containers, cgroup limits,
    # taskset) expose fewer schedulable CPUs than os.cpu_count() — the
    # scaling records need both to be interpretable
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = None

    meta: Dict[str, object] = {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_allowed": len(affinity) if affinity is not None else None,
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "kernel_tier": kernels.active_tier().name,
        "kernel_tiers": list(kernels.available_tiers(load=False)),
        "kernel_simd": kernels.tier_status()["c"]["simd"],
    }
    if n_threads is not None:
        meta["n_threads"] = n_threads
    return meta


class RunLog:
    """Append-only JSONL run log (file-backed or in-memory).

    With a ``path`` the log streams to ``<path>.tmp`` (line-buffered;
    safe to tail mid-run) and atomically renames it to ``path`` on
    :meth:`close`; without one it accumulates in memory for tests and
    ad-hoc use.  Thread-safe — the MD loop and observer callbacks may
    interleave.  The first record is always the ``meta`` block, stamped
    with ``schema_version`` (:data:`RUNLOG_SCHEMA_VERSION`).
    """

    def __init__(
        self, path=None, meta: Optional[Dict[str, object]] = None
    ) -> None:
        self._lock = threading.Lock()
        self._path = os.fspath(path) if path is not None else None
        self._tmp_path = (
            self._path + ".tmp" if self._path is not None else None
        )
        self._handle = (
            open(self._tmp_path, "w", encoding="utf-8")
            if self._tmp_path is not None
            else None
        )
        self._records: List[Dict[str, object]] = []
        meta_fields = dict(meta) if meta is not None else collect_run_meta()
        meta_fields.setdefault("schema_version", RUNLOG_SCHEMA_VERSION)
        self.log("meta", **meta_fields)

    @property
    def path(self) -> Optional[str]:
        """Final artifact path (complete only after :meth:`close`)."""
        return self._path

    @property
    def tmp_path(self) -> Optional[str]:
        """The in-progress stream path (tail this while the run lives)."""
        return self._tmp_path

    def log(self, kind: str, **fields: object) -> Dict[str, object]:
        """Append one record; returns the record as written."""
        record: Dict[str, object] = {
            "t": time.perf_counter(),
            "kind": kind,
            **fields,
        }
        if self._handle is None:
            # nothing to keep in order with the list: an append is atomic
            self._records.append(record)
            return record
        with self._lock:
            self._records.append(record)
            if self._handle is not None:
                self._handle.write(
                    json.dumps(record, sort_keys=True, default=str) + "\n"
                )
                self._handle.flush()
        return record

    @property
    def records(self) -> List[Dict[str, object]]:
        """Snapshot of everything logged (also available file-backed)."""
        with self._lock:
            return list(self._records)

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        return [r for r in self.records if r["kind"] == kind]

    def close(self) -> None:
        """Flush and atomically move the stream to its final path."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None
                os.replace(self._tmp_path, self._path)

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

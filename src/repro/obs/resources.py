"""Continuous resource telemetry: /proc sampling for parent + pool workers.

The tracer answers *who ran what when*; this module answers *what the
processes consumed doing it*.  A :class:`ResourceSampler` periodically
reads ``/proc/<pid>/stat`` (CPU jiffies), ``/proc/<pid>/statm`` (resident
pages) and ``/proc/<pid>/status`` (context-switch counts) for the parent
process and — through the process backend's ``worker_pids()`` — every
live worker, plus the shared-arena footprint (an anonymous mapping; the
counter keeps its historical ``shm-mb`` name) through ``arena_bytes()``.
No psutil: the three proc files are parsed directly, and on platforms
without ``/proc`` the sampler degrades to a no-op.

Samples are recorded as zero-duration :class:`~repro.obs.tracer.Span`
objects with ``category=CAT_COUNTER`` on the same ``perf_counter`` clock
as every other span, so they merge into the existing trace timeline —
the exporter turns them into Chrome trace *counter* events (``ph:"C"``),
one counter track per (metric, process) drawn alongside the worker span
rows they describe.  Worker pids are re-polled on every tick, so a pool
restart (:class:`~repro.parallel.backends.processes.ProcessSDCCalculator`
replacing dead workers) is picked up automatically: old tracks stop,
new ``worker-<pid>`` tracks begin.

The sampler implements the
:class:`~repro.parallel.backends.base.PhaseObserver` hook surface
structurally (like ``TracingObserver``) so it can
ride ``add_observer`` / :class:`~repro.parallel.backends.base.MultiObserver`
next to the tracer: the hooks are interval-guarded
opportunistic sample points, cheap enough to keep the established <2%
observability overhead contract (one clock read per phase end; an actual
/proc sample only when ``interval_s`` has elapsed).

Summaries flow into the other observability artifacts:
:meth:`ResourceSampler.record_metrics` emits per-track peak-RSS /
mean-CPU / context-switch gauges into a
:class:`~repro.obs.metrics.MetricsRegistry` (``metrics.jsonl``), and
:meth:`ResourceSampler.record_health_summary` drops one flight-recorder
event (``health.jsonl``) with the same numbers.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.obs.tracer import CAT_COUNTER, Span

__all__ = [
    "ProcSample",
    "ResourceSampler",
    "read_proc_sample",
    "resources_supported",
]

#: counter-track name prefixes (the part before the per-process suffix)
COUNTER_CPU = "cpu%"
COUNTER_RSS = "rss-mb"
COUNTER_CTX = "ctx-switches"
COUNTER_SHM = "shm-mb"

_BYTES_PER_MB = 1024.0 * 1024.0


def resources_supported() -> bool:
    """True when ``/proc/self`` is readable (Linux procfs semantics)."""
    return os.path.exists("/proc/self/stat")


@dataclass(frozen=True)
class ProcSample:
    """One instantaneous reading of a process's /proc counters."""

    pid: int
    #: cumulative user+system CPU time, seconds (utime+stime / CLK_TCK)
    cpu_seconds: float
    #: resident set size, bytes (statm resident pages x page size)
    rss_bytes: int
    voluntary_ctxt_switches: int
    nonvoluntary_ctxt_switches: int


def read_proc_sample(pid: int) -> Optional[ProcSample]:
    """Read one :class:`ProcSample` for ``pid``; None when gone/unsupported.

    ``/proc/<pid>/stat`` field parsing starts after the last ``)`` — the
    comm field may itself contain spaces and parentheses.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", "replace")
        with open(f"/proc/{pid}/statm", "rb") as handle:
            statm = handle.read().split()
        with open(f"/proc/{pid}/status", "rb") as handle:
            status = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    try:
        after_comm = stat[stat.rindex(")") + 2 :].split()
        # stat(5): fields 14/15 are utime/stime; after_comm[0] is field 3
        utime = int(after_comm[11])
        stime = int(after_comm[12])
        clk_tck = os.sysconf("SC_CLK_TCK") or 100
        page = os.sysconf("SC_PAGE_SIZE") or 4096
        rss_bytes = int(statm[1]) * page
        vctx = ivctx = 0
        for line in status.splitlines():
            if line.startswith("voluntary_ctxt_switches:"):
                vctx = int(line.split(":")[1])
            elif line.startswith("nonvoluntary_ctxt_switches:"):
                ivctx = int(line.split(":")[1])
    except (ValueError, IndexError, OSError):
        return None
    return ProcSample(
        pid=pid,
        cpu_seconds=(utime + stime) / float(clk_tck),
        rss_bytes=rss_bytes,
        voluntary_ctxt_switches=vctx,
        nonvoluntary_ctxt_switches=ivctx,
    )


class ResourceSampler:
    """Background /proc sampler emitting counter spans + summaries.

    Parameters
    ----------
    interval_s:
        target sampling cadence (background thread and the guard on the
        opportunistic observer hooks).
    calculator:
        optional force calculator; when it exposes ``worker_pids()`` the
        sampler follows every live pool worker (re-polled per tick, so
        pool restarts swap tracks automatically), and ``arena_bytes()``
        feeds the shared-arena footprint counter (``shm-mb``).
    pid_provider / shm_provider:
        explicit callables overriding the calculator introspection —
        useful for tests and non-calculator consumers.

    Use as a context manager (``with ResourceSampler(...) as sampler:``)
    or via :meth:`start` / :meth:`stop`.  All samples land on the
    ``time.perf_counter()`` trace clock as frozen counter spans;
    :meth:`counter_spans` snapshots them for the trace exporter.
    """

    def __init__(
        self,
        interval_s: float = 0.05,
        calculator: Optional[object] = None,
        pid_provider: Optional[Callable[[], Sequence[int]]] = None,
        shm_provider: Optional[Callable[[], int]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self._pid_provider = pid_provider
        self._shm_provider = shm_provider
        if calculator is not None:
            self.attach_calculator(calculator)
        self._parent_pid = os.getpid()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        #: pid -> (t, cumulative cpu seconds) of the previous tick
        self._prev_cpu: Dict[int, tuple] = {}
        #: track -> running aggregates for the summary
        self._stats: Dict[str, Dict[str, float]] = {}
        self._peak_shm_bytes = 0
        self._last_sample_t = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # --- wiring ---------------------------------------------------------------

    def attach_calculator(self, calculator: object) -> None:
        """Follow ``calculator``'s worker pids and shared-memory arena."""
        pids = getattr(calculator, "worker_pids", None)
        if callable(pids):
            self._pid_provider = pids
        arena = getattr(calculator, "arena_bytes", None)
        if callable(arena):
            self._shm_provider = arena

    # --- lifecycle -------------------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Start the background sampling thread (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - telemetry must not kill
                pass

    # --- PhaseObserver hook surface (structural) --------------------------------
    #
    # Backends only call these four methods; riding MultiObserver next to
    # the tracer costs one clock read per phase boundary, and an actual
    # /proc sample only once per interval — that is the sampler's share
    # of the <2% observability overhead contract.

    def on_phase_begin(self, phase: int, n_tasks: int) -> None:
        pass

    def on_task_begin(self, phase: int, task: int) -> None:
        pass

    def on_task_end(self, phase: int, task: int) -> None:
        pass

    def on_phase_end(self, phase: int) -> None:
        if time.perf_counter() - self._last_sample_t >= self.interval_s:
            self.sample_once()

    # --- sampling ---------------------------------------------------------------

    def _pids(self) -> List[int]:
        pids = [self._parent_pid]
        if self._pid_provider is not None:
            try:
                extra = list(self._pid_provider())
            except Exception:
                extra = []
            pids.extend(p for p in extra if p != self._parent_pid)
        return pids

    def _track(self, pid: int) -> str:
        # the parent's counters sit on "main"; workers reuse the
        # "worker-<pid>" track names of their reconstructed task spans
        return "main" if pid == self._parent_pid else f"worker-{pid}"

    def sample_once(self) -> int:
        """Take one sample of every followed pid; returns spans emitted."""
        now = time.perf_counter()
        self._last_sample_t = now
        emitted: List[Span] = []
        live: List[int] = []
        for pid in self._pids():
            sample = read_proc_sample(pid)
            if sample is None:
                continue
            live.append(pid)
            track = self._track(pid)
            emitted.append(
                self._counter(
                    COUNTER_RSS,
                    track,
                    pid,
                    now,
                    sample.rss_bytes / _BYTES_PER_MB,
                    unit="MB",
                )
            )
            emitted.append(
                self._counter(
                    COUNTER_CTX,
                    track,
                    pid,
                    now,
                    float(
                        sample.voluntary_ctxt_switches
                        + sample.nonvoluntary_ctxt_switches
                    ),
                    voluntary=sample.voluntary_ctxt_switches,
                    involuntary=sample.nonvoluntary_ctxt_switches,
                )
            )
            prev = self._prev_cpu.get(pid)
            self._prev_cpu[pid] = (now, sample.cpu_seconds)
            cpu_pct: Optional[float] = None
            if prev is not None and now > prev[0]:
                cpu_pct = max(
                    0.0, (sample.cpu_seconds - prev[1]) / (now - prev[0])
                ) * 100.0
                emitted.append(
                    self._counter(
                        COUNTER_CPU, track, pid, now, cpu_pct, unit="%"
                    )
                )
            self._fold_stats(track, pid, sample, cpu_pct)
        # prune cpu state of pids that vanished (pool restart / shutdown)
        for pid in list(self._prev_cpu):
            if pid not in live:
                del self._prev_cpu[pid]
        if self._shm_provider is not None:
            try:
                shm = int(self._shm_provider())
            except Exception:
                shm = 0
            if shm > 0:
                emitted.append(
                    self._counter(
                        COUNTER_SHM,
                        "arena",
                        self._parent_pid,
                        now,
                        shm / _BYTES_PER_MB,
                        unit="MB",
                    )
                )
                with self._lock:
                    self._peak_shm_bytes = max(self._peak_shm_bytes, shm)
        with self._lock:
            self._spans.extend(emitted)
        return len(emitted)

    def _counter(
        self,
        prefix: str,
        track: str,
        pid: int,
        t: float,
        value: float,
        **extra: object,
    ) -> Span:
        args: Dict[str, object] = {"value": value}
        args.update(extra)
        return Span(
            name=f"{prefix} {track}",
            category=CAT_COUNTER,
            start_s=t,
            duration_s=0.0,
            pid=pid,
            track=track,
            args=args,
        )

    def _fold_stats(
        self,
        track: str,
        pid: int,
        sample: ProcSample,
        cpu_pct: Optional[float],
    ) -> None:
        with self._lock:
            stats = self._stats.setdefault(
                track,
                {
                    "pid": float(pid),
                    "n_samples": 0.0,
                    "peak_rss_bytes": 0.0,
                    "cpu_pct_sum": 0.0,
                    "cpu_pct_n": 0.0,
                    "first_vctx": float(sample.voluntary_ctxt_switches),
                    "first_ivctx": float(sample.nonvoluntary_ctxt_switches),
                    "last_vctx": 0.0,
                    "last_ivctx": 0.0,
                },
            )
            stats["n_samples"] += 1.0
            stats["peak_rss_bytes"] = max(
                stats["peak_rss_bytes"], float(sample.rss_bytes)
            )
            stats["last_vctx"] = float(sample.voluntary_ctxt_switches)
            stats["last_ivctx"] = float(sample.nonvoluntary_ctxt_switches)
            if cpu_pct is not None:
                stats["cpu_pct_sum"] += cpu_pct
                stats["cpu_pct_n"] += 1.0

    # --- results ----------------------------------------------------------------

    def counter_spans(self) -> List[Span]:
        """Snapshot of every counter span recorded so far."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def summary(self) -> Dict[str, object]:
        """Per-track digest: peak RSS, mean CPU%, context-switch deltas."""
        with self._lock:
            stats = {k: dict(v) for k, v in self._stats.items()}
            peak_shm = self._peak_shm_bytes
        tracks: Dict[str, Dict[str, object]] = {}
        for track, s in sorted(stats.items()):
            tracks[track] = {
                "pid": int(s["pid"]),
                "n_samples": int(s["n_samples"]),
                "peak_rss_bytes": int(s["peak_rss_bytes"]),
                "mean_cpu_percent": (
                    s["cpu_pct_sum"] / s["cpu_pct_n"]
                    if s["cpu_pct_n"]
                    else None
                ),
                "ctx_switches_voluntary": int(
                    s["last_vctx"] - s["first_vctx"]
                ),
                "ctx_switches_involuntary": int(
                    s["last_ivctx"] - s["first_ivctx"]
                ),
            }
        return {
            "supported": resources_supported(),
            "n_tracks": len(tracks),
            "peak_shm_bytes": peak_shm,
            "tracks": tracks,
        }

    def worker_mean_cpu_percent(self) -> Optional[float]:
        """Mean CPU% across worker tracks (None without worker samples).

        The scaling harness's resource-pressure attribution: workers
        pinned at ~100% were compute-bound; sustained sub-100% means the
        cores were descheduled or stalled while tasks were nominally
        running.
        """
        summary = self.summary()
        values = [
            t["mean_cpu_percent"]
            for name, t in summary["tracks"].items()  # type: ignore[union-attr]
            if name != "main" and t["mean_cpu_percent"] is not None
        ]
        if not values:
            return None
        return float(sum(values) / len(values))

    def record_metrics(self, registry, **labels: object) -> None:
        """Emit the summary as gauges into a metrics registry."""
        summary = self.summary()
        for track, s in summary["tracks"].items():  # type: ignore[union-attr]
            registry.gauge(
                "resource_peak_rss_bytes",
                float(s["peak_rss_bytes"]),
                track=track,
                **labels,
            )
            if s["mean_cpu_percent"] is not None:
                registry.gauge(
                    "resource_mean_cpu_percent",
                    float(s["mean_cpu_percent"]),
                    track=track,
                    **labels,
                )
            registry.gauge(
                "resource_ctx_switches_voluntary",
                float(s["ctx_switches_voluntary"]),
                track=track,
                **labels,
            )
            registry.gauge(
                "resource_ctx_switches_involuntary",
                float(s["ctx_switches_involuntary"]),
                track=track,
                **labels,
            )
        if summary["peak_shm_bytes"]:
            registry.gauge(
                "resource_peak_shm_bytes",
                float(summary["peak_shm_bytes"]),  # type: ignore[arg-type]
                track="arena",
                **labels,
            )

    def record_health_summary(self, **fields: object) -> None:
        """Drop one flight-recorder event carrying the resource digest."""
        summary = self.summary()
        tracks: Mapping[str, Mapping[str, object]] = summary["tracks"]  # type: ignore[assignment]
        peak_rss = max(
            (int(t["peak_rss_bytes"]) for t in tracks.values()), default=0
        )
        cpu_values = [
            t["mean_cpu_percent"]
            for t in tracks.values()
            if t["mean_cpu_percent"] is not None
        ]
        try:
            from repro.obs.recorder import record

            record(
                "resources",
                "resource-summary",
                n_tracks=summary["n_tracks"],
                peak_rss_bytes=peak_rss,
                mean_cpu_percent=(
                    sum(cpu_values) / len(cpu_values) if cpu_values else None
                ),
                peak_shm_bytes=summary["peak_shm_bytes"],
                **fields,
            )
        except Exception:  # pragma: no cover - telemetry stays optional
            pass

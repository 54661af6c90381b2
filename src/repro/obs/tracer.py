"""Span-based runtime tracing — the one timing primitive of the package.

A :class:`Tracer` records :class:`Span` objects — named, real-timestamped
intervals on a (pid, track) timeline — and every other timing number is
derived from that stream: the per-phase statistics of ``repro bench`` are
a reduction over it (:mod:`repro.utils.profiler`), the load-balance
metrics another (:func:`repro.obs.metrics.record_span_metrics`).  Spans
come from four sources:

* strategy / engine / kernel regions (``_span``: color phases, merges,
  lock sections).  A region that counts toward one of the canonical
  phases (``density``, ``embedding``, ``force``, ``neighbor-rebuild``,
  ``setup``, ``sync``) says so with a *string* ``phase`` arg — the
  phase tag the reduction sums over; untagged regions (``lock-held``,
  halo exchanges) are timeline detail only;
* backend execution (:class:`TracingObserver` on the
  :class:`~repro.parallel.backends.base.PhaseObserver` hook surface:
  per-task spans on the worker that ran them, plus a synthesized
  barrier-wait span per task from its end to the phase barrier);
* the MD driver (per-step spans, neighbor rebuilds);
* forked process workers, whose spans ship back with their results and are
  clock-aligned to the parent by :func:`align_worker_spans`.

All timestamps are ``time.perf_counter()``, read only here and where a
worker stamps its chunk.  Backend spans (``task`` / ``phase`` /
``barrier``) carry the *integer* backend phase index under the same
``phase`` key.  The Chrome trace-event / Perfetto exporter lives in
:mod:`repro.obs.exporters`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Span",
    "Tracer",
    "TracingObserver",
    "align_worker_spans",
    "NULL_SPAN",
    "span_of",
    "CAT_PHASE",
    "CAT_TASK",
    "CAT_BARRIER",
    "CAT_REGION",
    "CAT_MD",
]

#: this process's id, renewed in a forked child: ``os.getpid()`` is a
#: system call, and :meth:`Tracer.span` records it twice a step
_pid = os.getpid()


def _renew_pid() -> None:
    global _pid
    _pid = os.getpid()


if hasattr(os, "register_at_fork"):  # POSIX: where a child can be forked
    os.register_at_fork(after_in_child=_renew_pid)

#: span categories (the ``cat`` field of the exported trace events)
CAT_PHASE = "phase"
CAT_TASK = "task"
CAT_BARRIER = "barrier"
CAT_REGION = "region"
CAT_MD = "md"


@dataclass(frozen=True)
class Span:
    """One named interval on one track of the execution timeline.

    Attributes
    ----------
    name:
        human-readable label (``"density:color0"``, ``"task 3.1"``, ...).
    category:
        one of the ``CAT_*`` constants (drives trace-viewer grouping).
    start_s:
        ``time.perf_counter()`` at span begin, parent clock domain.
    duration_s:
        span length in seconds (>= 0).
    pid:
        OS process id the span executed in.
    track:
        timeline row — a thread name in-process, ``"worker-<pid>"`` for
        forked workers.
    args:
        small JSON-serializable payload (color index, task id, ...).
    """

    name: str
    category: str
    start_s: float
    duration_s: float
    pid: int
    track: str
    args: Mapping[str, object] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def shifted(self, offset_s: float) -> "Span":
        """The same span translated by ``offset_s`` (clock alignment)."""
        if offset_s == 0.0:
            return self
        return Span(
            name=self.name,
            category=self.category,
            start_s=self.start_s + offset_s,
            duration_s=self.duration_s,
            pid=self.pid,
            track=self.track,
            args=self.args,
        )


class Tracer:
    """Thread-safe append-only span recorder.

    The hot-path contract is: *absent* tracer means zero overhead (the
    instrumented code keeps a ``None`` check and a no-op context manager),
    a *present* tracer means two clock reads and one list append per span.

    A thread-local region stack tracks the innermost open ``span()`` so
    observers can label backend phases after the strategy region they run
    under (``density:color2/phase7`` instead of a bare index).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: recorded spans; :meth:`span` appends its fields as a tuple, made
        #: a :class:`Span` when first read
        self._spans: List[Union[Span, tuple]] = []
        self._tls = threading.local()

    # --- recording ------------------------------------------------------------

    def record(self, span: Span) -> None:
        """Append one finished span."""
        with self._lock:
            self._spans.append(span)

    def add(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        track: Optional[str] = None,
        pid: Optional[int] = None,
        **args: object,
    ) -> Span:
        """Build and record a span; defaults to the current thread/process."""
        span = Span(
            name=name,
            category=category,
            start_s=start_s,
            duration_s=max(0.0, duration_s),
            pid=_pid if pid is None else pid,
            track=(
                threading.current_thread().name if track is None else track
            ),
            args=dict(args),
        )
        self.record(span)
        return span

    def span(
        self, name: str, category: str = CAT_REGION, **args: object
    ) -> "_OpenSpan":
        """Context manager recording one span around its body."""
        return _OpenSpan(self, name, category, args)

    # --- region labels ----------------------------------------------------------

    def _thread(self) -> threading.local:
        """This thread's region ``stack`` and ``track`` (its name when it
        first opened a span here)."""
        local = self._tls
        if not hasattr(local, "stack"):
            local.stack = []
            local.track = threading.current_thread().name
        return local

    def current_region(self) -> Optional[str]:
        """Innermost open ``span()`` name on this thread (None outside)."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    # --- access -----------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Snapshot of everything recorded so far."""
        with self._lock:
            spans = self._spans
            for k, span in enumerate(spans):
                if type(span) is tuple:
                    spans[k] = Span(*span)
            return list(spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def by_category(self, category: str) -> List[Span]:
        """All recorded spans of one category, in record order."""
        return [s for s in self.spans if s.category == category]

    def total(self, category: str) -> float:
        """Summed duration of one category's spans."""
        return sum(s.duration_s for s in self.by_category(category))


class _OpenSpan:
    """:meth:`Tracer.span`'s context: two clock reads, a region-stack push
    and pop, and one append of the span's fields (the driver opens two a
    step, so this stays a plain object, not a generator)."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_thread", "_start")

    def __init__(self, tracer: Tracer, name: str, category: str, args) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> None:
        self._thread = self._tracer._thread()
        self._thread.stack.append(self._name)
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        thread = self._thread
        thread.stack.pop()
        # a lone list append is atomic: no lock
        self._tracer._spans.append((
            self._name, self._category, self._start,
            max(0.0, end - self._start), _pid, thread.track, self._args,
        ))


class _NullSpan:
    """Reusable no-op context (keeps untraced hot paths allocation-free)."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN = _NullSpan()


def span_of(tracer: Optional[Tracer], name: str, **args: object):
    """``tracer.span(name, **args)``, or the no-op context when untraced.

    What every instrumented site goes through, so an absent tracer costs
    one ``None`` check and no allocation.
    """
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **args)


class TracingObserver:
    """Backend observer turning phase/task hooks into timeline spans.

    Implements the :class:`~repro.parallel.backends.base.PhaseObserver`
    surface structurally (hooks only, no isinstance).  Per backend phase
    it records:

    * one ``task p.t`` span per task, on the worker track that ran it;
    * one ``phase`` span on the dispatching track, labeled after the
      strategy region open at phase begin when there is one;
    * one ``barrier-wait`` span per worker track, covering the interval
      between that worker's *last* task end and the phase barrier — the
      per-worker slack the load-imbalance metrics aggregate.  (Per track,
      not per task: a worker that ran several tasks back-to-back only
      waited once, and per-task spans would overlap its later slices.)
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._lock = threading.Lock()
        #: phase -> (start_s, region label at begin)
        self._phase_start: Dict[int, Tuple[float, Optional[str]]] = {}
        #: (phase, task) -> start_s
        self._task_start: Dict[Tuple[int, int], float] = {}
        #: phase -> [(task, start_s, end_s, track, pid)]
        self._task_done: Dict[int, List[Tuple[int, float, float, str, int]]] = {}

    def on_phase_begin(self, phase: int, n_tasks: int) -> None:
        with self._lock:
            self._phase_start[phase] = (
                time.perf_counter(),
                self.tracer.current_region(),
            )
            self._task_done[phase] = []

    def on_task_begin(self, phase: int, task: int) -> None:
        with self._lock:
            self._task_start[(phase, task)] = time.perf_counter()

    def on_task_end(self, phase: int, task: int) -> None:
        end = time.perf_counter()
        track = threading.current_thread().name
        pid = _pid
        with self._lock:
            start = self._task_start.pop((phase, task), None)
            if start is None:
                return
            done = self._task_done.get(phase)
            if done is not None:
                done.append((task, start, end, track, pid))
        self.tracer.add(
            f"task {phase}.{task}",
            CAT_TASK,
            start,
            end - start,
            track=track,
            pid=pid,
            phase=phase,
            task=task,
        )

    def on_phase_end(self, phase: int) -> None:
        end = time.perf_counter()
        with self._lock:
            start, region = self._phase_start.pop(phase, (None, None))
            done = self._task_done.pop(phase, [])
        if start is None:
            return
        label = f"{region}/phase{phase}" if region else f"phase{phase}"
        self.tracer.add(
            label,
            CAT_PHASE,
            start,
            end - start,
            phase=phase,
            n_tasks=len(done),
        )
        last_on_track: Dict[str, Tuple[float, int]] = {}
        for _, _, task_end, track, pid in done:
            prev = last_on_track.get(track)
            if prev is None or task_end > prev[0]:
                last_on_track[track] = (task_end, pid)
        for track, (task_end, pid) in last_on_track.items():
            wait = end - task_end
            if wait <= 0.0:
                continue
            self.tracer.add(
                "barrier-wait",
                CAT_BARRIER,
                task_end,
                wait,
                track=track,
                pid=pid,
                phase=phase,
            )


def align_worker_spans(
    spans: Sequence[Span],
    worker_origin_s: float,
    window_start_s: float,
    window_end_s: float,
) -> List[Span]:
    """Translate worker-recorded spans into the parent's clock domain.

    ``worker_origin_s`` is the worker's ``perf_counter()`` sampled when it
    picked up the work; ``window_start_s``/``window_end_s`` bracket the
    parent's dispatch of that work.  On Linux ``perf_counter`` is
    ``CLOCK_MONOTONIC``, which survives ``fork`` — the origin then falls
    inside the dispatch window and no shift is applied.  When the clock
    domains differ (spawned workers, exotic platforms) the origin lands
    outside the window and the worker timeline is pinned to the dispatch
    start instead.
    """
    if window_start_s <= worker_origin_s <= window_end_s:
        offset = 0.0
    else:
        offset = window_start_s - worker_origin_s
    return [span.shifted(offset) for span in spans]

"""Span-based runtime tracing — the one timing primitive of the package.

A :class:`Tracer` records :class:`Span` objects — named, real-timestamped
intervals on a (pid, track) timeline — and every other timing number is
derived from that stream: the per-phase statistics of ``repro bench`` are
a reduction over it (:mod:`repro.utils.profiler`), the load-balance
metrics another (:func:`repro.obs.metrics.record_span_metrics`).  Spans
come from two sources:

* strategy / engine / driver regions (:meth:`Tracer.span`: neighbour
  rebuilds, merges, lock sections, MD steps).  A region that counts
  toward one of the canonical phases (``density``, ``embedding``,
  ``force``, ``neighbor-rebuild``, ``setup``, ``sync``) says so with a
  *string* ``phase`` arg — the phase tag the reduction sums over;
  untagged regions (``lock-held``) are timeline detail only;
* parallel regions, from their tasks' own clock marks: one function,
  :func:`trace_region`, turns a region's window, its phases' labels and
  each task's marks into the region, ``phase``, ``task`` and
  ``barrier-wait`` spans.  A strategy's per-colour dispatch stamps each
  closure's start and end (:func:`repro.core.strategies.base.run_phase`);
  the C walker and the process workers stamp ``CLOCK_MONOTONIC`` at
  every barrier.

All timestamps are ``time.perf_counter()`` (``CLOCK_MONOTONIC`` on Linux,
which the marks read too).  Backend spans (``task`` / ``phase`` /
``barrier``) carry the *integer* phase index under the same ``phase``
key.  The Chrome trace-event / Perfetto exporter lives in
:mod:`repro.obs.exporters`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

__all__ = [
    "Span",
    "Tracer",
    "trace_region",
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


class Tracer:
    """Thread-safe append-only span recorder.

    The hot-path contract is: *absent* tracer means zero overhead (the
    instrumented code keeps a ``None`` check and a no-op context manager),
    a *present* tracer means two clock reads and one list append per span.
    Parallel phases are numbered per tracer, from 0 (:func:`trace_region`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: recorded spans; :meth:`span` appends its fields as a tuple, made
        #: a :class:`Span` when first read
        self._spans: List[Union[Span, tuple]] = []
        self._tls = threading.local()
        #: the index of the next parallel phase
        self._phases = itertools.count()

    # --- recording ------------------------------------------------------------

    def span(
        self, name: str, category: str = CAT_REGION, **args: object
    ) -> "_OpenSpan":
        """Context manager recording one span around its body."""
        return _OpenSpan(self, name, category, args)

    def _track(self) -> str:
        """This thread's track: its name when it first opened a span here."""
        local = self._tls
        try:
            return local.track
        except AttributeError:
            local.track = threading.current_thread().name
            return local.track

    # --- access -----------------------------------------------------------------

    def _settled(self) -> List[Union[Span, tuple]]:
        """The record, every region in it made spans (hold the lock)."""
        spans, k = self._spans, 0
        while k < len(spans):  # a thread may append meanwhile
            if type(spans[k]) is _Region:
                made = spans[k].spans(self)
                spans[k : k + 1] = made
                k += len(made)
            else:
                k += 1
        return spans

    @property
    def spans(self) -> List[Span]:
        """Snapshot of everything recorded so far."""
        with self._lock:
            spans = self._settled()
            for k, span in enumerate(spans):
                if type(span) is tuple:
                    spans[k] = Span(*span)
            return list(spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._settled())

    def clear(self) -> None:
        """Forget every span and number phases from 0 again."""
        with self._lock:
            self._spans.clear()
            self._phases = itertools.count()

    def by_category(self, category: str) -> List[Span]:
        """All recorded spans of one category, in record order."""
        return [s for s in self.spans if s.category == category]


class _OpenSpan:
    """:meth:`Tracer.span`'s context: two clock reads and one append of the
    span's fields (the driver opens two a step, so this stays a plain
    object, not a generator)."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start")

    def __init__(self, tracer: Tracer, name: str, category: str, args) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        # a lone list append is atomic: no lock
        tracer._spans.append((
            self._name, self._category, self._start,
            max(0.0, end - self._start), _pid, tracer._track(), self._args,
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


def trace_region(
    tracer: Tracer,
    window: Tuple[float, float],
    steps: Sequence[Tuple[str, Mapping[str, object]]],
    tasks: Sequence[Optional[Tuple[Sequence[float], str, int]]],
) -> None:
    """Put one parallel region on the timeline: the one source of the
    ``task``, ``phase`` and ``barrier-wait`` spans.

    The region ran over ``window`` on the calling thread as the phases
    ``steps[j] = (label, region args)``, e.g. ``("density:color2",
    {"phase": "density", "color": 2})``.  Task ``k`` ran on track
    ``tasks[k] = (marks, track, pid)`` (None: it never started) and
    stamped ``marks``: its start, each barrier's entry and exit, its end,
    so its share of phase ``j`` is ``marks[2j] .. marks[2j + 1]``.  Phase
    ``j`` runs between the first exits of the barriers around it, the
    window's ends outside.  Marks on another clock than the window's
    (a worker whose start falls outside it) are pinned to its start; on
    Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which the C marks read
    and which survives ``fork``, so nothing moves.

    Each phase gives the region span ``label`` tagged with its args, a
    ``phase`` span ``<label>/phase<n>`` numbered by the tracer, a
    ``<label>:chunk`` task span per task on its track, and one
    ``barrier-wait`` per track from its last task end to the phase end
    (a worker that ran several tasks back to back waited once).  The
    region is kept as given, one append, and made spans when the tracer
    is first read: the evaluation it times builds none.
    """
    tracer._spans.append(_Region(window, steps, tasks, tracer._track()))


class _Region(NamedTuple):
    """What :func:`trace_region` was given, until the tracer is read."""

    window: Tuple[float, float]
    steps: Sequence[Tuple[str, Mapping[str, object]]]
    tasks: Sequence[Optional[Tuple[Sequence[float], str, int]]]
    here: str

    def spans(self, tracer: Tracer) -> List[tuple]:
        """The region's span fields, as :class:`Tracer` keeps them."""
        start, end = self.window
        ran = []
        for k, task in enumerate(self.tasks):
            if task is not None:
                marks, track, pid = task
                # marks on a clock the window's start and end do not bracket
                offset = 0.0 if start <= marks[0] <= end else start - marks[0]
                ran.append((k, [float(t) + offset for t in marks], track, pid))
        exits = (
            min((m[2 * j] for _, m, _, _ in ran), default=end)
            for j in range(1, len(self.steps))
        )
        edges, here, spans = [start, *exits, end], self.here, []
        for j, (label, args) in enumerate(self.steps):
            lo, hi = edges[j], edges[j + 1]
            wall, phase = (hi - lo if hi > lo else 0.0), next(tracer._phases)
            spans += [
                (label, CAT_REGION, lo, wall, _pid, here, args),
                (
                    f"{label}/phase{phase}", CAT_PHASE, lo, wall, _pid, here,
                    {"phase": phase, "n_tasks": len(self.tasks)},
                ),
            ]
            last: Dict[str, Tuple[float, int]] = {}
            for k, marks, track, pid in ran:
                begin, done = marks[2 * j], marks[2 * j + 1]
                spans.append((
                    f"{label}:chunk", CAT_TASK, begin, max(0.0, done - begin),
                    pid, track, {"phase": phase, "task": k},
                ))
                if track not in last or done > last[track][0]:
                    last[track] = (done, pid)
            spans += [
                (
                    "barrier-wait", CAT_BARRIER, done, hi - done, pid, track,
                    {"phase": phase},
                )
                for track, (done, pid) in last.items()
                if hi > done
            ]
        return spans

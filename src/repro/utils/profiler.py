"""Per-phase wall-clock statistics: a reduction over :class:`Tracer` spans.

The simulated machine (:mod:`repro.parallel.sim_exec`) predicts runtimes;
``repro bench`` *measures* them.  There is one clock and one record — the
:class:`~repro.obs.tracer.Span` — and this module only reduces a span
list to per-phase samples:

* a region span counts toward the canonical phase named by its string
  ``phase`` arg: ``density`` / ``embedding`` / ``force`` (the three
  kernel phases, Section II.C), ``neighbor-rebuild`` (decomposition and
  partition rebuild keyed to the Verlet list), ``setup`` / ``sync`` (the
  persistent engines' pool construction and per-step state refresh).
  Untagged spans (``lock-held``, halo exchanges) are timeline detail and
  never double-count;
* ``color-barrier`` — time workers spend waiting at the implicit barrier
  between color phases — is each backend ``phase`` span minus the longest
  ``task`` span of that phase;
* a span tagged ``total`` delimits one *repeat*: every phase contributes
  one sample per repeat (the sum of its spans inside it), and a repeat
  whose ``total`` span carries ``warmup=True`` is discarded (page faults,
  allocator warm state, NumPy dispatch caches).  A span list without any
  ``total`` span is one implicit repeat.

:func:`measure` is the warm-up/repeat driver that emits those ``total``
spans; samples are summarized as median and interquartile range
(:func:`repro.utils.timers.median_iqr`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.obs.tracer import CAT_PHASE, CAT_TASK, Span, Tracer
from repro.utils.timers import median_iqr

#: derived, not timed: backend phase span minus its longest task span
PHASE_BARRIER = "color-barrier"
#: one whole evaluation; also the repeat delimiter (see module docstring)
PHASE_TOTAL = "total"
#: canonical phase names, in reporting order (``setup`` / ``sync`` are the
#: persistent engines' pool construction and per-step state refresh)
CANONICAL_PHASES: Tuple[str, ...] = (
    "density",
    "embedding",
    "force",
    "neighbor-rebuild",
    "setup",
    "sync",
    PHASE_BARRIER,
)


@dataclass(frozen=True)
class PhaseStats:
    """Summary of one phase's per-repeat wall-clock samples."""

    phase: str
    n_samples: int
    median_s: float
    iqr_s: float
    min_s: float
    max_s: float

    @staticmethod
    def from_samples(phase: str, samples: List[float]) -> "PhaseStats":
        """Summarize raw per-repeat seconds into the reported statistics."""
        med, iqr = median_iqr(samples)
        return PhaseStats(
            phase=phase,
            n_samples=len(samples),
            median_s=med,
            iqr_s=iqr,
            min_s=min(samples),
            max_s=max(samples),
        )


def _repeat_totals(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds per phase over the spans of one repeat."""
    totals: Dict[str, float] = {}
    phase_wall: Dict[object, float] = {}
    longest_task: Dict[object, float] = {}
    for span in spans:
        tag = span.args.get("phase")
        if span.category == CAT_PHASE:
            phase_wall[tag] = phase_wall.get(tag, 0.0) + span.duration_s
        elif span.category == CAT_TASK:
            if span.duration_s > longest_task.get(tag, 0.0):
                longest_task[tag] = span.duration_s
        elif isinstance(tag, str):
            totals[tag] = totals.get(tag, 0.0) + span.duration_s
    if phase_wall:
        # clock skew across workers can make a task outlast its phase
        totals[PHASE_BARRIER] = sum(
            max(0.0, wall - longest_task.get(index, 0.0))
            for index, wall in phase_wall.items()
        )
    return totals


def phase_samples(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Per-phase samples, one per measured repeat (see module docstring)."""
    repeats = [s for s in spans if s.args.get("phase") == PHASE_TOTAL]
    windows: List[Iterable[Span]] = [spans]
    if repeats:
        windows = [
            [
                s
                for s in spans
                if s is rep or rep.start_s <= s.start_s < rep.end_s
            ]
            for rep in repeats
            if not rep.args.get("warmup")
        ]
    samples: Dict[str, List[float]] = {}
    for window in windows:
        for name, seconds in _repeat_totals(window).items():
            samples.setdefault(name, []).append(seconds)
    return samples


def phase_stats(spans: Sequence[Span]) -> Dict[str, PhaseStats]:
    """Median / IQR / n per phase of a span list."""
    return {
        name: PhaseStats.from_samples(name, sample)
        for name, sample in phase_samples(spans).items()
    }


def measure(
    tracer: Tracer,
    fn: Callable[[], object],
    warmup: int = 1,
    repeats: int = 5,
) -> Dict[str, PhaseStats]:
    """Run ``fn`` with the repeat protocol and return per-phase stats.

    ``fn`` is expected to exercise code that records into ``tracer``;
    each call is wrapped in a ``total`` span, the first ``warmup`` of
    them marked to be discarded.
    """
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for k in range(warmup + repeats):
        with tracer.span(PHASE_TOTAL, phase=PHASE_TOTAL, warmup=k < warmup):
            fn()
    return phase_stats(tracer.spans)


def phase_names(stats: Mapping[str, object]) -> List[str]:
    """Names in ``stats``: canonical order, extras sorted, ``total`` last."""
    seen = set(stats)
    ordered = [p for p in CANONICAL_PHASES if p in seen]
    ordered += sorted(seen - set(ordered) - {PHASE_TOTAL})
    if PHASE_TOTAL in seen:
        ordered.append(PHASE_TOTAL)
    return ordered


def render_phase_table(stats: Mapping[str, PhaseStats]) -> str:
    """Human-readable per-phase table (median / IQR / samples)."""
    if not stats:
        return "(no phases profiled)"
    names = phase_names(stats)
    width = max(len(n) for n in names)
    lines = [f"{'phase':<{width}}  {'median':>12}  {'iqr':>12}  {'n':>3}"]
    for name in names:
        s = stats[name]
        lines.append(
            f"{name:<{width}}  {s.median_s:>10.6f} s  {s.iqr_s:>10.6f} s"
            f"  {s.n_samples:>3}"
        )
    return "\n".join(lines)

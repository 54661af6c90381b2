"""Counters, gauges, and the derived load-balance metrics.

A :class:`MetricsRegistry` is a thread-safe store of labeled metric
samples — counters (monotonic, summed on query) and gauges (last write
wins) — serialized one JSON object per line (``metrics.jsonl``) so perf
metrics, race-check findings, and bench context land in one stream.

On top of the raw store, this module derives the quantities the paper's
discussion section reasons about:

* **per-color load-imbalance ratio** ``max_task / mean_task`` — from the
  static pair counts of each color's subdomains
  (:func:`record_schedule_metrics`) and from the *measured* task span
  durations (:func:`record_span_metrics`);
* **halo fraction** — share of pairs whose endpoints live in different
  subdomains (the writes that force the color barriers to exist);
* **barrier slack per color phase** — summed barrier-wait span time.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import CAT_BARRIER, CAT_PHASE, CAT_TASK, Span, Tracer

__all__ = [
    "MetricRecord",
    "MetricsRegistry",
    "imbalance_rows",
    "load_imbalance",
    "record_racecheck_metrics",
    "record_schedule_metrics",
    "record_span_metrics",
]

COUNTER = "counter"
GAUGE = "gauge"


@dataclass(frozen=True)
class MetricRecord:
    """One metric sample: name, kind, value, and identifying labels."""

    name: str
    kind: str
    value: float
    labels: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "metric": self.name,
            "kind": self.kind,
            "value": self.value,
        }
        out.update(self.labels)
        return out


def _label_key(labels: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Thread-safe labeled counter/gauge store with JSONL export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[MetricRecord] = []

    # --- writing ---------------------------------------------------------------

    def count(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add one counter increment (summed per label set on query)."""
        with self._lock:
            self._records.append(
                MetricRecord(name, COUNTER, float(value), dict(labels))
            )

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Record a gauge sample (last write per label set wins on query)."""
        with self._lock:
            self._records.append(
                MetricRecord(name, GAUGE, float(value), dict(labels))
            )

    # --- reading ---------------------------------------------------------------

    def records(self) -> List[MetricRecord]:
        """Snapshot of every recorded sample, in record order."""
        with self._lock:
            return list(self._records)

    def names(self) -> List[str]:
        """Distinct metric names, first-seen order."""
        seen: Dict[str, None] = {}
        for r in self.records():
            seen.setdefault(r.name, None)
        return list(seen)

    def value(self, name: str, **labels: object) -> Optional[float]:
        """Resolved value for one (name, labels): counter sum / last gauge."""
        key = _label_key(labels)
        total = 0.0
        found = False
        last: Optional[float] = None
        for r in self.records():
            if r.name != name or _label_key(r.labels) != key:
                continue
            found = True
            if r.kind == COUNTER:
                total += r.value
            else:
                last = r.value
        if not found:
            return None
        return last if last is not None else total

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # --- export ----------------------------------------------------------------

    def to_jsonl(self) -> str:
        """All samples, one JSON object per line."""
        return "\n".join(
            json.dumps(r.to_dict(), sort_keys=True) for r in self.records()
        )

    def write_jsonl(self, path) -> None:
        """Atomically replace ``path`` with the JSONL stream."""
        from repro.obs.atomicio import atomic_write_text

        text = self.to_jsonl()
        atomic_write_text(path, text + "\n" if text else "")


def load_imbalance(values: Iterable[float]) -> float:
    """``max / mean`` of per-task load values (1.0 = perfectly balanced).

    Zero-size or all-zero inputs return 0.0 — an empty color phase has no
    imbalance to speak of.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0
    mean = float(arr.mean())
    if mean <= 0.0:
        return 0.0
    return float(arr.max()) / mean


def record_schedule_metrics(
    registry: MetricsRegistry,
    pairs,
    schedule,
    **labels: object,
) -> None:
    """Static decomposition metrics from a pair partition + color schedule.

    Parameters mirror the SDC internals: ``pairs`` is a
    :class:`~repro.core.partition.PairPartition`, ``schedule`` a
    :class:`~repro.core.schedule.ColorSchedule`.  Emits pairs processed,
    atoms/pairs per subdomain (min/mean/max), per-color static
    load-imbalance ratios, and the halo fraction (the cross-subdomain
    share of the pairs).  Records carry no ``shard`` label: the sharded
    engine's per-shard gauges come from its own ``halo_stats()``.
    """
    pair_counts = pairs.pair_counts().astype(float)
    atom_counts = pairs.partition.counts().astype(float)
    registry.count("pairs_processed", float(pair_counts.sum()), **labels)
    registry.gauge("n_subdomains", float(len(pair_counts)), **labels)
    registry.gauge("n_colors", float(schedule.n_colors), **labels)
    for name, counts in (("pairs", pair_counts), ("atoms", atom_counts)):
        if counts.size:
            registry.gauge(f"{name}_per_subdomain_min", float(counts.min()), **labels)
            registry.gauge(f"{name}_per_subdomain_mean", float(counts.mean()), **labels)
            registry.gauge(f"{name}_per_subdomain_max", float(counts.max()), **labels)
    sub_of = pairs.partition.subdomain_of_atom
    if pairs.n_pairs:
        halo = float(np.mean(sub_of[pairs.i_idx] != sub_of[pairs.j_idx]))
        registry.gauge("halo_fraction", halo, **labels)
    for color, members in enumerate(schedule.phases):
        registry.gauge(
            "color_load_imbalance_static",
            load_imbalance(pair_counts[members]),
            color=color,
            n_subdomains=len(members),
            **labels,
        )


def record_racecheck_metrics(
    registry: MetricsRegistry,
    report,
    **labels: object,
) -> None:
    """Race-detector findings as metrics, same stream as the perf data.

    ``report`` is a :class:`~repro.analysis.racecheck.RaceCheckReport`.
    Every sample carries ``strategy``/``workload``/``backend`` labels so
    conflict counts sit next to the load-balance gauges of the same run.
    """
    base = {
        "strategy": report.strategy,
        "workload": report.workload,
        "backend": report.backend,
        **labels,
    }
    registry.count(
        "racecheck_conflicting_elements",
        float(report.n_conflicting_elements),
        **base,
    )
    registry.count(
        "racecheck_conflicts", float(len(report.conflicts)), **base
    )
    registry.count(
        "racecheck_canary_violations",
        float(len(report.canary_violations)),
        **base,
    )
    registry.gauge("racecheck_phases", float(report.n_phases), **base)
    registry.gauge("racecheck_ok", 1.0 if report.ok else 0.0, **base)
    if report.max_force_error is not None:
        registry.gauge(
            "racecheck_max_force_error", report.max_force_error, **base
        )


def record_span_metrics(
    registry: MetricsRegistry,
    tracer: Tracer,
    **labels: object,
) -> None:
    """Measured per-phase metrics from recorded task/barrier spans.

    For every backend phase with task spans: the *measured* load-imbalance
    ratio (longest task / mean task duration) and the barrier slack (sum
    of that phase's barrier-wait spans).  Each sample carries the phase's
    region label (``"density:color2/phase5"``) so per-color ratios can be
    ranked directly from the stream.
    """
    tasks: Dict[int, List[Span]] = {}
    for span in tracer.by_category(CAT_TASK):
        phase = span.args.get("phase")
        if isinstance(phase, int):
            tasks.setdefault(phase, []).append(span)
    slack: Dict[int, float] = {}
    for span in tracer.by_category(CAT_BARRIER):
        phase = span.args.get("phase")
        if isinstance(phase, int):
            slack[phase] = slack.get(phase, 0.0) + span.duration_s
    phase_names: Dict[int, str] = {}
    for span in tracer.by_category(CAT_PHASE):
        phase = span.args.get("phase")
        if isinstance(phase, int):
            phase_names.setdefault(phase, span.name)
    for phase in sorted(tasks):
        durations = [s.duration_s for s in tasks[phase]]
        name = phase_names.get(phase, f"phase{phase}")
        registry.gauge(
            "phase_load_imbalance_measured",
            load_imbalance(durations),
            phase=phase,
            phase_name=name,
            n_tasks=len(durations),
            **labels,
        )
        registry.gauge(
            "phase_barrier_slack_s",
            slack.get(phase, 0.0),
            phase=phase,
            phase_name=name,
            **labels,
        )


def imbalance_rows(
    metrics: Iterable[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """Measured per-phase imbalance joined with its barrier slack.

    Reads :func:`record_span_metrics`' two gauges from a metrics stream
    (``MetricRecord.to_dict`` records or ``metrics.jsonl`` lines) and
    joins them on (run, phase); worst-balanced phase first.
    """
    metrics = list(metrics)
    slack = {
        (m.get("run"), m.get("phase")): float(m["value"])
        for m in metrics
        if m.get("metric") == "phase_barrier_slack_s"
    }
    rows = [
        {
            "run": m.get("run", "?"),
            "phase": m.get("phase_name", m.get("phase", "?")),
            "n_tasks": m.get("n_tasks", "?"),
            "ratio": float(m["value"]),
            "slack_s": slack.get((m.get("run"), m.get("phase")), 0.0),
        }
        for m in metrics
        if m.get("metric") == "phase_load_imbalance_measured"
    ]
    rows.sort(key=lambda r: r["ratio"], reverse=True)
    return rows

"""Trace and metrics exporters: Perfetto ``trace.json`` + text summary.

Two consumers, two formats:

* :func:`to_chrome_trace` / :func:`write_trace_json` — the Chrome
  trace-event JSON object format (``{"traceEvents": [...]}``), loadable in
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Every span
  becomes one complete event (``"ph": "X"``) with microsecond ``ts`` /
  ``dur``; tracks become integer ``tid`` rows named by metadata events.
* :func:`render_trace_summary` — a terminal table ranking the
  worst-balanced color phases (measured ``max/mean`` task-duration ratio,
  barrier slack) so the diagnosis works without a browser.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, imbalance_rows
from repro.obs.tracer import Span

__all__ = [
    "to_chrome_trace",
    "write_trace_json",
    "render_trace_summary",
]


def to_chrome_trace(
    groups: Sequence[Tuple[str, Sequence[Span]]],
    meta: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Convert labeled span groups into one Chrome trace-event object.

    ``groups`` is a sequence of ``(label, spans)`` — one entry per traced
    run (e.g. one per case × strategy × backend combo).  Each group maps
    to one trace ``pid`` named ``label``; the distinct ``(pid, track)``
    pairs inside a group map to consecutive integer ``tid`` rows (real
    worker processes keep separate rows via their track names).
    """
    events: List[Dict[str, object]] = []
    for gid, (label, spans) in enumerate(groups):
        track_ids: Dict[Tuple[int, str], int] = {}
        for span in spans:
            key = (span.pid, span.track)
            if key not in track_ids:
                track_ids[key] = len(track_ids)
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "dur": 0,
                "pid": gid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        for (pid, track), tid in sorted(track_ids.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "dur": 0,
                    "pid": gid,
                    "tid": tid,
                    "args": {"name": f"{track} (os pid {pid})"},
                }
            )
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start_s * 1e6,
                    "dur": span.duration_s * 1e6,
                    "pid": gid,
                    "tid": track_ids[(span.pid, span.track)],
                    "args": dict(span.args),
                }
            )
    payload: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if meta is not None:
        payload["otherData"] = dict(meta)
    return payload


def write_trace_json(
    path,
    groups: Sequence[Tuple[str, Sequence[Span]]],
    meta: Optional[Mapping[str, object]] = None,
) -> None:
    """Atomically write the Chrome trace-event JSON for ``groups``."""
    from repro.obs.atomicio import atomic_write

    with atomic_write(path) as handle:
        json.dump(to_chrome_trace(groups, meta=meta), handle)
        handle.write("\n")


def render_trace_summary(registry: MetricsRegistry, top: int = 10) -> str:
    """Rank the worst-balanced color phases from recorded metrics.

    The rows are :func:`repro.obs.metrics.imbalance_rows` — the measured
    ``max/mean`` ratio per phase joined with its barrier slack, worst
    first — which the report's imbalance panel draws too.
    """
    rows = imbalance_rows(r.to_dict() for r in registry.records())
    if not rows:
        return "(no measured phase metrics)"
    header = (
        f"{'run':<28} {'phase':<28} {'tasks':>5} "
        f"{'max/mean':>9} {'barrier slack':>14}"
    )
    lines = [
        "worst-balanced phases (measured task-duration max/mean):",
        header,
        "-" * len(header),
    ]
    for row in rows[:top]:
        lines.append(
            f"{str(row['run']):<28} {str(row['phase']):<28} "
            f"{str(row['n_tasks']):>5} {row['ratio']:>9.2f} "
            f"{row['slack_s'] * 1e3:>11.3f} ms"
        )
    if len(rows) > top:
        lines.append(f"... {len(rows) - top} more phases omitted")
    return "\n".join(lines)

"""Runtime observability: span tracing, metrics, structured run logs.

Built on the :class:`~repro.parallel.backends.base.PhaseObserver` hook
surface the analysis and profiling layers already use.  Four pieces:

* :mod:`repro.obs.tracer` — :class:`Tracer` / :class:`Span` /
  :class:`TracingObserver`: real-timestamped spans across serial, thread,
  and forked-process execution;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` counters/gauges and
  the derived load-imbalance / halo / barrier-slack metrics;
* :mod:`repro.obs.exporters` — Chrome trace-event (Perfetto) export and
  the worst-balanced-phase text summary;
* :mod:`repro.obs.runlog` — JSONL structured run logs + the environment
  meta block;
* :mod:`repro.obs.resources` — per-worker on-CPU and run-queue seconds
  over a window, read from ``/proc/<pid>/schedstat`` at its two ends
  (``repro scale``'s resource pressure);
* :mod:`repro.obs.recorder` / :mod:`repro.obs.health` — the runtime
  health plane: the always-on flight recorder every subsystem feeds
  (the one writer of each health event: breaches, rebuilds, engine
  lifecycle), and the :class:`~repro.obs.health.HealthMonitor` whose
  physics invariant checks and
  :meth:`~repro.obs.health.HealthMonitor.snapshot` API sit behind
  ``repro doctor`` / ``repro health``.

On top of the per-run artifacts, the comparison layer reads runs back:

* :mod:`repro.obs.rundir` — the run directory: the one table of artifact
  kinds, file names and schema tags, with its writer and its reader;
* :mod:`repro.obs.regress` — the one verdict rule over per-repeat
  samples that judges run B against run A (``repro compare A B``);
* :mod:`repro.obs.report` — the self-contained HTML dashboard + terminal
  summary (``repro report``);
* :mod:`repro.obs.atomicio` — tmp-file + ``os.replace`` write helpers
  every exporter funnels through.

``repro trace`` (:mod:`repro.harness.tracing`) drives the per-run
artifacts; "how does this run compare to the last one" is a comparison
of two run directories, not a store.
"""

from repro.obs.atomicio import atomic_write, atomic_write_text
from repro.obs.health import HealthMonitor, InvariantThresholds
from repro.obs.recorder import (
    HEALTH_SCHEMA_VERSION,
    FlightRecorder,
    HealthEvent,
    get_recorder,
    read_health_jsonl,
    set_recorder,
    validate_health_records,
)
from repro.obs.exporters import (
    render_trace_summary,
    to_chrome_trace,
    write_trace_json,
)
from repro.obs.metrics import (
    MetricRecord,
    MetricsRegistry,
    load_imbalance,
    record_racecheck_metrics,
    record_schedule_metrics,
    record_span_metrics,
)
from repro.obs.regress import (
    CellVerdict,
    RegressionReport,
    compare_payloads,
    verdict,
)
from repro.obs.report import (
    ReportData,
    load_report_source,
    render_html,
    render_text_summary,
    write_report,
)
from repro.obs.runlog import (
    RUNLOG_SCHEMA_VERSION,
    RunLog,
    collect_run_meta,
    git_sha,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    TracingObserver,
    align_worker_spans,
)

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "HEALTH_SCHEMA_VERSION",
    "FlightRecorder",
    "HealthEvent",
    "HealthMonitor",
    "InvariantThresholds",
    "get_recorder",
    "read_health_jsonl",
    "set_recorder",
    "validate_health_records",
    "CellVerdict",
    "RegressionReport",
    "compare_payloads",
    "verdict",
    "ReportData",
    "load_report_source",
    "render_html",
    "render_text_summary",
    "write_report",
    "RUNLOG_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "TracingObserver",
    "align_worker_spans",
    "MetricRecord",
    "MetricsRegistry",
    "load_imbalance",
    "record_racecheck_metrics",
    "record_schedule_metrics",
    "record_span_metrics",
    "RunLog",
    "collect_run_meta",
    "git_sha",
    "to_chrome_trace",
    "write_trace_json",
    "render_trace_summary",
]

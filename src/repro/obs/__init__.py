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
* :mod:`repro.obs.resources` — the /proc resource sampler: CPU/RSS/
  context-switch/shm counter tracks for the parent and every pool
  worker, merged into the trace timeline (``repro scale``,
  ``--sample-resources``);
* :mod:`repro.obs.recorder` / :mod:`repro.obs.health` — the runtime
  health plane: the always-on flight recorder every subsystem feeds,
  the physics invariant monitors, and the
  :meth:`~repro.obs.health.HealthMonitor.snapshot` API behind
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
from repro.obs.health import (
    HealthMonitor,
    InvariantThresholds,
    PhysicsMonitor,
)
from repro.obs.recorder import (
    HEALTH_SCHEMA_VERSION,
    FlightRecorder,
    HealthEvent,
    get_recorder,
    install_excepthook,
    read_health_jsonl,
    set_recorder,
    uninstall_excepthook,
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
from repro.obs.resources import (
    ProcSample,
    ResourceSampler,
    read_proc_sample,
    resources_supported,
)
from repro.obs.runlog import (
    RUNLOG_SCHEMA_VERSION,
    RunLog,
    collect_run_meta,
    git_sha,
)
from repro.obs.tracer import (
    CAT_COUNTER,
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
    "PhysicsMonitor",
    "get_recorder",
    "install_excepthook",
    "read_health_jsonl",
    "set_recorder",
    "uninstall_excepthook",
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
    "CAT_COUNTER",
    "ProcSample",
    "ResourceSampler",
    "read_proc_sample",
    "resources_supported",
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

"""The ``repro trace`` driver: traced case × strategy × backend runs.

For every sweep cell it runs a short real MD trajectory with a
:class:`~repro.obs.tracer.Tracer` attached to the force calculator and
the MD driver, derives the load-balance metrics from the decomposition
and the recorded spans, and leaves a run directory
(:mod:`repro.obs.rundir`, DESIGN.md "Run directory"):

* ``trace.json`` — Chrome trace-event / Perfetto timeline, one trace
  process per sweep cell, one track per thread/worker;
* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  stream (pairs processed, per-subdomain sizes, per-color static and
  measured load-imbalance ratios, halo fraction, barrier slack);
* ``runlog`` — the structured run log (environment meta, per-sample
  observables, neighbor rebuilds);
* ``health`` — the flight-recorder dump for the whole sweep
  (engine/kernel/scheduler lifecycle events plus any physics invariant
  breaches from the per-cell :class:`~repro.obs.health.HealthMonitor`).

:func:`traced_cell` and :func:`write_run_artifacts` are the cell body
and the writer ``repro scale`` shares.

The text summary ranks the worst-balanced color phases across all cells.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable, Iterator, List, Mapping, Optional, Sequence, Tuple
)

from repro import kernels
from repro.harness.bench import KNOWN_BACKENDS, KNOWN_STRATEGIES, BenchSkip
from repro.harness.cases import case_by_key
from repro.obs.exporters import render_trace_summary, write_trace_json
from repro.obs.metrics import (
    MetricsRegistry,
    record_schedule_metrics,
    record_span_metrics,
)
from repro.obs.health import HealthMonitor
from repro.obs.recorder import get_recorder
from repro.obs.resources import ResourceSampler
from repro.obs.rundir import artifact_path
from repro.obs.runlog import RunLog, collect_run_meta
from repro.obs.tracer import Span, Tracer

#: default sweep of ``repro trace`` (the CI smoke configuration)
DEFAULT_CASES = ("tiny",)
DEFAULT_STRATEGIES = ("sdc",)
DEFAULT_BACKENDS = ("threads",)


@dataclass
class TracedRun:
    """Spans and bookkeeping of one traced sweep cell."""

    label: str
    case: str
    strategy: str
    backend: str
    n_workers: int
    n_steps: int
    spans: List[Span] = field(default_factory=list)
    #: resolved kernel tier the cell's force kernels ran on
    kernel_tier: str = "numpy"

    @property
    def n_spans(self) -> int:
        return len(self.spans)


@dataclass
class TraceReport:
    """Everything one ``repro trace`` invocation produced."""

    runs: List[TracedRun]
    registry: MetricsRegistry
    skipped: List[str] = field(default_factory=list)
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    runlog_path: Optional[str] = None
    health_path: Optional[str] = None

    def span_groups(self) -> List[Tuple[str, Sequence[Span]]]:
        return [(run.label, run.spans) for run in self.runs]

    def render_summary(self, top: int = 10) -> str:
        lines = []
        for run in self.runs:
            total = sum(s.duration_s for s in run.spans if s.category == "md")
            lines.append(
                f"{run.label}: {run.n_spans} spans over {run.n_steps} MD "
                f"steps ({run.n_workers} workers, {total * 1e3:.1f} ms in "
                f"md spans)"
            )
        for skip in self.skipped:
            lines.append(f"skip: {skip}")
        lines.append("")
        lines.append(render_trace_summary(self.registry, top=top))
        return "\n".join(lines)


def _strategy_dims(strategy_key: str) -> int:
    """Decomposition dims encoded in a strategy key (``sdc-3d`` -> 3)."""
    if strategy_key.startswith("sdc-") or strategy_key.startswith(
        "localwrite-"
    ):
        return int(strategy_key.split("-")[-1][0])
    return 2


def _base_strategy(strategy_key: str) -> str:
    """Registry name for a sweep strategy key (``sdc-2d`` -> ``sdc``)."""
    if strategy_key.startswith("sdc"):
        return "sdc"
    return strategy_key


def _make_calculator(
    strategy_key: str,
    backend_key: str,
    n_workers: int,
) -> Tuple[object, Callable[[], None]]:
    """Build (force calculator, cleanup) for one traced sweep cell."""
    base = _base_strategy(strategy_key)
    if strategy_key != "serial" and strategy_key not in KNOWN_STRATEGIES:
        if base not in ("sdc",):
            raise BenchSkip(f"unknown strategy {strategy_key!r}")
    if backend_key not in KNOWN_BACKENDS:
        raise BenchSkip(f"unknown backend {backend_key!r}")
    if strategy_key == "serial":
        if backend_key != "serial":
            raise BenchSkip(
                "the serial strategy has no backend parallelism to trace"
            )
        from repro.core.strategies import STRATEGY_REGISTRY

        return STRATEGY_REGISTRY["serial"](), lambda: None

    if backend_key == "processes":
        if base != "sdc":
            raise BenchSkip("processes backend only runs SDC")
        from repro.parallel.backends.processes import ProcessSDCCalculator

        calc = ProcessSDCCalculator(
            dims=_strategy_dims(strategy_key), n_workers=n_workers
        )
        return calc, calc.close

    if backend_key == "sharded":
        if base != "sdc":
            raise BenchSkip("sharded backend only runs SDC")
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        calc = ShardedSDCCalculator(
            n_shards=n_workers, dims=_strategy_dims(strategy_key)
        )
        return calc, calc.close

    from repro.analysis.racecheck import make_backend, make_strategy

    backend = make_backend(backend_key, n_workers)
    strategy = make_strategy(
        base,
        n_threads=n_workers,
        backend=backend,
        dims=_strategy_dims(strategy_key),
    )
    return strategy, backend.close


@dataclass
class TracedCell:
    """What :func:`traced_cell` yields: one live simulation under a tracer."""

    label: str
    #: carries the cell's ``calculator`` and ``tracer``
    sim: "Simulation"  # noqa: F821 - imported lazily with the MD stack
    #: the process's kernel tier, which the cell's kernels run on
    kernel_tier: str
    sampler: Optional[ResourceSampler] = None

    def start_sampler(self, interval_s: float) -> None:
        """Co-run the /proc resource sampler from here to :meth:`finish`."""
        self.sampler = ResourceSampler(
            interval_s=interval_s, calculator=self.sim.calculator
        )
        self.sampler.start()

    def finish(self, registry: MetricsRegistry) -> List[Span]:
        """Stop the sampler and fold what the cell recorded into
        ``registry`` (span metrics, sampler digests); returns the cell's
        spans with the sampler's counter tracks appended."""
        if self.sampler is not None:
            self.sampler.stop()
        record_span_metrics(registry, self.sim.tracer, run=self.label)
        spans = self.sim.tracer.spans
        if self.sampler is not None:
            spans = spans + self.sampler.counter_spans()
            self.sampler.record_metrics(registry, run=self.label)
            self.sampler.record_health_summary(run=self.label)
        return spans


@contextmanager
def traced_cell(
    label: str,
    case_key: str,
    strategy_key: str,
    backend_key: str,
    n_workers: int,
    **sim_kwargs: object,
) -> Iterator[TracedCell]:
    """One sweep cell, ready to run: the one traced-run body under
    ``repro trace`` and ``repro scale``.

    Builds the calculator (:class:`BenchSkip` when the combination
    cannot run), attaches a fresh tracer to it and to a
    :class:`~repro.md.simulation.Simulation` of the case at 50 K
    (``sim_kwargs`` go to its constructor).  However the body exits, the
    sampler is stopped, the tracer detached and the calculator closed.
    """
    from repro.md.simulation import Simulation
    from repro.potentials import fe_potential

    calculator, cleanup = _make_calculator(strategy_key, backend_key, n_workers)
    tracer = Tracer()
    cell: Optional[TracedCell] = None
    try:
        attach = getattr(calculator, "attach_tracer", None)
        if attach is not None:
            attach(tracer)
        sim = Simulation(
            case_by_key(case_key).build(temperature=50.0),
            fe_potential(),
            calculator=calculator,
            tracer=tracer,
            **sim_kwargs,
        )
        cell = TracedCell(
            label=label, sim=sim, kernel_tier=kernels.active_tier().name
        )
        yield cell
    finally:
        if cell is not None and cell.sampler is not None:
            cell.sampler.stop()
        detach = getattr(calculator, "detach_tracer", None)
        if detach is not None:
            detach()
        cleanup()


def _trace_one(
    case_key: str,
    strategy_key: str,
    backend_key: str,
    n_workers: int,
    steps: int,
    registry: MetricsRegistry,
    run_log: RunLog,
    sample_resources: bool = False,
    sample_interval_s: float = 0.05,
) -> TracedRun:
    """Run one sweep cell under the tracer and record its metrics."""
    label = f"{case_key}/{strategy_key}/{backend_key}"
    health = HealthMonitor()
    with traced_cell(
        label,
        case_key,
        strategy_key,
        backend_key,
        n_workers,
        run_log=run_log,
        health=health,
    ) as cell:
        if sample_resources:
            cell.start_sampler(sample_interval_s)
        run_log.log(
            "event", event="trace-run", run=label, kernel_tier=cell.kernel_tier
        )
        cell.sim.run(steps, sample_every=1)
        run_log.log(
            "health",
            event="run-health-summary",
            run=label,
            **health.summary_fields(),
        )
        calculator = cell.sim.calculator
        halo_stats = getattr(calculator, "halo_stats", None)
        pairs = getattr(calculator, "pair_partition", None)
        schedule = getattr(calculator, "schedule", None)
        if halo_stats is not None:
            # what each shard worker actually sweeps, labeled per shard
            stats = halo_stats()
            for shard in range(len(stats["n_pairs"])):
                labels = {"shard": str(shard), "run": label}
                registry.count(
                    "pairs_processed", float(stats["n_pairs"][shard]), **labels
                )
                for gauge, key in (
                    ("atoms_owned", "n_owned"),
                    ("atoms_ghost", "n_ghosts"),
                    ("halo_fraction", "halo_fraction"),
                ):
                    registry.gauge(gauge, float(stats[key][shard]), **labels)
        elif pairs is not None and schedule is not None:
            record_schedule_metrics(registry, pairs, schedule, run=label)
        elif cell.sim.nlist is not None:
            registry.count(
                "pairs_processed", float(cell.sim.nlist.n_pairs), run=label
            )
        spans = cell.finish(registry)
    return TracedRun(
        label=label,
        case=case_key,
        strategy=strategy_key,
        backend=backend_key,
        n_workers=n_workers,
        n_steps=steps,
        spans=spans,
        kernel_tier=cell.kernel_tier,
    )


def write_run_artifacts(
    output_dir: str,
    span_groups: Sequence[Tuple[str, Sequence[Span]]],
    registry: MetricsRegistry,
    meta: Mapping[str, object],
) -> Tuple[str, str, str]:
    """Write what every traced driver leaves in its run directory.

    ``trace.json`` (the Perfetto timeline of ``span_groups``, stamped
    with ``meta``), the metrics stream of ``registry`` and the dump of
    the process's flight recorder; returns the three paths.
    """
    os.makedirs(output_dir, exist_ok=True)
    trace_path = os.path.join(output_dir, "trace.json")
    metrics_path = artifact_path(output_dir, "metrics")
    health_path = artifact_path(output_dir, "health")
    write_trace_json(trace_path, span_groups, meta=meta)
    registry.write_jsonl(metrics_path)
    get_recorder().dump(health_path)
    return trace_path, metrics_path, health_path


def run_trace(
    cases: Sequence[str] = DEFAULT_CASES,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    n_workers: int = 2,
    steps: int = 2,
    output_dir: Optional[str] = None,
    on_skip: Optional[Callable[[str], None]] = None,
    sample_resources: bool = False,
    sample_interval_s: float = 0.05,
) -> TraceReport:
    """Trace the sweep; optionally write the run directory.

    With ``output_dir`` set, writes ``trace.json`` and the ``metrics``,
    ``runlog`` and ``health`` artifacts (:mod:`repro.obs.rundir`) there,
    creating the directory, and records the paths on the returned
    report.  With ``sample_resources``, a
    :class:`~repro.obs.resources.ResourceSampler` co-runs with every cell
    and its CPU/RSS/context-switch/shm counter tracks merge into
    ``trace.json`` (summaries into the metrics and health streams).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    registry = MetricsRegistry()
    meta = collect_run_meta(n_workers)
    runlog_path: Optional[str] = None
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        runlog_path = artifact_path(output_dir, "runlog")
    run_log = RunLog(runlog_path, meta=meta)
    report = TraceReport(runs=[], registry=registry, runlog_path=runlog_path)
    try:
        for case_key in cases:
            for strategy_key in strategies:
                for backend_key in backends:
                    workers = 1 if backend_key == "serial" else n_workers
                    try:
                        report.runs.append(
                            _trace_one(
                                case_key,
                                strategy_key,
                                backend_key,
                                workers,
                                steps,
                                registry,
                                run_log,
                                sample_resources=sample_resources,
                                sample_interval_s=sample_interval_s,
                            )
                        )
                    except BenchSkip as skip:
                        message = (
                            f"{case_key}/{strategy_key}/{backend_key}: {skip}"
                        )
                        report.skipped.append(message)
                        if on_skip is not None:
                            on_skip(message)
    finally:
        run_log.close()
    if output_dir is not None:
        report.trace_path, report.metrics_path, report.health_path = (
            write_run_artifacts(
                output_dir, report.span_groups(), registry, meta
            )
        )
    return report

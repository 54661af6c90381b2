"""The ``repro scale`` driver: worker sweeps -> efficiency attribution.

The paper's headline evidence (Fig. 9) is speedup-vs-cores; this harness
measures that curve for one (case, strategy, backend, kernel-tier) cell
and then goes one step further than the figure: it says *where the lost
efficiency went*.  For every worker count ``p`` in the sweep it runs the
same short MD workload, times the force/density window (the only part
the paper times), and derives

* **speedup**          ``S(p) = T(1) / T(p)``;
* **efficiency**       ``E(p) = S(p) / p``;
* **Karp–Flatt**       ``e(p) = (1/S - 1/p) / (1 - 1/p)`` — the
  experimentally-determined serial fraction (the standard scalability
  diagnostic: an ``e`` that *grows* with ``p`` indicates overhead, not an
  inherently serial workload);

and attributes the lost core-seconds ``p*T(p) - T(1)`` into disjoint
mechanisms using the task/barrier spans recorded by the tracer and the
workers' scheduler time over the window's force evaluations
(:mod:`repro.obs.resources`):

* ``imbalance`` — cores idle because tasks within a phase were uneven
  (per phase: ``(max_task - mean_task) * n_tasks``);
* ``barrier``   — residual synchronization slack beyond imbalance
  (summed barrier-wait spans minus the imbalance share);
* ``serial``    — core-seconds with nothing scheduled at all: the
  embedding phase, position sync, dispatch (budget minus task work minus
  barrier waits);
* ``resource_pressure`` — worker time runnable but waiting for a CPU
  (summed ``/proc/<pid>/schedstat`` run-queue wait over the evaluations,
  at most the window's task work);
* ``excess_work`` — task core-seconds beyond the baseline ``T(1)``
  (redundant computation, per-worker overheads).

Each fraction is expressed relative to the core-second budget
``p * T(p)``, so ``efficiency + losses`` accounts for the whole budget.
Every sweep point becomes one record; ``repro scale`` writes them, and
nothing else, into its run directory (:mod:`repro.obs.rundir`) —
``trace.json`` plus the ``metrics``, ``scaling`` and ``health``
artifacts — which ``repro report`` renders as an efficiency-curve +
loss-attribution panel.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import kernels
from repro.harness.bench import BenchSkip
from repro.harness.tracing import traced_cell, write_run_artifacts
from repro.obs.exporters import render_trace_summary
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import run_recorder
from repro.obs.resources import cpu_clocks, read_window, window_digest
from repro.obs.rundir import (
    SCALING_SCHEMA,
    artifact_path,
    payload,
    write_payload,
)
from repro.obs.runlog import collect_run_meta
from repro.obs.tracer import CAT_BARRIER, CAT_TASK, Span

__all__ = [
    "SCALING_SCHEMA",
    "ScalePoint",
    "ScaleReport",
    "karp_flatt",
    "run_scale",
]

#: loss mechanisms, in reporting order
LOSS_COMPONENTS = (
    "serial",
    "imbalance",
    "barrier",
    "resource_pressure",
    "excess_work",
)

DEFAULT_WORKERS = (1, 2)


def karp_flatt(speedup: float, p: int) -> Optional[float]:
    """Experimentally-determined serial fraction ``e(p)``; None for p<=1."""
    if p <= 1 or speedup <= 0:
        return None
    return (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p)


@dataclass
class ScalePoint:
    """One measured sweep point with its derived efficiency quantities."""

    case: str
    strategy: str
    backend: str
    kernel_tier: str
    n_workers: int
    n_steps: int
    #: measured force/density wall-clock of the run window (on a thread
    #: team, whose steps are rings: both kicks too), seconds
    total_s: float
    #: the sweep's baseline time T(1) this point is normalized against
    t1_s: float
    speedup: float
    efficiency: float
    karp_flatt: Optional[float]
    #: loss fractions of the core-second budget ``p * total_s``
    loss: Dict[str, float] = field(default_factory=dict)
    dominant_loss: Optional[str] = None
    #: per-worker ``worker_cpu_s`` / ``worker_run_delay_s`` summed over
    #: the window's force evaluations, worker 0 first
    #: (:func:`~repro.obs.resources.window_digest`); empty without worker
    #: processes or a readable ``/proc``
    resources: Dict[str, List[float]] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)

    @property
    def label(self) -> str:
        return (
            f"{self.case}/{self.strategy}/{self.backend}/w{self.n_workers}"
        )

    def to_record(self) -> Dict[str, object]:
        """Flat scaling.json record (spans stay in trace.json)."""
        record: Dict[str, object] = {
            "case": self.case,
            "strategy": self.strategy,
            "backend": self.backend,
            "kernel_tier": self.kernel_tier,
            "n_workers": self.n_workers,
            "n_steps": self.n_steps,
            "phase": "total",
            "median_s": self.total_s,
            "t1_s": self.t1_s,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "karp_flatt": self.karp_flatt,
            "dominant_loss": self.dominant_loss,
            "resources": dict(self.resources),
        }
        for name in LOSS_COMPONENTS:
            record[f"loss_{name}"] = self.loss.get(name, 0.0)
        return record


@dataclass
class ScaleReport:
    """Everything one ``repro scale`` invocation produced."""

    points: List[ScalePoint]
    registry: MetricsRegistry
    case: str
    strategy: str
    backend: str
    kernel_tier: str
    skipped: List[str] = field(default_factory=list)
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    scaling_path: Optional[str] = None
    health_path: Optional[str] = None

    def records(self) -> List[Dict[str, object]]:
        return [p.to_record() for p in self.points]

    def span_groups(self) -> List[Tuple[str, Sequence[Span]]]:
        return [(p.label, p.spans) for p in self.points]

    def render_summary(self, top: int = 10) -> str:
        """Terminal table naming the dominant loss mechanism per point."""
        lines: List[str] = []
        header = (
            f"{'workers':>7} {'T(p)':>10} {'speedup':>8} "
            f"{'efficiency':>10} {'Karp-Flatt':>10}  dominant loss"
        )
        lines.append(
            f"scaling sweep {self.case}/{self.strategy}/{self.backend} "
            f"({self.kernel_tier}):"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for p in self.points:
            kf = f"{p.karp_flatt:.3f}" if p.karp_flatt is not None else "-"
            if p.dominant_loss is not None:
                share = p.loss.get(p.dominant_loss, 0.0)
                dominant = f"{p.dominant_loss} ({share:.0%} of core-seconds)"
            else:
                dominant = "-"
            lines.append(
                f"{p.n_workers:>7} {p.total_s:>9.4f}s {p.speedup:>7.2f}x "
                f"{p.efficiency:>9.1%} {kf:>10}  {dominant}"
            )
        for skip in self.skipped:
            lines.append(f"skip: {skip}")
        lines.append("")
        lines.append(render_trace_summary(self.registry, top=top))
        return "\n".join(lines)


def _attribute_losses(
    spans: Sequence[Span],
    window_start_s: float,
    total_s: float,
    t1_s: float,
    n_workers: int,
    run_delay_s: float,
) -> Dict[str, float]:
    """Split the core-second budget ``p * T`` into loss fractions.

    Only spans inside the measured window count (the warmup evaluation
    pays pool fork / arena setup / JIT and is excluded from ``total_s``).
    ``run_delay_s`` is the workers' summed run-queue wait in the window.
    """
    budget = n_workers * total_s
    if budget <= 0:
        return {name: 0.0 for name in LOSS_COMPONENTS}
    tasks: Dict[int, List[float]] = {}
    work = 0.0
    for span in spans:
        if span.start_s < window_start_s:
            continue
        if span.category == CAT_TASK:
            work += span.duration_s
            phase = span.args.get("phase")
            if isinstance(phase, int):
                tasks.setdefault(phase, []).append(span.duration_s)
    barrier_total = sum(
        s.duration_s
        for s in spans
        if s.category == CAT_BARRIER and s.start_s >= window_start_s
    )
    imbalance = 0.0
    for durations in tasks.values():
        if len(durations) > 1:
            mean = sum(durations) / len(durations)
            imbalance += (max(durations) - mean) * len(durations)
    imbalance = min(imbalance, barrier_total) if barrier_total else imbalance
    barrier_rest = max(0.0, barrier_total - imbalance)
    serial = max(0.0, budget - work - barrier_total)
    pressure = min(run_delay_s, work)
    excess = max(0.0, work - t1_s)
    return {
        "serial": serial / budget,
        "imbalance": imbalance / budget,
        "barrier": barrier_rest / budget,
        "resource_pressure": pressure / budget,
        "excess_work": excess / budget,
    }


@contextmanager
def _evaluation_windows(calculator):
    """Per worker, ``(on-CPU s, run-queue wait s)`` summed over the force
    evaluations inside the block — the time ``p T(p)`` budgets: between
    evaluations a team's helpers yield, and worker 0 integrates — and the
    seconds the reads took, which ``T(p)`` leaves out.  A calculator whose
    caller walks a team rings whole steps (``verlet_ring``) and is read
    per ring, so ``T(p)`` then holds both kicks of each step too.  Each
    evaluation is read inside it, where this thread walks as worker 0 of a
    team too: the ``/proc`` lines outermost, the CPU clocks within, so no
    on-CPU window holds a line read.  In-process calculators that walk no team have no
    ``worker_pids()``, and nothing is read."""
    spent: Dict[int, Tuple[float, float]] = {}
    read_s = [0.0]
    pids = getattr(calculator, "worker_pids", list)()
    caller = getattr(calculator, "caller_walks", bool)()
    if not pids and not caller:
        yield spent, read_s
        return
    ring = caller and hasattr(calculator, "verlet_ring")
    name = "verlet_ring" if ring else "compute"
    compute = getattr(calculator, name)

    def windowed(*args, **kwargs):
        start = time.perf_counter()
        before = read_window(pids, caller)
        opened = time.perf_counter()
        clock = cpu_clocks(pids, caller)
        try:
            return compute(*args, **kwargs)
        finally:
            now = cpu_clocks(pids, caller)
            closed = time.perf_counter()
            after = read_window(pids, caller)
            read_s[0] += opened - start + time.perf_counter() - closed
            for pid in (p for p in before if p in after and p in clock and p in now):
                cpu, delay = spent.get(pid, (0.0, 0.0))
                spent[pid] = (
                    cpu + now[pid] - clock[pid],
                    delay + after[pid][1] - before[pid][1],
                )

    setattr(calculator, name, windowed)
    try:
        yield spent, read_s
    finally:
        delattr(calculator, name)


def _measure_point(
    case_key: str,
    strategy_key: str,
    backend_key: str,
    n_workers: int,
    steps: int,
    registry: MetricsRegistry,
) -> Tuple[float, float, List[Span], Dict[str, List[float]]]:
    """Run one sweep point; returns its timing, spans, and the workers'
    scheduler-time digest over the window."""
    with traced_cell(
        f"{case_key}/{strategy_key}/{backend_key}/w{n_workers}",
        case_key,
        strategy_key,
        backend_key,
        n_workers,
    ) as cell:
        # warmup evaluation: worker fork, arena mapping, decomposition,
        # neighbor build, JIT — excluded from the measured window
        cell.sim.compute_forces()
        with _evaluation_windows(cell.sim.calculator) as (spent, read_s):
            window_start = time.perf_counter()
            run = cell.sim.run(steps, sample_every=max(1, steps))
        total_s = run.force_seconds - read_s[0]
        resources = window_digest(dict.fromkeys(spent, (0.0, 0.0)), spent)
        spans = cell.finish(registry)
    return total_s, window_start, spans, resources


@run_recorder()
def run_scale(
    case: str = "small",
    strategy: str = "sdc",
    backend: str = "processes",
    workers: Sequence[int] = DEFAULT_WORKERS,
    steps: int = 3,
    output_dir: Optional[str] = None,
    on_skip: Optional[Callable[[str], None]] = None,
) -> ScaleReport:
    """Sweep worker counts for one cell and attribute the efficiency.

    ``workers`` should include 1 — ``T(1)`` is the baseline every other
    point is normalized against.  Without it the smallest swept count
    ``p_min`` stands in, with ``T(1)`` estimated as ``p_min * T(p_min)``
    (optimistic: assumes the reference point scaled perfectly).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    worker_list = sorted(set(int(w) for w in workers))
    if not worker_list or worker_list[0] < 1:
        raise ValueError("workers must be a non-empty list of counts >= 1")
    registry = MetricsRegistry()
    report = ScaleReport(
        points=[],
        registry=registry,
        case=case,
        strategy=strategy,
        backend=backend,
        kernel_tier=kernels.active_tier().name,
    )
    t1_s: Optional[float] = None
    for p in worker_list:
        try:
            total_s, window_start, spans, resources = _measure_point(
                case, strategy, backend, p, steps, registry
            )
        except BenchSkip as skip:
            message = f"{case}/{strategy}/{backend}/w{p}: {skip}"
            report.skipped.append(message)
            if on_skip is not None:
                on_skip(message)
            continue
        if t1_s is None:
            # counts ascend, so the first point that ran is the reference
            t1_s = total_s if p == 1 else p * total_s
        speedup = t1_s / total_s if total_s > 0 else 0.0
        loss = _attribute_losses(
            spans,
            window_start,
            total_s,
            t1_s,
            p,
            sum(resources.get("worker_run_delay_s", ())),
        )
        dominant = None
        if p > 1:
            worst = max(loss.items(), key=lambda kv: kv[1])
            if worst[1] > 0.0:
                dominant = worst[0]
        report.points.append(
            ScalePoint(
                case=case,
                strategy=strategy,
                backend=backend,
                kernel_tier=report.kernel_tier,
                n_workers=p,
                n_steps=steps,
                total_s=total_s,
                t1_s=t1_s,
                speedup=speedup,
                efficiency=speedup / p,
                karp_flatt=karp_flatt(speedup, p),
                loss=loss,
                dominant_loss=dominant,
                resources=resources,
                spans=spans,
            )
        )
    if output_dir is not None:
        meta = collect_run_meta()
        report.trace_path, report.metrics_path, report.health_path = (
            write_run_artifacts(
                output_dir, report.span_groups(), registry, meta
            )
        )
        report.scaling_path = artifact_path(output_dir, "scaling")
        write_payload(
            report.scaling_path, payload("scaling", report.records(), meta)
        )
    return report

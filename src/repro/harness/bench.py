"""Real wall-clock benchmark sweep: strategy × backend × workload.

The simulated machine (``repro.parallel.sim_exec``) reproduces the
*paper's* numbers; this module measures what the Python realization
actually costs on the current host.  Every cell of the sweep runs the
warmup/repeat protocol of :func:`repro.utils.profiler.measure` over a
:class:`~repro.obs.tracer.Tracer` and reports per-phase medians (density
/ embedding / force / neighbor-rebuild / color-barrier) plus a ``total``
row with pair throughput.

Outputs (``repro bench``):

* ``BENCH_forces.json`` — per-phase force-kernel timings, one record per
  (case, strategy, backend, n_workers, phase);
* ``BENCH_reordering.json`` — the measured Section II.D sorted-vs-shuffled
  comparison (:func:`repro.harness.reordering.measure_reordering`);
* a human-readable table on stdout.
"""

from __future__ import annotations

import platform
from contextlib import closing
from dataclasses import asdict, dataclass
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple
)

from repro import kernels
from repro.harness.cases import Case, case_by_key
from repro.harness.reordering import MeasuredReorderingResult, measure_reordering
from repro.obs.rundir import payload, write_payload
from repro.obs.tracer import Tracer
from repro.utils.profiler import measure, phase_names, phase_samples
from repro.utils.timers import median_iqr

#: sweep axes of the quick (CI smoke) configuration
QUICK_CASES = ("tiny",)
QUICK_STRATEGIES = ("serial", "sdc-2d")
QUICK_BACKENDS = ("serial", "threads")

#: default full sweep
DEFAULT_CASES = ("tiny", "mini")
DEFAULT_STRATEGIES = ("serial", "sdc-2d", "critical-section", "localwrite")
DEFAULT_BACKENDS = ("serial", "threads")

#: strategy keys the sweep understands (sdc split by dimensionality)
KNOWN_STRATEGIES = (
    "serial",
    "sdc-1d",
    "sdc-2d",
    "sdc-3d",
    "critical-section",
    "array-privatization",
    "redundant-computation",
    "atomic",
    "localwrite",
)
KNOWN_BACKENDS = ("serial", "threads", "processes", "sharded")


@dataclass(frozen=True)
class BenchRecord:
    """One measured phase of one sweep cell."""

    case: str
    strategy: str
    backend: str
    n_workers: int
    phase: str
    median_s: float
    iqr_s: float
    n_samples: int
    #: the per-repeat seconds the median and IQR summarize (what
    #: ``repro compare`` judges)
    samples_s: Tuple[float, ...]
    #: half-list pair throughput; only the ``total`` phase carries it
    pairs_per_s: Optional[float] = None
    #: resolved kernel tier the cell ran on
    kernel_tier: str = "numpy"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class BenchSkip(RuntimeError):
    """A sweep cell that cannot run (unsupported combination)."""


def _make_cell(
    strategy_key: str,
    backend_key: str,
    n_workers: int,
    potential,
    atoms,
    nlist,
    tracer: Tracer,
) -> Tuple[Callable[[], object], Callable[[], None], str]:
    """Build (compute closure, cleanup, the process's tier name) for one
    cell, whose calculator records into ``tracer``."""
    from repro.harness.tracing import _make_calculator

    serial_on_threads = strategy_key == "serial" and backend_key == "threads"
    calc, close = _make_calculator(
        strategy_key, "serial" if serial_on_threads else backend_key, n_workers
    )
    calc.attach_tracer(tracer)

    def evaluate() -> object:
        return calc.compute(potential, atoms, nlist)

    compute: Callable[[], object] = evaluate
    if serial_on_threads:
        from repro.analysis.racecheck import make_backend

        # the serial evaluation submitted as one task, so what the cell
        # adds to serial x serial is the backend's dispatch/join cost
        backend = make_backend(backend_key, n_workers)
        close = backend.close
        compute = lambda: backend.run_phase([evaluate])  # noqa: E731

    def cleanup() -> None:
        calc.detach_tracer()
        close()

    return compute, cleanup, kernels.active_tier().name


@dataclass
class _SweepCell:
    """One runnable cell of the sweep, alive while the consumer holds it."""

    case: str
    strategy: str
    backend: str
    n_workers: int
    n_pairs: int
    tracer: Tracer
    compute: Callable[[], object]
    kernel_tier: str

    def record(
        self,
        phase: str,
        samples_s: Sequence[float],
        throughput: bool = False,
    ) -> BenchRecord:
        """This cell's record for ``phase`` from its per-repeat seconds
        (``throughput`` adds pairs/s)."""
        median_s, iqr_s = median_iqr(samples_s)
        return BenchRecord(
            case=self.case,
            strategy=self.strategy,
            backend=self.backend,
            n_workers=self.n_workers,
            phase=phase,
            median_s=median_s,
            iqr_s=iqr_s,
            n_samples=len(samples_s),
            samples_s=tuple(samples_s),
            pairs_per_s=(
                self.n_pairs / median_s if throughput and median_s > 0 else None
            ),
            kernel_tier=self.kernel_tier,
        )


def _sweep_cells(
    cases: Sequence[str],
    strategies: Sequence[str],
    backends: Sequence[str],
    n_workers: int,
    on_skip: Optional[Callable[[str], None]],
) -> Iterator[_SweepCell]:
    """Every runnable case x strategy x backend cell, one at a time.

    A cell that cannot run (:class:`BenchSkip`) is reported to
    ``on_skip`` and passed over; a yielded cell's calculator is torn
    down when the consumer asks for the next one or closes the
    generator.
    """
    from repro.md.neighbor.verlet import build_neighbor_list
    from repro.potentials import fe_potential

    potential = fe_potential()
    for case_key in cases:
        atoms = case_by_key(case_key).build()
        nlist = build_neighbor_list(
            atoms.positions, atoms.box, potential.cutoff
        )
        for strategy_key in strategies:
            for backend_key in backends:
                workers = 1 if backend_key == "serial" else n_workers
                tracer = Tracer()
                try:
                    compute, cleanup, tier_name = _make_cell(
                        strategy_key,
                        backend_key,
                        workers,
                        potential,
                        atoms,
                        nlist,
                        tracer,
                    )
                except BenchSkip as skip:
                    if on_skip is not None:
                        on_skip(
                            f"{case_key}/{strategy_key}/{backend_key}: {skip}"
                        )
                    continue
                try:
                    yield _SweepCell(
                        case_key,
                        strategy_key,
                        backend_key,
                        workers,
                        nlist.n_pairs,
                        tracer,
                        compute,
                        tier_name,
                    )
                finally:
                    cleanup()


def bench_forces(
    cases: Sequence[str] = DEFAULT_CASES,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    n_workers: int = 2,
    warmup: int = 1,
    repeats: int = 5,
    on_skip: Optional[Callable[[str], None]] = None,
) -> List[BenchRecord]:
    """Run the sweep; returns one record per (cell, phase)."""
    records: List[BenchRecord] = []
    with closing(
        _sweep_cells(cases, strategies, backends, n_workers, on_skip)
    ) as cells:
        for cell in cells:
            measure(cell.tracer, cell.compute, warmup=warmup, repeats=repeats)
            samples = phase_samples(cell.tracer.spans)
            for phase in phase_names(samples):
                records.append(
                    cell.record(
                        phase, samples[phase], throughput=phase == "total"
                    )
                )
    return records


#: phase keys of the repeated-compute (``--steps``) mode
PHASE_FIRST_STEP = "first_step"
PHASE_AMORTIZED = "amortized"


def bench_steps(
    cases: Sequence[str] = DEFAULT_CASES,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    n_workers: int = 2,
    steps: int = 10,
    on_skip: Optional[Callable[[str], None]] = None,
) -> List[BenchRecord]:
    """Repeated-compute mode: first-step vs amortized per-step cost.

    Each cell builds ONE calculator and calls ``compute`` ``steps`` times
    against the same neighbor list — the persistent-engine steady state.
    The first call pays pool fork + arena allocation + decomposition
    (everything a per-call implementation pays on *every* step); calls
    2..N pay only sync + kernels + barriers.  Two records per cell:

    * ``first_step`` — wall time of call 1 (one sample);
    * ``amortized`` — median/IQR over calls 2..N, with pair throughput.
    """
    import time

    if steps < 2:
        raise ValueError("steps mode needs at least 2 steps")
    records: List[BenchRecord] = []
    with closing(
        _sweep_cells(cases, strategies, backends, n_workers, on_skip)
    ) as cells:
        for cell in cells:
            times: List[float] = []
            for _ in range(steps):
                start = time.perf_counter()
                cell.compute()
                times.append(time.perf_counter() - start)
            records.append(cell.record(PHASE_FIRST_STEP, times[:1]))
            records.append(
                cell.record(PHASE_AMORTIZED, times[1:], throughput=True)
            )
    return records


def render_amortization_table(records: Sequence[BenchRecord]) -> str:
    """Per-cell first-step vs amortized summary with the setup speedup
    (the rows are :func:`repro.obs.report.amortization_rows`)."""
    from repro.obs.report import amortization_rows

    rows = amortization_rows([r.to_dict() for r in records])
    if not rows:
        return "(no repeated-compute records)"
    header = (
        f"{'case':<6} {'strategy':<22} {'backend':<9} {'w':>2} "
        f"{'first step':>12} {'amortized':>12} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['case']:<6} {row['strategy']:<22} {row['backend']:<9} "
            f"{row['n_workers']:>2} {row['first_step_s']:>10.6f} s "
            f"{row['amortized_s']:>10.6f} s {row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def reordering_records(
    result: MeasuredReorderingResult,
) -> List[Dict[str, object]]:
    """Flatten the measured reordering result into JSON records."""
    rows = [
        ("serial", "sorted", result.serial_sorted_s, result.serial_sorted_iqr_s),
        (
            "serial",
            "shuffled",
            result.serial_shuffled_s,
            result.serial_shuffled_iqr_s,
        ),
        (
            "sdc-2d",
            "sorted",
            result.parallel_sorted_s,
            result.parallel_sorted_iqr_s,
        ),
        (
            "sdc-2d",
            "shuffled",
            result.parallel_shuffled_s,
            result.parallel_shuffled_iqr_s,
        ),
    ]
    records: List[Dict[str, object]] = [
        {
            "case": result.case.key,
            "strategy": strategy,
            "layout": layout,
            "n_workers": 1 if strategy == "serial" else result.n_threads,
            "phase": "total",
            "median_s": median,
            "iqr_s": iqr,
            "n_samples": result.repeats,
        }
        for strategy, layout, median, iqr in rows
    ]
    records.append(
        {
            "case": result.case.key,
            "serial_gain_percent": result.serial_gain_percent,
            "parallel_gain_percent": result.parallel_gain_percent,
            "max_force_dev": result.max_force_dev,
        }
    )
    return records


def write_bench_json(
    path,
    records: Sequence[Dict[str, object]],
    n_threads: Optional[int] = None,
) -> None:
    """Atomically write :func:`bench_payload` of ``records`` to ``path``
    (tmp + ``os.replace``: a committed baseline is never clobbered by a
    half-written file)."""
    write_payload(path, bench_payload(records, n_threads=n_threads))


def bench_payload(
    records: Sequence[Dict[str, object]],
    n_threads: Optional[int] = None,
    meta: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """The ``repro-bench-v2`` payload for ``records``.

    The ``meta`` block (hostname, CPU count, thread count, Python/NumPy
    versions, git SHA, the process's kernel tier) makes bench artifacts
    from different machines and commits comparable; a driver that writes
    several payloads collects it once and hands it in, otherwise it is
    collected here.  The legacy ``host`` block is kept for v1 readers.
    """
    from repro.obs.runlog import collect_run_meta

    if meta is None:
        meta = collect_run_meta(n_threads)
    return {
        **payload("bench", records, meta),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def render_bench_table(records: Sequence[BenchRecord]) -> str:
    """Human-readable sweep table, one row per (cell, phase)."""
    if not records:
        return "(no benchmark records)"
    header = (
        f"{'case':<6} {'strategy':<22} {'backend':<9} {'tier':<6} {'w':>2} "
        f"{'phase':<16} {'median':>12} {'iqr':>12} {'pairs/s':>12}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        pairs = f"{r.pairs_per_s:,.0f}" if r.pairs_per_s else ""
        lines.append(
            f"{r.case:<6} {r.strategy:<22} {r.backend:<9} "
            f"{r.kernel_tier:<6} {r.n_workers:>2} "
            f"{r.phase:<16} {r.median_s:>10.6f} s {r.iqr_s:>10.6f} s "
            f"{pairs:>12}"
        )
    return "\n".join(lines)

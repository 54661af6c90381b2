#!/usr/bin/env python3
"""Compare every irregular-reduction strategy on one real system.

Three views of the same computation:

1. **Correctness** — all six strategies produce identical forces on a
   materialized Fe crystal (max deviation printed).
2. **Simulated scaling** — each strategy's plan run on the simulated
   16-core Xeon E7320 across core counts (a one-case Fig. 9).
3. **Anatomy** — the model's run of SDC vs SAP at 16 cores put on a
   ``Tracer`` (``trace_result``), the spans a measured run leaves: its
   costliest phases, the per-phase table ``repro bench`` prints, and each
   thread's busy time and barrier waits — where barriers, merges and
   criticals eat the speedup.

Run:  python examples/strategy_comparison.py
"""

from collections import defaultdict

import numpy as np

from repro.core.strategies import (
    ArrayPrivatizationStrategy,
    AtomicStrategy,
    CriticalSectionStrategy,
    LocalWriteStrategy,
    RedundantComputationStrategy,
    SDCStrategy,
    SerialStrategy,
)
from repro.harness.cases import Case, case_by_key
from repro.harness.report import format_series
from repro.harness.runner import PAPER_THREADS, ExperimentRunner
from repro.md.neighbor.verlet import build_neighbor_list
from repro.obs.tracer import CAT_BARRIER, CAT_PHASE, CAT_REGION, CAT_TASK, Tracer
from repro.parallel.sim_exec import simulate, trace_result
from repro.potentials import compute_eam_forces_serial, fe_potential
from repro.utils.profiler import phase_stats, render_phase_table


def correctness_section() -> None:
    print("=" * 72)
    print("1. correctness: identical physics from every strategy")
    print("=" * 72)
    case = Case(key="cmp", label="comparison", n_cells=8)
    atoms = case.build(perturbation=0.05, seed=11)
    potential = fe_potential()
    nlist = build_neighbor_list(
        atoms.positions, atoms.box, potential.cutoff, skin=0.3
    )
    reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)
    strategies = [
        SerialStrategy(),
        SDCStrategy(dims=2, n_threads=2, validate_conflicts=True),
        CriticalSectionStrategy(n_threads=3),
        ArrayPrivatizationStrategy(n_threads=3),
        RedundantComputationStrategy(n_threads=3),
        AtomicStrategy(n_threads=3),
        LocalWriteStrategy(dims=3, n_threads=3),
    ]
    print(f"{atoms.n_atoms} atoms, {nlist.n_pairs} half-list pairs\n")
    for strategy in strategies:
        result = strategy.compute(potential, atoms.copy(), nlist)
        dev = float(np.max(np.abs(result.forces - reference.forces)))
        print(f"  {strategy.name:<24} max |dF| = {dev:.2e} eV/Å")


def scaling_section(runner: ExperimentRunner) -> None:
    print()
    print("=" * 72)
    print("2. simulated scaling on the paper machine — medium case (265k atoms)")
    print("=" * 72)
    case = case_by_key("medium")
    series = {}
    for name in (
        "sdc-2d",
        "critical-section",
        "array-privatization",
        "redundant-computation",
        "atomic",
    ):
        cells = runner.speedup_series(case, name)
        series[name] = [None if c.blank else c.speedup for c in cells]
    print(
        format_series(
            "speedup vs cores", "cores", list(PAPER_THREADS), series
        )
    )


def anatomy_section(runner: ExperimentRunner) -> None:
    print()
    print("=" * 72)
    print("3. anatomy: where the time goes at 16 cores (large case)")
    print("=" * 72)
    case = case_by_key("large3")
    stats_sdc = runner.sdc_stats(case, dims=2, n_threads=16)
    stats_flat = runner.flat_stats(case)
    machine = runner.machine
    for label, plan in (
        ("SDC 2-D", SDCStrategy(dims=2, n_threads=16).plan(stats_sdc, machine, 16)),
        (
            "SAP",
            ArrayPrivatizationStrategy(n_threads=16).plan(stats_flat, machine, 16),
        ),
    ):
        print(f"\n--- {label} ---")
        tracer = Tracer()
        trace_result(tracer, simulate(plan, machine, 16))
        print_anatomy(tracer.spans)


def print_anatomy(spans, top: int = 6, threads: int = 4) -> None:
    """The costliest phases, the per-phase table and per-thread busy and
    barrier-wait time of one traced run."""
    phases = sorted(
        (s for s in spans if s.category == CAT_REGION),
        key=lambda s: s.duration_s,
        reverse=True,
    )
    for span in phases[:top]:
        print(f"  {span.name:<24} {span.duration_s * 1e3:>10.3f} ms")
    print(render_phase_table(phase_stats(spans)))
    busy, wait = defaultdict(float), defaultdict(float)
    for span in spans:
        if span.category == CAT_TASK:
            busy[span.track] += span.duration_s
        elif span.category == CAT_BARRIER:
            wait[span.track] += span.duration_s
    wall = sum(s.duration_s for s in spans if s.category == CAT_PHASE)
    fork = min(s.start_s for s in spans if s.category == CAT_TASK)
    print(
        f"{wall * 1e3:.3f} ms on {len(busy)} threads (the first phase holds "
        f"the {fork * 1e3:.3f} ms fork-join prologue), utilization "
        f"{sum(busy.values()) / (wall * len(busy)):.1%}"
    )
    for track in list(busy)[:threads]:
        print(
            f"  {track:<16} busy {busy[track] * 1e3:>9.3f} ms, "
            f"barrier wait {wait[track] * 1e3:>9.3f} ms"
        )


def main() -> None:
    runner = ExperimentRunner()
    correctness_section()
    scaling_section(runner)
    anatomy_section(runner)


if __name__ == "__main__":
    main()

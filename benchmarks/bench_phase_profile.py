"""Per-phase wall-clock profiles of the real kernels.

Runs the :func:`repro.utils.profiler.measure` protocol (warmup +
repeats + median/IQR over tracer spans) on serial and SDC executions and
persists the rendered per-phase tables — the measured counterpart of the
simulated phase breakdowns, and the data behind ``repro bench``.
"""

import numpy as np

from conftest import write_result
from repro.core.strategies import SDCStrategy, SerialStrategy
from repro.harness.bench import bench_forces, render_bench_table
from repro.harness.cases import Case
from repro.harness.reordering import measure_reordering
from repro.md.neighbor.verlet import build_neighbor_list
from repro.obs.tracer import Tracer
from repro.parallel.backends import ThreadBackend
from repro.potentials import fe_potential
from repro.utils.profiler import measure, render_phase_table


def _system(n_cells: int = 10):
    atoms = Case(key="p", label="p", n_cells=n_cells).build(seed=7)
    pot = fe_potential()
    nlist = build_neighbor_list(atoms.positions, atoms.box, pot.cutoff, 0.3)
    return atoms, pot, nlist


def test_serial_phase_profile(results_dir):
    atoms, pot, nlist = _system()
    tracer = Tracer()
    strategy = SerialStrategy()
    strategy.attach_tracer(tracer)
    stats = measure(
        tracer, lambda: strategy.compute(pot, atoms, nlist), warmup=1, repeats=5
    )
    assert {"density", "embedding", "force"} <= set(stats)
    # the three phases account for (almost) the whole evaluation
    phase_sum = sum(stats[p].median_s for p in ("density", "embedding", "force"))
    assert phase_sum <= stats["total"].median_s * 1.05
    write_result(
        results_dir, "phase_profile_serial.txt", render_phase_table(stats)
    )


def test_sdc_threads_phase_profile(results_dir):
    atoms, pot, nlist = _system()
    tracer = Tracer()
    with ThreadBackend(2) as backend:
        strategy = SDCStrategy(dims=2, n_threads=2, backend=backend)
        strategy.attach_tracer(tracer)
        stats = measure(
            tracer,
            lambda: strategy.compute(pot, atoms, nlist),
            warmup=1,
            repeats=5,
        )
    assert "color-barrier" in stats
    assert stats["color-barrier"].median_s >= 0.0
    write_result(
        results_dir, "phase_profile_sdc_threads.txt", render_phase_table(stats)
    )


def test_bench_sweep_table(results_dir):
    records = bench_forces(
        cases=("tiny",),
        strategies=("serial", "sdc-2d"),
        backends=("serial", "threads"),
        n_workers=2,
        warmup=1,
        repeats=3,
    )
    combos = {(r.strategy, r.backend) for r in records}
    assert combos == {
        ("serial", "serial"),
        ("serial", "threads"),
        ("sdc-2d", "serial"),
        ("sdc-2d", "threads"),
    }
    write_result(
        results_dir, "bench_sweep_tiny.txt", render_bench_table(records)
    )


def test_measured_reordering_profile(results_dir):
    result = measure_reordering(n_threads=2, warmup=1, repeats=3)
    assert np.isfinite(result.serial_gain_percent)
    assert result.max_force_dev < 1e-10
    write_result(results_dir, "reordering_measured.txt", result.render())

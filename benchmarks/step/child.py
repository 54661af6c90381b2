"""One measurement process: one workload, one seed, traced or not.

Started fresh by ``run.py`` for every repeat, so set-up (first-touch
allocation, fork pools, arenas) is paid and measured every time.  Prints
one JSON object on the last line of stdout.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys

import numpy as np

from repro import kernels
from repro.core.strategies.sdc import SDCStrategy
from repro.harness.cases import Case
from repro.md.integrators import VelocityVerlet
from repro.md.neighbor.cells import build_cell_list
from repro.md.neighbor.verlet import build_neighbor_list
from repro.md.observables import total_momentum
from repro.md.simulation import SerialCalculator, Simulation
from repro.md.thermostats import BerendsenThermostat
from repro.obs.health import HealthMonitor
from repro.obs.runlog import RunLog
from repro.obs.tracer import Tracer
from repro.parallel.backends.processes import ProcessSDCCalculator
from repro.parallel.backends.sharded import ShardedSDCCalculator
from repro.parallel.backends.threads import ThreadBackend
from repro.potentials import fe_potential
from repro.potentials.eam import (
    compute_eam_forces_serial,
    eam_density_and_pair_energy_phase,
    eam_embedding_phase,
    eam_force_phase,
)

from hostspeed import HostSpeedProbe, step_factors
from metrics import check
from spans import SpanProxy, SpanRecorder, TracedSimulation
from workloads import (
    N_CELLS,
    N_CELLS_QUICK,
    PERTURBATION,
    TIMESTEP_PS,
    WARMUP_STEPS,
    WORKLOADS,
    Workload,
    n_workers,
)

_IMPORT_S = time.perf_counter() - _T_PROCESS

#: a time-budgeted run still takes this many steps, so p95 has a tail
MIN_TIMED_STEPS = 20
PROBE_CALLS = 15

FORCE_RTOL = 1e-9
ENERGY_DRIFT_EV_PER_ATOM = 1e-4
MOMENTUM_ATOL = 1e-8
TWIN_ENERGY_RTOL = 1e-9

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def make_calculator(engine: str, workers: int):
    if engine == "serial":
        return SerialCalculator()
    if engine == "threads":
        return SDCStrategy(
            dims=2, n_threads=workers, backend=ThreadBackend(workers)
        )
    if engine == "processes":
        return ProcessSDCCalculator(dims=2, n_workers=workers)
    if engine == "sharded":
        return ShardedSDCCalculator(n_shards=workers, dims=2)
    raise ValueError(f"unknown engine {engine!r}")


def worker_pids(calculator) -> list:
    hook = getattr(calculator, "worker_pids", None)
    return list(hook()) if hook is not None else []


def _proc_status_mb(pid, field: str) -> float:
    """``VmHWM``/``VmRSS`` of a pid in MiB (0 when it is already gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pids) -> tuple:
    """(user, sys) CPU of this process, its reaped children and ``pids``.

    Monotone across a worker re-fork: a stopped worker's time moves from
    its ``/proc`` entry into ``RUSAGE_CHILDREN`` when it is reaped.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    user = own.ru_utime + reaped.ru_utime
    system = own.ru_stime + reaped.ru_stime
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        user += int(fields[11]) / _CLK_TCK
        system += int(fields[12]) / _CLK_TCK
    return user, system


def engine_counters(calculator) -> dict:
    """Lifecycle counts from the engine's public ``health_snapshot()``."""
    hook = getattr(calculator, "health_snapshot", None)
    snap = hook() if hook is not None else {}
    return {
        "pool_spawns": snap.get("n_pool_spawns", 0),
        "epochs": snap.get("n_epochs", snap.get("epoch", 0)),
        "restarts": snap.get("n_restarts", 0),
        "worker_deaths": snap.get("n_worker_deaths", 0),
        "migrated_atoms": snap.get("n_migrated_total", 0),
    }


def decomposition(calculator) -> dict:
    """Subdomain/colour shape from the public schedule and pair partition."""
    if hasattr(calculator, "shard_schedule_items"):
        items = [(p, s) for _, p, s in calculator.shard_schedule_items()]
    elif getattr(calculator, "schedule", None) is not None:
        items = [(calculator.pair_partition, calculator.schedule)]
    else:
        return {"subdomains": 1, "colors": 1, "color_imbalance": 1.0}
    imbalance = 1.0
    for pairs, schedule in items:
        counts = pairs.pair_counts()
        per_color = [float(counts[members].sum()) for members in schedule.phases]
        mean = sum(per_color) / len(per_color)
        if mean > 0:
            imbalance = max(imbalance, max(per_color) / mean)
    return {
        "subdomains": sum(len(p.offsets) - 1 for p, _ in items),
        "colors": max(s.n_colors for _, s in items),
        "color_imbalance": imbalance,
    }


def run_probes(sim: Simulation, workers: int, host: HostSpeedProbe) -> dict:
    """Each layer's public function, alone, on the run's final state."""

    def probe_ms(fn) -> float:
        """Median wall of ``PROBE_CALLS`` calls, in ms at reference speed."""
        slowdown = host.factor()
        samples = []
        for _ in range(PROBE_CALLS):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1e3 / slowdown

    potential, atoms, nlist = sim.potential, sim.atoms, sim.nlist
    positions, box = atoms.positions, atoms.box
    rho, _ = eam_density_and_pair_energy_phase(potential, positions, box, nlist)
    _, fp = eam_embedding_phase(potential, rho)
    # kernels first: the list build churns large temporaries, and the
    # allocator state it leaves behind is not the one a step runs in
    out = {
        "density_ms": probe_ms(
            lambda: eam_density_and_pair_energy_phase(
                potential, positions, box, nlist
            )
        ),
        "embedding_ms": probe_ms(lambda: eam_embedding_phase(potential, rho)),
        "force_ms": probe_ms(
            lambda: eam_force_phase(potential, positions, box, nlist, fp)
        ),
        "cells_ms": probe_ms(
            lambda: build_cell_list(positions, box, nlist.cutoff + nlist.skin)
        ),
        "build_ms": probe_ms(
            lambda: build_neighbor_list(
                positions, box, cutoff=nlist.cutoff, skin=nlist.skin, half=True
            )
        ),
        "pairs": nlist.n_pairs,
    }
    noop_tasks = [lambda: None] * workers
    with ThreadBackend(workers) as backend:
        out["dispatch_us"] = probe_ms(lambda: backend.run_phase(noop_tasks)) * 1e3
    return out


def serial_twin_energy(case: Case, spec: Workload, seed: int) -> float:
    """Total energy of the serial trajectory at the end of the warm-up."""
    atoms = case.build(
        perturbation=PERTURBATION, temperature=spec.temperature, seed=seed
    )
    twin = Simulation(
        atoms, fe_potential(), SerialCalculator(),
        VelocityVerlet(TIMESTEP_PS), skin=spec.skin,
    )
    twin.compute_forces()
    return twin.run(WARMUP_STEPS, sample_every=1).records[-1].total_energy


def build_simulation(spec: Workload, atoms, calculator, recorder):
    """The workload's ``Simulation``; behind span proxies when traced."""
    potential = fe_potential()
    integrator = VelocityVerlet(TIMESTEP_PS)
    thermostat = BerendsenThermostat(spec.temperature) if spec.observed else None
    observers = (
        {"tracer": Tracer(), "run_log": RunLog(), "health": HealthMonitor()}
        if spec.observed
        else {}
    )
    if recorder is None:
        return Simulation(
            atoms, potential, calculator, integrator, thermostat,
            skin=spec.skin, **observers,
        )
    return TracedSimulation(
        atoms, potential,
        SpanProxy(calculator, recorder, ("compute", "on_neighbor_rebuild")),
        SpanProxy(integrator, recorder, ("first_half", "second_half")),
        thermostat and SpanProxy(thermostat, recorder, ("apply",)),
        skin=spec.skin, recorder=recorder, **observers,
    )


def timed_steps(sim: Simulation, recorder, host: HostSpeedProbe, args) -> dict:
    """One ``run(1)`` per step, so every step is a latency sample.

    Stops after ``--steps``, or once ``--seconds`` have passed (but never
    before ``MIN_TIMED_STEPS``).  A step that raises is counted and ends
    the loop.
    """
    wall_ms, rebuilt, energies = [], [], []
    probes_ms = [host()]
    steps_failed = 0
    deadline = None if args.seconds is None else time.perf_counter() + args.seconds
    min_steps = MIN_TIMED_STEPS if args.steps is None else args.steps
    loop_start = time.perf_counter()
    while True:
        step = len(wall_ms)
        if step >= min_steps and (
            args.steps is not None or time.perf_counter() >= deadline
        ):
            break
        start = time.perf_counter()
        try:
            if recorder is None:
                report = sim.run(1, sample_every=1)
            else:
                recorder.step = step
                with recorder.span("step"):
                    report = sim.run(1, sample_every=1)
        except Exception as exc:  # a failed step is counted, not fatal
            print(f"step {step} raised: {exc!r}", file=sys.stderr)
            steps_failed = 1
            break
        wall_ms.append((time.perf_counter() - start) * 1e3)
        probes_ms.append(host())
        rebuilt.append(report.n_neighbor_rebuilds)
        energies.append(report.records[-1].total_energy)
    slowdown = step_factors(probes_ms[: len(wall_ms) + 1])
    return {
        "wall_ms": [w / f for w, f in zip(wall_ms, slowdown)],
        "raw_wall_ms": wall_ms,
        "host_slowdown": slowdown,
        "rebuilt": rebuilt,
        "loop_s": time.perf_counter() - loop_start,
        "host_probe_s": sum(probes_ms) * 1e-3,
        "final_energy": energies[-1] if energies else None,
        "steps_failed": steps_failed,
    }


def engine_state(spec: Workload, calculator, workers: int, pids) -> dict:
    """What the engine's public accessors say while it is still live."""
    state = {
        "workers": 1 if spec.engine == "serial" else workers,
        "worker_rss_mb": sum(_proc_status_mb(pid, "VmRSS") for pid in pids),
        "arena_bytes": (
            calculator.arena_bytes() if hasattr(calculator, "arena_bytes") else 0
        ),
        "halo_bytes_per_step": 0,
        "halo_fraction": 0.0,
        **decomposition(calculator),
    }
    if hasattr(calculator, "halo_stats"):
        halo = calculator.halo_stats()
        state["halo_bytes_per_step"] = halo["bytes_per_step"]
        state["halo_fraction"] = statistics.fmean(halo["halo_fraction"])
    return state


def physics_checks(spec: Workload, sim: Simulation, energy_start, energy_end) -> list:
    """Final forces against a fresh serial evaluation; NVE conservation."""
    atoms, potential = sim.atoms, sim.potential
    reference = atoms.copy()
    compute_eam_forces_serial(
        potential,
        reference,
        build_neighbor_list(
            reference.positions, reference.box,
            cutoff=potential.cutoff, skin=spec.skin, half=True,
        ),
    )
    force_scale = float(np.max(np.abs(reference.forces)))
    checks = [
        check(
            "final-forces-vs-serial",
            float(np.max(np.abs(atoms.forces - reference.forces))) / force_scale,
            FORCE_RTOL,
        )
    ]
    if spec.nve:
        checks.append(
            check(
                "nve-energy-drift-ev-per-atom",
                abs(energy_end - energy_start) / atoms.n_atoms,
                ENERGY_DRIFT_EV_PER_ATOM,
            )
        )
        checks.append(
            check(
                "nve-total-momentum",
                float(np.max(np.abs(total_momentum(atoms)))),
                MOMENTUM_ATOL,
            )
        )
    return checks


def measure(spec: Workload, args) -> dict:
    workers = n_workers()
    case = Case("bench", "benchmark case", N_CELLS_QUICK if args.quick else N_CELLS)
    recorder = SpanRecorder() if args.traced else None
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    cpus = sorted(os.sched_getaffinity(0))[:workers]
    host = HostSpeedProbe(None if spec.engine == "serial" else cpus)
    slowdown_before_setup = host.factor()

    # set-up: everything a user waits for before the first timed step
    t0 = time.perf_counter()
    atoms = case.build(
        perturbation=PERTURBATION, temperature=spec.temperature, seed=args.seed
    )
    t1 = time.perf_counter()
    calculator = make_calculator(spec.engine, workers)
    sim = build_simulation(spec, atoms, calculator, recorder)
    try:
        sim.compute_forces()
        t2 = time.perf_counter()
        warm = sim.run(WARMUP_STEPS, sample_every=1)
        t3 = time.perf_counter()
        setup_slowdown = 0.5 * (slowdown_before_setup + host.factor())
        energy_start = warm.records[-1].total_energy
        if recorder is not None:
            recorder.clear()

        counters_before = engine_counters(calculator)
        cpu_before = cpu_seconds(worker_pids(calculator))
        timed = timed_steps(sim, recorder, host, args)
        pids = worker_pids(calculator)
        cpu_after = cpu_seconds(pids)
        counters_after = engine_counters(calculator)

        peak_rss_mb = _proc_status_mb("self", "VmHWM") + sum(
            _proc_status_mb(pid, "VmHWM") for pid in pids
        )
        engine = engine_state(spec, calculator, workers, pids)
        engine.update(
            {k: counters_after[k] - counters_before[k] for k in counters_after}
        )
        observers = {
            "spans_recorded": len(sim.tracer) if spec.observed else 0,
            "runlog_records": len(sim.run_log.records) if spec.observed else 0,
            "health_events": (
                sim.health.summary_fields()["n_events"] if spec.observed else 0
            ),
        }
        # each check is an attempted operation, like each timed step
        checks = (
            physics_checks(spec, sim, energy_start, timed["final_energy"])
            if not timed["steps_failed"]
            else []
        )
    finally:
        sim.close()
    checks.append(
        check(
            "workers-gone-after-close",
            sum(os.path.exists(f"/proc/{pid}") for pid in pids),
            0,
        )
    )
    if os.path.isdir("/dev/shm"):
        checks.append(
            check(
                "no-new-shm-segment",
                len(set(os.listdir("/dev/shm")) - shm_before),
                0,
            )
        )
    if spec.serial_twin:
        twin_energy = serial_twin_energy(case, spec, args.seed)
        checks.append(
            check(
                "warmup-energy-equals-serial",
                abs(energy_start - twin_energy) / abs(twin_energy),
                TWIN_ENERGY_RTOL,
            )
        )

    # every time is at reference host speed (hostspeed.py), except the
    # raw_* copies and the loop/CPU totals that only feed ratios
    result = {
        "workload": spec.name,
        "traced": args.traced,
        "seed": args.seed,
        "n_atoms": atoms.n_atoms,
        "kernel_tier": kernels.active_tier().name,
        "numpy": np.__version__,
        "numba": "numba" in sys.modules,
        "setup": {
            "import_s": _IMPORT_S / setup_slowdown,
            "case_build_s": (t1 - t0) / setup_slowdown,
            "first_forces_s": (t2 - t1) / setup_slowdown,
            "warmup_s": (t3 - t2) / setup_slowdown,
            "setup_s": (t3 - t0) / setup_slowdown,
            "raw_setup_s": t3 - t0,
        },
        **timed,
        "cpu_user_s": cpu_after[0] - cpu_before[0],
        "cpu_sys_s": cpu_after[1] - cpu_before[1],
        "peak_rss_mb": peak_rss_mb,
        "engine": engine,
        "observers": observers,
        "checks": checks,
    }
    if recorder is not None:
        n_spans = len(timed["wall_ms"]) + timed["steps_failed"]
        result["self_ms"] = {
            name: [v / f for v, f in zip(values, timed["host_slowdown"])]
            for name, values in recorder.self_ms_by_step(n_spans).items()
        }
        result["probes"] = run_probes(sim, workers, host)
        if args.trace_out:
            recorder.dump_chrome_trace(args.trace_out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--steps", type=int)
    budget.add_argument("--seconds", type=float)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    result = measure(WORKLOADS[args.workload], args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The deterministic OpenMP-runtime simulator.

Consumes a :class:`~repro.parallel.plan.SimPlan` and a
:class:`~repro.parallel.machine.MachineConfig`, produces per-phase and
per-thread timings.  The model, phase by phase:

1. Tasks are distributed with OpenMP *static* scheduling (contiguous
   chunks, matching ``#pragma omp for`` without a ``schedule`` clause on
   the paper-era GCC).
2. Each task costs ``compute + memory * contention(p, locality) *
   locality_factor * working_set_factor(p) * footprint_factor`` cycles.
   The working-set factor is thread-scaled: a task streaming an
   over-cache working set only suffers once the shared bus is contended
   (no penalty at p = 1).
3. The phase's busy time is its slowest thread (load imbalance appears
   here); a barrier phase additionally charges ``phase_cycles(p)``.
4. Critical-section work serializes *across* threads: the phase cannot
   finish before either its slowest thread or the drained critical queue.
5. Each parallel region charges one fork-join.

Everything is a pure function of its inputs — runs are exactly
reproducible, which is the point of simulating the testbed instead of
timing GIL-bound Python threads (see DESIGN.md).  :func:`trace_result`
puts a run on the measured runs' span timeline (DESIGN §7.5).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.obs.tracer import Tracer, trace_region
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPhase, SimPlan


@dataclass(frozen=True)
class PhaseResult:
    """Timing of one simulated phase."""

    name: str
    busy_cycles_per_thread: np.ndarray
    critical_cycles: float
    sync_cycles: float
    total_cycles: float

    @property
    def makespan_cycles(self) -> float:
        """Slowest thread's busy time (before sync/critical charges)."""
        if len(self.busy_cycles_per_thread) == 0:
            return 0.0
        return float(np.max(self.busy_cycles_per_thread))

    @property
    def imbalance(self) -> float:
        """Makespan over mean busy time (1.0 = perfectly balanced)."""
        busy = self.busy_cycles_per_thread
        mean = float(np.mean(busy)) if len(busy) else 0.0
        if mean == 0.0:
            return 1.0
        return self.makespan_cycles / mean


@dataclass(frozen=True)
class SimResult:
    """Timing of a full plan execution."""

    plan_name: str
    n_threads: int
    phase_results: List[PhaseResult]
    fork_join_cycles: float
    total_cycles: float
    machine: MachineConfig

    @property
    def seconds(self) -> float:
        """Simulated wall-clock seconds."""
        return self.machine.cycles_to_seconds(self.total_cycles)

    def phase_breakdown(self) -> Dict[str, float]:
        """Per-phase cycle totals keyed by phase name (summed over repeats)."""
        out: Dict[str, float] = {}
        for p in self.phase_results:
            out[p.name] = out.get(p.name, 0.0) + p.total_cycles
        return out


def _thread_of_task(n_tasks: int, n_threads: int) -> np.ndarray:
    """Static-schedule owner thread of each task (contiguous chunks)."""
    base = n_tasks // n_threads
    extra = n_tasks % n_threads
    sizes = np.full(n_threads, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.repeat(np.arange(n_threads, dtype=np.int64), sizes)


def _task_cycles(
    phase: SimPhase,
    machine: MachineConfig,
    n_threads: int,
    serial: bool,
) -> np.ndarray:
    """Effective per-task cycles (excluding critical serialization)."""
    loc = machine.locality_factor(phase.locality)
    if serial:
        contention = 1.0
        fp = 1.0
        ws_factor = 1.0
    else:
        contention = machine.mem_contention(n_threads, phase.locality)
        fp = machine.footprint_factor(phase.footprint_bytes)
        ws_factor = machine.working_set_factor_array(phase.working_set, n_threads)
    return phase.compute + phase.memory * (contention * loc * fp) * ws_factor


def _simulate_phase(
    phase: SimPhase,
    machine: MachineConfig,
    n_threads: int,
    serial: bool,
) -> PhaseResult:
    p = 1 if serial else n_threads
    cycles = _task_cycles(phase, machine, n_threads, serial)
    if phase.n_tasks:
        owners = _thread_of_task(phase.n_tasks, p)
        busy = np.bincount(owners, weights=cycles, minlength=p)
    else:
        busy = np.zeros(p)
    n_crit = phase.total_critical_ops()
    serialized = phase.total_serialized()
    if not serial:
        critical_total = serialized + n_crit * machine.critical_cycles(n_threads)
    else:
        # uncontended lock still costs its base entry fee; held work runs
        # at plain speed
        critical_total = serialized + n_crit * machine.critical_base_cycles
    sync = 0.0
    if phase.barrier and not serial:
        sync = machine.phase_cycles(n_threads)
    makespan = float(np.max(busy)) if len(busy) else 0.0
    if critical_total:
        if serial:
            total_busy = makespan + critical_total
        else:
            # the serialized critical lane overlaps with parallel compute:
            # the phase cannot finish before either the slowest thread or
            # the drained critical queue
            total_busy = max(makespan, critical_total) + min(
                makespan, critical_total
            ) / max(n_threads, 1)
    else:
        total_busy = makespan
    return PhaseResult(
        name=phase.name,
        busy_cycles_per_thread=busy,
        critical_cycles=critical_total,
        sync_cycles=sync,
        total_cycles=total_busy + sync,
    )


def simulate(
    plan: SimPlan,
    machine: MachineConfig,
    n_threads: int,
) -> SimResult:
    """Run a plan on the simulated machine with ``n_threads`` threads.

    ``n_threads`` beyond ``machine.n_cores`` is rejected: the model has no
    oversubscription semantics (neither do the paper's experiments).
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    if n_threads > machine.n_cores:
        raise ValueError(
            f"n_threads={n_threads} exceeds machine cores {machine.n_cores}"
        )
    serial = plan.serial_overheads
    phase_results = [
        _simulate_phase(phase, machine, n_threads, serial)
        for phase in plan.phases
    ]
    fork_join = (
        0.0 if serial else plan.n_parallel_regions * machine.fork_join_cycles(n_threads)
    )
    total = fork_join + sum(p.total_cycles for p in phase_results)
    return SimResult(
        plan_name=plan.name,
        n_threads=n_threads,
        phase_results=phase_results,
        fork_join_cycles=fork_join,
        total_cycles=total,
        machine=machine,
    )


def trace_result(tracer: Tracer, result: SimResult) -> None:
    """Put ``result`` on ``tracer``'s timeline as one parallel region
    (:func:`~repro.obs.tracer.trace_region`), in seconds of the machine's
    clock from 0: a step per phase, labelled with its name and tagged with
    the part before ``:`` as a measured evaluation's are, and model thread
    ``k`` a task on the track ``model-thread-<k>`` that starts after the
    fork-join prologue, enters each phase's barrier at the phase start
    plus its busy cycles and leaves at the phase start plus its total."""
    seconds = result.machine.cycles_to_seconds
    phases = result.phase_results
    n_threads = len(phases[0].busy_cycles_per_thread) if phases else 0
    steps, marks = [], [[result.fork_join_cycles] for _ in range(n_threads)]
    start = result.fork_join_cycles
    for phase in phases:
        steps.append((phase.name, {"phase": phase.name.split(":")[0]}))
        end = start + phase.total_cycles
        for row, busy in zip(marks, phase.busy_cycles_per_thread.tolist()):
            row += [start + busy, end]
        start = end
    trace_region(tracer, (0.0, seconds(result.total_cycles)), steps, [
        ([seconds(c) for c in row], f"model-thread-{k}", os.getpid())
        for k, row in enumerate(marks)
    ])


def speedup(
    serial_result: SimResult, parallel_result: SimResult
) -> float:
    """Paper's speedup definition: serial runtime / parallel runtime."""
    if parallel_result.total_cycles <= 0:
        raise ValueError("parallel runtime must be positive")
    return serial_result.total_cycles / parallel_result.total_cycles

"""Simulated multicore platform + real execution backends.

The paper's measurements come from a 4-socket, 16-core Xeon E7320 machine
running OpenMP.  This package substitutes that testbed (see DESIGN.md):

* :mod:`repro.parallel.machine` — the machine's cost parameters.
* :mod:`repro.parallel.plan` — strategy-built execution plans (phases of
  costed tasks with OpenMP-style synchronization semantics).
* :mod:`repro.parallel.sim_exec` — the deterministic simulator that turns
  a plan + thread count into per-thread timings and a total runtime, and
  puts that run on a tracer's timeline (``trace_result``).
* :mod:`repro.parallel.workload` — workload statistics (measured from real
  systems or derived analytically for the paper's multi-million-atom
  cases).
* :mod:`repro.parallel.cache` — an exact set-associative cache simulator
  for locality studies.
* :mod:`repro.parallel.backends` — real ``threading``/``multiprocessing``
  executors that run the same color schedules on actual cores.
"""

from repro.parallel.machine import MachineConfig, paper_machine
from repro.parallel.plan import SimPhase, SimPlan, uniform_phase
from repro.parallel.sim_exec import SimResult, simulate
from repro.parallel.workload import SubdomainStats, WorkloadStats

__all__ = [
    "MachineConfig",
    "paper_machine",
    "SimPhase",
    "SimPlan",
    "uniform_phase",
    "SimResult",
    "simulate",
    "SubdomainStats",
    "WorkloadStats",
]

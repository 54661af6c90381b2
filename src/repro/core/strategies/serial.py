"""The optimized serial baseline (paper Section III: "runtimes of serial
programs on one core").

Physics goes straight through the reference kernels of
:mod:`repro.potentials.eam` (half lists, both Section II.D optimizations);
the plan is a single-thread plan with ``serial_overheads=True`` so the
simulator charges no fork-join, barrier, or contention costs — the
denominator of every speedup in Table I and Fig. 9.
"""

from __future__ import annotations

from repro.core.strategies.base import ReductionStrategy
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPlan, embedding_phase, uniform_phase
from repro.parallel.workload import WorkloadStats
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation, compute_eam_forces_serial


class SerialStrategy(ReductionStrategy):
    """Reference single-thread execution."""

    name = "serial"

    def __init__(self) -> None:
        """No schedule width, no backend: nothing is ever dispatched."""

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        """Not the shared body: the evaluation owns its output arrays, so
        ``tier.evaluate`` scatters with ``bincount`` instead of in place."""
        return compute_eam_forces_serial(
            potential, atoms, nlist, tracer=self._tracer
        )

    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int = 1,
    ) -> SimPlan:
        pairs = stats.n_half_pairs
        phases = [
            uniform_phase(
                "density",
                n_tasks=1,
                compute_per_task=pairs * machine.cycles_pair_density_compute,
                memory_per_task=pairs * machine.cycles_pair_density_memory,
                locality=stats.locality,
            ),
            embedding_phase(stats, machine, 1),
            uniform_phase(
                "force",
                n_tasks=1,
                compute_per_task=pairs * machine.cycles_pair_force_compute,
                memory_per_task=pairs * machine.cycles_pair_force_memory,
                locality=stats.locality,
            ),
        ]
        return SimPlan(
            name=self.name,
            phases=phases,
            n_parallel_regions=0,
            serial_overheads=True,
        )

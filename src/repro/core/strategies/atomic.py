"""Atomic-update strategy — lock-free fine-grained synchronization.

The paper's taxonomy mentions atomics alongside critical sections as
class-1 solutions ("critical region, atomic or lock in loop").  The
strategy is CS without the lock: every scatter update is a hardware atomic
read-modify-write.  Cheaper per update than a critical section, but still
paying a coherence transaction per irregular update — it scales better
than CS and worse than SDC/RC.  Included as the natural ablation between
CS and SDC.
"""

from __future__ import annotations

from repro.core.strategies.base import ReductionStrategy
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPlan, embedding_phase, uniform_phase
from repro.parallel.workload import WorkloadStats


class AtomicStrategy(ReductionStrategy):
    """Scatter updates performed as hardware atomics (no lock).

    Layout: the half list split by atom rows.  Write mode: both endpoints,
    in place — in the Python realization ``np.add.at`` under the GIL *is*
    atomic with respect to other closures, so the physics is exact; the
    cost model is where the per-update atomic price appears.  So the
    scatter is always the tier's ``scatter_*_half``, never a slice body: a
    compiled slice body drops the GIL and would lose updates.
    """

    name = "atomic"
    # overlapping writes are expected — each update is its own atomic RMW
    lock_free = False
    write_mode = "atomic-scatter"

    def _density_slice(
        self, tier, potential, positions, box, i_idx, j_idx, rho, handover,
        k, rows,
    ) -> float:
        phi, pair_energy = tier.pair_pass(
            potential, positions, box, i_idx, j_idx, handover
        )
        tier.scatter_rho_half(rho, i_idx, j_idx, phi)
        return pair_energy

    def _force_slice(
        self, tier, i_idx, j_idx, fp, handover, forces, k, rows
    ) -> None:
        tier.scatter_force_half(
            forces, i_idx, j_idx, tier.pair_forces(i_idx, j_idx, fp, handover)
        )

    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int,
    ) -> SimPlan:
        pairs_per_thread = stats.n_half_pairs / max(n_threads, 1)
        # per-pair atomic traffic: 2 scalar updates in density, 6 in force
        atomic_density = 2.0 * machine.atomic_base_cycles
        atomic_force = 6.0 * machine.atomic_base_cycles
        phases = [
            uniform_phase(
                "density",
                n_tasks=n_threads,
                compute_per_task=pairs_per_thread
                * machine.cycles_pair_density_compute,
                memory_per_task=pairs_per_thread
                * (machine.cycles_pair_density_memory + atomic_density),
                locality=stats.locality,
            ),
            embedding_phase(stats, machine, n_threads),
            uniform_phase(
                "force",
                n_tasks=n_threads,
                compute_per_task=pairs_per_thread
                * machine.cycles_pair_force_compute,
                memory_per_task=pairs_per_thread
                * (machine.cycles_pair_force_memory + atomic_force),
                locality=stats.locality,
            ),
        ]
        return SimPlan(name=self.name, phases=phases, n_parallel_regions=3)

"""Redundant Computation (RC) strategy — the taxonomy's last class.

Uses a *full* neighbor list: every pair appears in both directions, so a
thread that owns a block of atoms writes only its own rows — the data
dependence between loop iterations disappears entirely.  The price is the
paper's headline comparison point: every phi and every pair force is
computed twice, and the doubled neighbor list costs memory.  "Its double
computation cost can be amortized over many cores ... but the efficiency
of RC method is low than that of SDC."
"""

from __future__ import annotations

from repro.core.strategies.base import ReductionStrategy
from repro.md.neighbor.verlet import full_from_half
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPlan, embedding_phase, uniform_phase
from repro.parallel.workload import WorkloadStats


class RedundantComputationStrategy(ReductionStrategy):
    """Full neighbor lists; each thread writes only its owned rows.

    Layout: the doubled list split by atom rows.  Write mode: the first
    endpoint only — always a row of the worker's own block — so every
    stored pair counts half toward the pair energy.
    """

    name = "redundant-computation"
    write_mode = "doubled-pairs"
    pair_energy_scale = 0.5

    def _layout(self, atoms, nlist):
        # the doubled list RC consumes (a full list handed in is used as is)
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            return self._row_blocks(nlist, full_from_half)

    def _density_slice(
        self, tier, potential, positions, box, i_idx, j_idx, rho, handover,
        k, rows,
    ) -> float:
        lo, hi = rows
        phi, pair_energy = tier.pair_pass(
            potential, positions, box, i_idx, j_idx, handover
        )
        tier.scatter_rho_owned(rho[lo:hi], i_idx - lo, phi, hi - lo)
        return pair_energy

    def _force_slice(
        self, tier, i_idx, j_idx, fp, handover, forces, k, rows
    ) -> None:
        lo, hi = rows
        pair_forces = tier.pair_forces(i_idx, j_idx, fp, handover)
        tier.scatter_force_owned(forces[lo:hi], i_idx - lo, pair_forces, hi - lo)

    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int,
    ) -> SimPlan:
        # full list: twice the directed pairs of the half list
        pairs_per_thread = 2.0 * stats.n_half_pairs / max(n_threads, 1)
        phases = [
            uniform_phase(
                "density",
                n_tasks=n_threads,
                compute_per_task=pairs_per_thread
                * machine.cycles_pair_density_compute,
                memory_per_task=pairs_per_thread
                * machine.cycles_pair_density_memory,
                locality=stats.locality,
            ),
            embedding_phase(stats, machine, n_threads),
            uniform_phase(
                "force",
                n_tasks=n_threads,
                compute_per_task=pairs_per_thread
                * machine.cycles_pair_force_compute,
                memory_per_task=pairs_per_thread
                * machine.cycles_pair_force_memory,
                locality=stats.locality,
            ),
        ]
        return SimPlan(name=self.name, phases=phases, n_parallel_regions=3)

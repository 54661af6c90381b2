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

from typing import Optional

import numpy as np

from repro.core.strategies.base import (
    ReductionStrategy,
    atom_chunks,
    rows_pair_slice,
)
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends.base import ExecutionBackend
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPlan, uniform_phase
from repro.parallel.workload import WorkloadStats
from repro.potentials.base import EAMPotential
from repro.potentials.eam import (
    EAMComputation,
    force_pair_coefficients,
    pair_geometry,
    pair_terms,
    scatter_force_half,
    scatter_rho_half,
)


class AtomicStrategy(ReductionStrategy):
    """Scatter updates performed as hardware atomics (no lock).

    In the Python realization ``np.add.at`` under the GIL *is* atomic with
    respect to other closures, so the physics is exact; the cost model is
    where the per-update atomic price appears.
    """

    name = "atomic"
    # overlapping writes are expected — each update is its own atomic RMW
    lock_free = False

    def __init__(
        self,
        n_threads: int = 1,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = n_threads
        self.backend = backend or SerialBackend()

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        nlist.check_covers(atoms.n_atoms)
        if not nlist.half:
            raise ValueError("atomic strategy consumes half neighbor lists")
        tier = self._tier()
        positions = atoms.positions
        box = atoms.box
        n = atoms.n_atoms
        chunks = atom_chunks(n, self.n_threads)

        rho = self._array("rho", n)

        def density_task(rows: np.ndarray):
            def run() -> None:
                i_idx, j_idx = rows_pair_slice(nlist, rows)
                if len(i_idx) == 0:
                    return
                _, r = pair_geometry(positions, box, i_idx, j_idx, tier=tier)
                phi = pair_terms(potential, r, tier=tier)[0]
                scatter_rho_half(rho, i_idx, j_idx, phi, tier=tier)

            return run

        with self._span(
            "density:atomic-scatter", phase="density", n_chunks=len(chunks)
        ):
            self.backend.run_phase([density_task(rows) for rows in chunks])

        fp = np.empty(n)
        emb_parts = np.zeros(len(chunks))

        def embed_task(k: int, rows: np.ndarray):
            def run() -> None:
                emb_parts[k] = float(np.sum(potential.embed(rho[rows])))
                fp[rows] = potential.embed_deriv(rho[rows])

            return run

        with self._span("embedding", phase="embedding"):
            self.backend.run_phase(
                [embed_task(k, rows) for k, rows in enumerate(chunks)]
            )
        embedding_energy = float(np.sum(emb_parts))

        forces = self._array("forces", (n, 3))

        def force_task(rows: np.ndarray):
            def run() -> None:
                i_idx, j_idx = rows_pair_slice(nlist, rows)
                if len(i_idx) == 0:
                    return
                delta, r = pair_geometry(positions, box, i_idx, j_idx, tier=tier)
                coeff = force_pair_coefficients(
                    potential, r, fp[i_idx], fp[j_idx],
                    pair_ids=(i_idx, j_idx), tier=tier,
                )
                pair_forces = coeff[:, None] * delta
                scatter_force_half(forces, i_idx, j_idx, pair_forces, tier=tier)

            return run

        with self._span(
            "force:atomic-scatter", phase="force", n_chunks=len(chunks)
        ):
            self.backend.run_phase([force_task(rows) for rows in chunks])

        pair_energy = self._total_pair_energy(potential, atoms, nlist)
        return self._finalize(
            potential, atoms, nlist, rho, fp, forces, embedding_energy, pair_energy
        )

    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int,
    ) -> SimPlan:
        pairs_per_thread = stats.n_half_pairs / max(n_threads, 1)
        per_chunk = stats.n_atoms / max(n_threads, 1)
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
            uniform_phase(
                "embedding",
                n_tasks=n_threads,
                compute_per_task=per_chunk * machine.cycles_atom_embed_compute,
                memory_per_task=per_chunk * machine.cycles_atom_embed_memory,
                locality=stats.locality,
            ),
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

"""Critical Section (CS) strategy — the taxonomy's class 1.

"The simplest solution that enclosed the reference to the reduction array
in a critical section."  The loop over atoms is split across threads; every
pair's scatter updates (both endpoints — an atom owned by one thread is a
neighbor of atoms owned by others) execute under one global lock.  High
synchronization cost, no memory overhead; the paper measures it as the
slowest method on every case.
"""

from __future__ import annotations

import threading
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


class CriticalSectionStrategy(ReductionStrategy):
    """Every conflicting scatter guarded by one global critical section."""

    name = "critical-section"
    # overlapping writes are the point — they are serialized by the lock
    lock_free = False

    def __init__(
        self,
        n_threads: int = 1,
        backend: Optional[ExecutionBackend] = None,
        pairs_per_critical: int = 1,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if pairs_per_critical < 1:
            raise ValueError("pairs_per_critical must be >= 1")
        self.n_threads = n_threads
        self.backend = backend or SerialBackend()
        #: how many pairs' updates one critical entry covers (1 = the
        #: paper's per-update locking; larger values model coarsening)
        self.pairs_per_critical = pairs_per_critical
        self._lock = threading.Lock()

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        nlist.check_covers(atoms.n_atoms)
        if not nlist.half:
            raise ValueError("CS consumes half neighbor lists")
        positions = atoms.positions
        box = atoms.box
        n = atoms.n_atoms
        tier = self._tier()
        chunks = atom_chunks(n, self.n_threads)

        rho = self._array("rho", n)

        def density_task(rows: np.ndarray):
            def run() -> None:
                i_idx, j_idx = rows_pair_slice(nlist, rows)
                if len(i_idx) == 0:
                    return
                _, r = pair_geometry(positions, box, i_idx, j_idx, tier=tier)
                phi = pair_terms(potential, r, tier=tier)[0]
                with self._lock:
                    with self._span("density:lock-held", n_pairs=len(i_idx)):
                        scatter_rho_half(rho, i_idx, j_idx, phi, tier=tier)

            return run

        with self._span(
            "density:critical-scatter", phase="density", n_chunks=len(chunks)
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
                with self._lock:
                    with self._span("force:lock-held", n_pairs=len(i_idx)):
                        scatter_force_half(forces, i_idx, j_idx, pair_forces, tier=tier)

            return run

        with self._span(
            "force:critical-scatter", phase="force", n_chunks=len(chunks)
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
        crit_per_thread = int(
            np.ceil(pairs_per_thread / self.pairs_per_critical)
        )
        per_chunk = stats.n_atoms / max(n_threads, 1)
        phases = [
            uniform_phase(
                "density",
                n_tasks=n_threads,
                compute_per_task=pairs_per_thread
                * machine.cycles_pair_density_compute,
                memory_per_task=pairs_per_thread
                * machine.cycles_pair_density_memory,
                critical_per_task=crit_per_thread,
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
                * machine.cycles_pair_force_memory,
                critical_per_task=crit_per_thread,
                locality=stats.locality,
            ),
        ]
        return SimPlan(name=self.name, phases=phases, n_parallel_regions=3)

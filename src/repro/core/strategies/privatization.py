"""Shared Array Privatization (SAP) strategy — the taxonomy's class 2.

Each thread accumulates into a *private copy* of the reduction array, then
the copies are merged into the shared array under a critical section.
Minimal synchronization during compute, but memory overhead grows linearly
with the thread count (the paper: competes for cache space, merge critical
section dominates beyond 8 cores, "not a scalable method").
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
from repro.parallel.plan import SimPhase, SimPlan, uniform_phase
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

#: entries merged per critical-section entry in the merge loop
MERGE_CHUNK_ENTRIES = 4096


class ArrayPrivatizationStrategy(ReductionStrategy):
    """Per-thread private reduction arrays, merged under a critical section."""

    name = "array-privatization"

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
            raise ValueError("SAP consumes half neighbor lists")
        tier = self._tier()
        positions = atoms.positions
        box = atoms.box
        n = atoms.n_atoms
        chunks = atom_chunks(n, self.n_threads)

        # --- density: private rho copies, then ordered merge -----------------
        # instrumented as one shadow: each task may only write its own row,
        # so the detector sees disjoint flat ranges when SAP is correct
        private_rho = self._array("rho_private", (self.n_threads, n))

        def density_task(k: int, rows: np.ndarray):
            def run() -> None:
                i_idx, j_idx = rows_pair_slice(nlist, rows)
                if len(i_idx) == 0:
                    return
                _, r = pair_geometry(positions, box, i_idx, j_idx, tier=tier)
                phi = pair_terms(potential, r, tier=tier)[0]
                scatter_rho_half(private_rho[k], i_idx, j_idx, phi, tier=tier)

            return run

        with self._span(
            "density:private-scatter", phase="density", n_chunks=len(chunks)
        ):
            self.backend.run_phase(
                [density_task(k, rows) for k, rows in enumerate(chunks)]
            )
        # merge in thread order (the real code merges under a critical
        # section; fixed order keeps results deterministic)
        with self._span(
            "density:merge", phase="density", n_copies=self.n_threads
        ):
            rho = np.asarray(private_rho).sum(axis=0)

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

        # --- forces: private force copies, then ordered merge --------------------
        private_forces = self._array("forces_private", (self.n_threads, n, 3))

        def force_task(k: int, rows: np.ndarray):
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
                scatter_force_half(
                    private_forces[k], i_idx, j_idx, pair_forces, tier=tier
                )

            return run

        with self._span(
            "force:private-scatter", phase="force", n_chunks=len(chunks)
        ):
            self.backend.run_phase(
                [force_task(k, rows) for k, rows in enumerate(chunks)]
            )
        with self._span("force:merge", phase="force", n_copies=self.n_threads):
            forces = np.asarray(private_forces).sum(axis=0)

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
        phases: list[SimPhase] = []

        def privatized_region(
            kind: str,
            c_compute: float,
            c_memory: float,
            entries_per_copy: int,
        ) -> None:
            # private copies of the reduction array live for the whole region
            footprint = 8.0 * entries_per_copy * (n_threads + 1)
            phases.append(
                uniform_phase(
                    f"{kind}:init",
                    n_tasks=n_threads,
                    compute_per_task=0.0,
                    memory_per_task=entries_per_copy * machine.cycles_array_init,
                    barrier=False,
                    locality=stats.locality,
                )
            )
            phases.append(
                uniform_phase(
                    f"{kind}:compute",
                    n_tasks=n_threads,
                    compute_per_task=pairs_per_thread * c_compute,
                    memory_per_task=pairs_per_thread * c_memory,
                    locality=stats.locality,
                    footprint_bytes=footprint,
                )
            )
            phases.append(
                uniform_phase(
                    f"{kind}:merge",
                    n_tasks=n_threads,
                    serialized_per_task=entries_per_copy
                    * machine.cycles_array_merge,
                    critical_per_task=float(
                        np.ceil(entries_per_copy / MERGE_CHUNK_ENTRIES)
                    ),
                    barrier=True,
                    locality=stats.locality,
                    footprint_bytes=footprint,
                )
            )

        privatized_region(
            "density",
            machine.cycles_pair_density_compute,
            machine.cycles_pair_density_memory,
            entries_per_copy=stats.n_atoms,
        )
        phases.append(
            uniform_phase(
                "embedding",
                n_tasks=n_threads,
                compute_per_task=per_chunk * machine.cycles_atom_embed_compute,
                memory_per_task=per_chunk * machine.cycles_atom_embed_memory,
                locality=stats.locality,
            )
        )
        privatized_region(
            "force",
            machine.cycles_pair_force_compute,
            machine.cycles_pair_force_memory,
            entries_per_copy=3 * stats.n_atoms,
        )
        return SimPlan(name=self.name, phases=phases, n_parallel_regions=3)

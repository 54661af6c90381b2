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

from typing import Optional

import numpy as np

from repro.core.strategies.base import (
    ReductionStrategy,
    atom_chunks,
    rows_pair_slice,
)
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList, full_from_half
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
    scatter_force_owned,
    scatter_rho_owned,
)
from repro.utils.identity import IdentityKey


class RedundantComputationStrategy(ReductionStrategy):
    """Full neighbor lists; each thread writes only its owned rows."""

    name = "redundant-computation"

    def __init__(
        self,
        n_threads: int = 1,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = n_threads
        self.backend = backend or SerialBackend()
        self._full_source = IdentityKey()
        self._full: Optional[NeighborList] = None

    def _full_list(self, nlist: NeighborList) -> NeighborList:
        """Expand (and cache) the doubled neighbor list RC consumes."""
        if self._full_source.matches(nlist) and self._full is not None:
            return self._full
        self._full = full_from_half(nlist) if nlist.half else nlist
        self._full_source.set(nlist)
        return self._full

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        nlist.check_covers(atoms.n_atoms)
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            full = self._full_list(nlist)
        tier = self._tier()
        positions = atoms.positions
        box = atoms.box
        n = atoms.n_atoms
        chunks = atom_chunks(n, self.n_threads)

        rho = self._array("rho", n)

        def density_task(rows: np.ndarray):
            def run() -> None:
                i_idx, j_idx = rows_pair_slice(full, rows)
                if len(i_idx) == 0:
                    return
                _, r = pair_geometry(positions, box, i_idx, j_idx, tier=tier)
                phi = pair_terms(potential, r, tier=tier)[0]
                # owned rows only: offset into the chunk's contiguous range,
                # accumulate into a chunk-local buffer so the task's write
                # into the shared array stays a plain slice assignment
                local = np.zeros(len(rows))
                scatter_rho_owned(local, i_idx - rows[0], phi, len(rows), tier=tier)
                rho[rows] = local

            return run

        with self._span(
            "density:doubled-pairs", phase="density", n_chunks=len(chunks)
        ):
            self.backend.run_phase(
                [density_task(rows) for rows in chunks if len(rows)]
            )

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
                i_idx, j_idx = rows_pair_slice(full, rows)
                if len(i_idx) == 0:
                    return
                delta, r = pair_geometry(positions, box, i_idx, j_idx, tier=tier)
                coeff = force_pair_coefficients(
                    potential, r, fp[i_idx], fp[j_idx],
                    pair_ids=(i_idx, j_idx), tier=tier,
                )
                pair_forces = coeff[:, None] * delta
                local = np.zeros((len(rows), 3))
                scatter_force_owned(
                    local, i_idx - rows[0], pair_forces, len(rows), tier=tier
                )
                forces[rows] = local

            return run

        with self._span(
            "force:doubled-pairs", phase="force", n_chunks=len(chunks)
        ):
            self.backend.run_phase(
                [force_task(rows) for rows in chunks if len(rows)]
            )

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
        # full list: twice the directed pairs of the half list
        pairs_per_thread = 2.0 * stats.n_half_pairs / max(n_threads, 1)
        per_chunk = stats.n_atoms / max(n_threads, 1)
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
                locality=stats.locality,
            ),
        ]
        return SimPlan(name=self.name, phases=phases, n_parallel_regions=3)

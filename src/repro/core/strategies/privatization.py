"""Shared Array Privatization (SAP) strategy — the taxonomy's class 2.

Each thread accumulates into a *private copy* of the reduction array, then
the copies are merged into the shared array under a critical section.
Minimal synchronization during compute, but memory overhead grows linearly
with the thread count (the paper: competes for cache space, merge critical
section dominates beyond 8 cores, "not a scalable method").
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies.base import ReductionStrategy
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPhase, SimPlan, embedding_phase, uniform_phase
from repro.parallel.workload import WorkloadStats

#: entries merged per critical-section entry in the merge loop
MERGE_CHUNK_ENTRIES = 4096


class ArrayPrivatizationStrategy(ReductionStrategy):
    """Per-thread private reduction arrays, merged under a critical section.

    Layout: the half list split by atom rows.  Write mode: both endpoints,
    into worker ``k``'s private copy; the copies are summed once the
    region's last task is done.
    """

    name = "array-privatization"
    write_mode = "private-scatter"

    def _array(self, name, shape):
        # one copy per worker, instrumented as one shadow: each task may only
        # write its own copy, so the detector sees disjoint flat ranges when
        # SAP is correct
        return super()._array(f"{name}_private", (self.n_threads, *shape))

    def _merge(self, kind, accumulator):
        # in thread order (the real code merges under a critical section;
        # fixed order keeps results deterministic)
        with self._span(f"{kind}:merge", phase=kind, n_copies=self.n_threads):
            return np.asarray(accumulator).sum(axis=0)

    def _density_slice(
        self, tier, potential, positions, box, i_idx, j_idx, rho, handover,
        k, rows,
    ) -> float:
        return tier.density_slice(
            potential, positions, box, i_idx, j_idx, rho[k], handover
        )

    def _force_slice(
        self, tier, i_idx, j_idx, fp, handover, forces, k, rows
    ) -> None:
        tier.force_slice(i_idx, j_idx, fp, handover, forces[k])

    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int,
    ) -> SimPlan:
        pairs_per_thread = stats.n_half_pairs / max(n_threads, 1)
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
        phases.append(embedding_phase(stats, machine, n_threads))
        privatized_region(
            "force",
            machine.cycles_pair_force_compute,
            machine.cycles_pair_force_memory,
            entries_per_copy=3 * stats.n_atoms,
        )
        return SimPlan(name=self.name, phases=phases, n_parallel_regions=3)

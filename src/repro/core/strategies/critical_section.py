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

from repro.core.strategies.base import ReductionStrategy
from repro.parallel.backends.base import ExecutionBackend
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPlan, embedding_phase, uniform_phase
from repro.parallel.workload import WorkloadStats


class CriticalSectionStrategy(ReductionStrategy):
    """Every conflicting scatter guarded by one global critical section.

    Layout: the half list split by atom rows.  Write mode: both endpoints,
    in place, under the lock — held around the scatter only, not the pair
    arithmetic.
    """

    name = "critical-section"
    # overlapping writes are the point — they are serialized by the lock
    lock_free = False
    write_mode = "critical-scatter"

    def __init__(
        self,
        n_threads: int = 1,
        backend: Optional[ExecutionBackend] = None,
        pairs_per_critical: int = 1,
    ) -> None:
        super().__init__(n_threads, backend)
        if pairs_per_critical < 1:
            raise ValueError("pairs_per_critical must be >= 1")
        #: how many pairs' updates one critical entry covers (1 = the
        #: paper's per-update locking; larger values model coarsening)
        self.pairs_per_critical = pairs_per_critical
        self._lock = threading.Lock()

    def _density_slice(
        self, tier, potential, positions, box, i_idx, j_idx, rho, handover,
        k, rows,
    ) -> float:
        phi, pair_energy = tier.pair_pass(
            potential, positions, box, i_idx, j_idx, handover
        )
        with self._lock:
            with self._span("density:lock-held", n_pairs=len(i_idx)):
                tier.scatter_rho_half(rho, i_idx, j_idx, phi)
        return pair_energy

    def _force_slice(
        self, tier, i_idx, j_idx, fp, handover, forces, k, rows
    ) -> None:
        pair_forces = tier.pair_forces(i_idx, j_idx, fp, handover)
        with self._lock:
            with self._span("force:lock-held", n_pairs=len(i_idx)):
                tier.scatter_force_half(forces, i_idx, j_idx, pair_forces)

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
            embedding_phase(stats, machine, n_threads),
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

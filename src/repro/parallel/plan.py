"""Execution plans: what a strategy asks the (simulated) runtime to do.

A :class:`SimPlan` is the strategy-agnostic intermediate representation
between "how a reduction strategy organizes the EAM computation" and "how
long that takes on a machine".  Each :class:`SimPhase` corresponds to one
OpenMP worksharing construct (a ``#pragma omp for`` over its tasks,
terminated by the implicit barrier); phases execute in order.  Parallel
*regions* (fork-join boundaries) group consecutive phases.

Phases store their task costs as parallel NumPy arrays (one slot per task)
so plans with tens of thousands of subdomain tasks — the paper's large
cases under 3-D decomposition — stay cheap to build and simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


def _as_task_array(values, n_tasks: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n_tasks, float(arr))
    if arr.shape != (n_tasks,):
        raise ValueError(f"{name} must have shape ({n_tasks},), got {arr.shape}")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    return arr


@dataclass(frozen=True)
class SimPhase:
    """One worksharing construct: ``n_tasks`` iterations over threads.

    Per-task cost arrays (scalar broadcasts to all tasks):

    * ``compute`` — cycles immune to memory effects.
    * ``memory`` — cycles of cache/memory traffic; the simulator scales
      these by bandwidth contention, data-layout locality, and the task's
      working-set fit.
    * ``critical_ops`` — critical-section entries (scatter updates under a
      lock for CS, merge chunks for SAP); their serialized cost is charged
      phase-wide.
    * ``serialized`` — cycles that run while *holding* the lock (SAP's
      private-array merge).
    * ``working_set`` — resident bytes the task touches repeatedly
      (subdomain + halo arrays); drives the slab-vs-column cache effect.

    Phase-level attributes:

    * ``barrier`` — the implicit end-of-worksharing barrier (``nowait``
      phases skip its cost).
    * ``locality`` — data-layout score in (0, 1] for the phase's irregular
      accesses (see :func:`repro.core.reorder.locality_score`).
    * ``footprint_bytes`` — aggregate machine-wide array footprint active
      during the phase (SAP's replicated copies); 0 = nothing unusual.
    """

    name: str
    compute: np.ndarray
    memory: np.ndarray
    critical_ops: np.ndarray
    serialized: np.ndarray
    working_set: np.ndarray
    barrier: bool = True
    locality: float = 1.0
    footprint_bytes: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.locality <= 1.0:
            raise ValueError("locality must be in (0, 1]")
        if self.footprint_bytes < 0:
            raise ValueError("footprint_bytes must be non-negative")
        n = len(np.atleast_1d(self.compute))
        for name in ("compute", "memory", "critical_ops", "serialized", "working_set"):
            object.__setattr__(
                self, name, _as_task_array(getattr(self, name), n, name)
            )

    @staticmethod
    def make(
        name: str,
        n_tasks: int,
        compute=0.0,
        memory=0.0,
        critical_ops=0.0,
        serialized=0.0,
        working_set=0.0,
        barrier: bool = True,
        locality: float = 1.0,
        footprint_bytes: float = 0.0,
    ) -> "SimPhase":
        """Build a phase from scalars or per-task arrays."""
        if n_tasks < 0:
            raise ValueError("n_tasks must be >= 0")
        return SimPhase(
            name=name,
            compute=_as_task_array(compute, n_tasks, "compute"),
            memory=_as_task_array(memory, n_tasks, "memory"),
            critical_ops=_as_task_array(critical_ops, n_tasks, "critical_ops"),
            serialized=_as_task_array(serialized, n_tasks, "serialized"),
            working_set=_as_task_array(working_set, n_tasks, "working_set"),
            barrier=barrier,
            locality=locality,
            footprint_bytes=footprint_bytes,
        )

    @property
    def n_tasks(self) -> int:
        """Number of schedulable iterations in the phase."""
        return len(self.compute)

    def total_compute(self) -> float:
        """Sum of task compute cycles."""
        return float(self.compute.sum())

    def total_memory(self) -> float:
        """Sum of task (uninflated) memory cycles."""
        return float(self.memory.sum())

    def total_critical_ops(self) -> float:
        """Sum of task critical entries."""
        return float(self.critical_ops.sum())

    def total_serialized(self) -> float:
        """Sum of task lock-held cycles."""
        return float(self.serialized.sum())


@dataclass(frozen=True)
class SimPlan:
    """A full force-evaluation plan: ordered phases + region structure.

    Attributes
    ----------
    n_parallel_regions:
        fork-join boundaries per evaluation (the paper discusses how
        1-D/2-D/3-D SDC differ in fork-join/scheduling overhead).
    serial_overheads:
        True for the serial baseline plan: the simulator charges no
        fork-join, phase, or contention costs regardless of thread count.
    """

    name: str
    phases: List[SimPhase] = field(default_factory=list)
    n_parallel_regions: int = 0
    serial_overheads: bool = False

    def __post_init__(self) -> None:
        if self.n_parallel_regions < 0:
            raise ValueError("n_parallel_regions must be >= 0")

    def total_compute(self) -> float:
        """Machine-independent total compute cycles."""
        return sum(p.total_compute() for p in self.phases)

    def total_memory(self) -> float:
        """Machine-independent total (uninflated) memory cycles."""
        return sum(p.total_memory() for p in self.phases)

    def n_tasks(self) -> int:
        """Total task count across phases."""
        return sum(p.n_tasks for p in self.phases)


def uniform_phase(
    name: str,
    n_tasks: int,
    compute_per_task: float = 0.0,
    memory_per_task: float = 0.0,
    critical_per_task: float = 0.0,
    serialized_per_task: float = 0.0,
    working_set_bytes: float = 0.0,
    barrier: bool = True,
    locality: float = 1.0,
    footprint_bytes: float = 0.0,
) -> SimPhase:
    """Convenience constructor for a phase of identical tasks.

    Used for embarrassingly parallel loops (the embedding phase, per-thread
    chunks of a flat atom loop) where per-task variation is irrelevant.
    """
    return SimPhase.make(
        name=name,
        n_tasks=n_tasks,
        compute=compute_per_task,
        memory=memory_per_task,
        critical_ops=critical_per_task,
        serialized=serialized_per_task,
        working_set=working_set_bytes,
        barrier=barrier,
        locality=locality,
        footprint_bytes=footprint_bytes,
    )


def embedding_phase(stats, machine, n_threads: int) -> SimPhase:
    """The embedding region of every parallel strategy: a plain parallel
    for over ``n_threads`` equal chunks of ``stats.n_atoms`` atoms, costed
    by ``machine``'s per-atom embedding cycles."""
    per_chunk = stats.n_atoms / max(n_threads, 1)
    return uniform_phase(
        "embedding",
        n_tasks=n_threads,
        compute_per_task=per_chunk * machine.cycles_atom_embed_compute,
        memory_per_task=per_chunk * machine.cycles_atom_embed_memory,
        locality=stats.locality,
    )

"""Strategy interface and shared kernel plumbing.

A :class:`ReductionStrategy` does two things:

* :meth:`compute` — actually evaluate the 3-phase EAM computation on a
  real system, organizing the irregular reductions the way the strategy
  prescribes (this is what the equivalence tests compare against the
  serial kernels);
* :meth:`plan` — describe that organization as a
  :class:`~repro.parallel.plan.SimPlan` so the simulated machine can time
  it at any core count (this is what regenerates the paper's tables).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Optional

import numpy as np

from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.obs.tracer import TracingObserver, span_of
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPlan
from repro.parallel.workload import WorkloadStats
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation, pair_geometry


class ReductionStrategy(ABC):
    """One way of parallelizing the EAM irregular reductions."""

    #: registry key, e.g. ``"sdc"`` or ``"critical-section"``
    name: ClassVar[str] = "abstract"

    #: whether the strategy relies on disjoint write sets (True) or on
    #: explicit synchronization of overlapping writes (False).  The
    #: dynamic race detector treats same-phase overlaps as failures only
    #: for lock-free strategies.
    lock_free: ClassVar[bool] = True

    #: optional write instrument (e.g. the racecheck recorder); when set,
    #: :meth:`_array` hands out shadow-wrapped reduction arrays.
    _instrument = None

    #: optional pinned kernel tier; when set, every kernel call this
    #: strategy makes goes to it explicitly instead of the process-global
    #: active tier — the concurrency-safe selection path (two strategies
    #: on different threads cannot clobber each other's tier).
    _kernel_tier = None

    #: optional span tracer; when set, :meth:`_span` records the
    #: strategy's phase regions and merge/scatter/lock sections as spans
    _tracer = None
    _tracing_observer = None

    def attach_tracer(self, tracer) -> None:
        """Record timeline spans through ``tracer``.

        Adds a :class:`~repro.obs.tracer.TracingObserver` to the
        strategy's backend (when it has one) so every backend task shows
        up on its worker's track, alongside the strategy-level region
        spans from :meth:`_span`.
        """
        self._tracer = tracer
        backend = getattr(self, "backend", None)
        if backend is not None:
            self._tracing_observer = TracingObserver(tracer)
            backend.add_observer(self._tracing_observer)

    def detach_tracer(self) -> None:
        """Stop tracing (idempotent)."""
        self._tracer = None
        backend = getattr(self, "backend", None)
        if backend is not None and self._tracing_observer is not None:
            backend.remove_observer(self._tracing_observer)
        self._tracing_observer = None

    def _span(self, name: str, **args):
        """Context manager recording a span (no-op when untraced).

        ``phase="density"`` (or another canonical phase name) tags the
        span as counting toward that phase's wall-clock.
        """
        return span_of(self._tracer, name, **args)

    def set_kernel_tier(self, tier) -> None:
        """Pin this strategy's kernel tier (None reverts to the process
        default).

        Accepts anything :func:`repro.kernels.get` accepts — a variant
        spec string, a :class:`~repro.kernels.KernelTierConfig`, or a
        live tier.  Resolution is eager so unknown specs raise here.
        """
        from repro import kernels

        self._kernel_tier = kernels.get(tier) if tier is not None else None

    def _tier(self):
        """The tier this strategy's kernel calls dispatch to."""
        from repro import kernels

        return (
            self._kernel_tier
            if self._kernel_tier is not None
            else kernels.active_tier()
        )

    @property
    def kernel_tier(self) -> str:
        """Resolved tier name this strategy computes with."""
        return self._tier().name

    def attach_instrument(self, recorder) -> None:
        """Record reduction-array writes through ``recorder``.

        ``recorder`` must expose ``wrap(name, array) -> ndarray``
        (see :class:`repro.analysis.racecheck.WriteRecorder`).
        """
        self._instrument = recorder

    def detach_instrument(self) -> None:
        """Stop instrumenting new reduction arrays (idempotent)."""
        self._instrument = None

    def _array(self, name: str, shape) -> np.ndarray:
        """Allocate a zeroed reduction array, shadow-wrapped when
        an instrument is attached."""
        array = np.zeros(shape)
        if self._instrument is None:
            return array
        return self._instrument.wrap(name, array)

    def close(self) -> None:
        """Release the strategy's execution backend (idempotent).

        Lets a strategy be torn down uniformly with the process-backed
        calculators (``Simulation.close`` calls this duck-typed).
        """
        backend = getattr(self, "backend", None)
        if backend is not None:
            backend.close()

    def __enter__(self) -> "ReductionStrategy":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @abstractmethod
    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        """Evaluate densities, embedding and forces; update ``atoms``."""

    @abstractmethod
    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int,
    ) -> SimPlan:
        """Build the execution plan the simulator times."""

    # --- shared helpers -------------------------------------------------------

    def _total_pair_energy(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> float:
        """Pair-energy sum (not part of the timed kernels; shared by all)."""
        i_idx, j_idx = nlist.pair_arrays()
        if len(i_idx) == 0:
            return 0.0
        _, r = pair_geometry(
            atoms.positions, atoms.box, i_idx, j_idx, tier=self._tier()
        )
        v = potential.pair_energy(r)
        return float(np.sum(v)) * (1.0 if nlist.half else 0.5)

    @staticmethod
    def _finalize(
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
        rho: np.ndarray,
        fp: np.ndarray,
        forces: np.ndarray,
        embedding_energy: float,
        pair_energy: float,
    ) -> EAMComputation:
        """Store results into ``atoms`` and wrap them up."""
        # drop any shadow instrumentation before results leave the strategy
        rho = np.asarray(rho)
        fp = np.asarray(fp)
        forces = np.asarray(forces)
        atoms.rho[:] = rho
        atoms.fp[:] = fp
        atoms.forces[:] = forces
        return EAMComputation(
            pair_energy=pair_energy,
            embedding_energy=embedding_energy,
            rho=rho,
            fp=fp,
            forces=forces,
        )


def atom_chunks(n_atoms: int, n_chunks: int) -> list[np.ndarray]:
    """Contiguous near-equal atom-row chunks (OpenMP static over atoms)."""
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    base = n_atoms // n_chunks
    extra = n_atoms % n_chunks
    out = []
    start = 0
    for k in range(n_chunks):
        size = base + (1 if k < extra else 0)
        out.append(np.arange(start, start + size, dtype=np.int64))
        start += size
    return out


def rows_pair_slice(
    nlist: NeighborList, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(i, j)`` pair arrays for the rows of a chunk of atoms."""
    offsets = nlist.csr.offsets
    lengths = nlist.csr.row_lengths()
    from repro.md.neighbor.cells import concat_ranges

    slots = concat_ranges(offsets[rows], lengths[rows])
    i_idx = np.repeat(rows, lengths[rows])
    return i_idx, nlist.csr.values[slots]

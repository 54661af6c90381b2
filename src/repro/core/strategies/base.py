"""Strategy interface and shared kernel plumbing.

A :class:`ReductionStrategy` does two things:

* :meth:`compute` — actually evaluate the 3-phase EAM computation on a
  real system (this is what the equivalence tests compare against the
  serial kernels).  The three-region body of the paper's Figs. 7-8 is
  written once, here; a strategy supplies what the paper says
  distinguishes it — its *layout* (which worker runs which contiguous pair
  range in which phase) and its *write mode* (where a task may write);
* :meth:`plan` — describe that organization as a
  :class:`~repro.parallel.plan.SimPlan` so the simulated machine can time
  it at any core count (this is what regenerates the paper's tables).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.sdc_plan import RowBlockLayout, row_block_layout
from repro.kernels.base import handover_arrays
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.obs.tracer import TracingObserver, span_of
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPlan
from repro.parallel.workload import WorkloadStats
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation
from repro.utils.identity import IdentityKey

if TYPE_CHECKING:
    from repro.parallel.backends.base import ExecutionBackend


class ReductionStrategy(ABC):
    """One way of parallelizing the EAM irregular reductions."""

    #: registry key, e.g. ``"sdc"`` or ``"critical-section"``
    name: ClassVar[str] = "abstract"

    #: whether the strategy relies on disjoint write sets (True) or on
    #: explicit synchronization of overlapping writes (False).  The
    #: dynamic race detector treats same-phase overlaps as failures only
    #: for lock-free strategies.
    lock_free: ClassVar[bool] = True

    #: the write mode, as it names the strategy's pair-region spans
    #: (``density:<write_mode>`` / ``force:<write_mode>``)
    write_mode: ClassVar[str] = "scatter"

    #: weight of one stored pair in the pair energy (a doubled list holds
    #: every pair twice)
    pair_energy_scale: ClassVar[float] = 1.0

    #: optional write instrument (e.g. the racecheck recorder); when set,
    #: :meth:`_array` hands out shadow-wrapped reduction arrays.
    _instrument = None

    #: optional span tracer; when set, :meth:`_span` records the
    #: strategy's phase regions and merge/scatter/lock sections as spans
    _tracer = None
    _tracing_observer = None

    def __init__(
        self,
        n_threads: int = 1,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        # the backends package imports the SDC strategy, hence this module
        from repro.parallel.backends.serial import SerialBackend

        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        #: width of the static schedule: every phase runs ``n_threads``
        #: tasks, task ``k`` owning worker ``k``'s contiguous pair range
        self.n_threads = n_threads
        self.backend = backend or SerialBackend()
        self._layout_source = IdentityKey()
        self._row_block_layout: Optional[RowBlockLayout] = None

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
        """Allocate a zeroed reduction array — what a region's tasks write
        into — shadow-wrapped when an instrument is attached."""
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

    # --- the three-region body (paper Figs. 7-8) ---------------------------------

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        """Evaluate densities, embedding and forces; update ``atoms``.

        Density region, embedding, force region — each pair region one
        ``run_phase`` per layout phase, one task per worker over its
        contiguous pair range.  One geometry pass and one potential call
        per pair: a range's density task leaves its ``(delta, r, phi',
        V')`` in the hand-over arrays and the same range's force task
        reads them back after the density region's last barrier.
        """
        nlist.check_covers(atoms.n_atoms)
        layout = self._layout(atoms, nlist)
        tier = kernels.active_tier()
        positions, box, n = atoms.positions, atoms.box, atoms.n_atoms
        pair_i, pair_j = layout.pair_i, layout.pair_j
        workers = range(self.n_threads)
        n_phases = len(layout.tasks[0])
        handover = handover_arrays(len(pair_i))
        pair_parts = np.zeros((self.n_threads, n_phases))

        def pair_region(kind: str, task) -> None:
            for phase in range(n_phases):
                with self._phase_span(kind, phase, layout):
                    self.backend.run_phase([task(k, phase) for k in workers])

        def task_views(k: int, phase: int):
            """Worker ``k``'s range of ``phase``: its pairs, its hand-over."""
            lo, hi = layout.tasks[k][phase]
            return pair_i[lo:hi], pair_j[lo:hi], [a[lo:hi] for a in handover]

        rho_target = self._array("rho", (n,))

        def density_task(k: int, phase: int):
            i_idx, j_idx, handed = task_views(k, phase)

            def run() -> None:
                if len(i_idx):
                    pair_parts[k, phase] = self._density_slice(
                        tier, potential, positions, box, i_idx, j_idx,
                        rho_target, handed, k, layout.rows[k],
                    )

            return run

        pair_region("density", density_task)
        rho = self._merge("density", rho_target)

        # embedding: plain parallel for over contiguous atom rows
        fp = np.empty(n)
        emb_parts = np.zeros(self.n_threads)

        def embed_task(k: int):
            lo, hi = layout.rows[k]

            def run() -> None:
                emb_parts[k] = float(np.sum(potential.embed(rho[lo:hi])))
                fp[lo:hi] = potential.embed_deriv(rho[lo:hi])

            return run

        with self._span("embedding", phase="embedding", n_chunks=self.n_threads):
            self.backend.run_phase([embed_task(k) for k in workers])

        force_target = self._array("forces", (n, 3))

        def force_task(k: int, phase: int):
            i_idx, j_idx, handed = task_views(k, phase)

            def run() -> None:
                if len(i_idx):
                    self._force_slice(
                        tier, i_idx, j_idx, fp, handed,
                        force_target, k, layout.rows[k],
                    )

            return run

        pair_region("force", force_task)
        forces = self._merge("force", force_target)

        return self._finalize(
            potential, atoms, nlist, rho, fp, forces,
            float(np.sum(emb_parts)),
            float(np.sum(pair_parts)) * self.pair_energy_scale,
        )

    # --- what a strategy supplies: its layout ... -------------------------------

    def _layout(self, atoms: Atoms, nlist: NeighborList):
        """Who runs which pairs when: any object with ``pair_i``,
        ``pair_j``, ``tasks[k][phase] = (lo, hi)`` and ``rows[k] = (lo,
        hi)``.  Default: the half list as it is, split by atom rows."""
        if not nlist.half:
            raise ValueError(f"{self.name} consumes half neighbor lists")
        return self._row_blocks(nlist)

    def _row_blocks(self, nlist: NeighborList, expand=None) -> RowBlockLayout:
        """``nlist`` — or the list ``expand`` makes of it — split by atom
        rows over ``n_threads`` workers, rebuilt only when ``nlist`` changed."""
        if not self._layout_source.matches(nlist):
            self._row_block_layout = row_block_layout(
                expand(nlist) if expand else nlist, self.n_threads
            )
            self._layout_source.set(nlist)
        return self._row_block_layout

    def _phase_span(self, kind: str, phase: int, layout):
        """The span around one phase of the ``kind`` pair region."""
        return self._span(
            f"{kind}:{self.write_mode}", phase=kind, n_chunks=self.n_threads
        )

    # --- ... and its write mode ---------------------------------------------------

    def _merge(self, kind: str, accumulator: np.ndarray) -> np.ndarray:
        """The reduced array, once the ``kind`` region's last task is done."""
        return accumulator

    def _density_slice(
        self, tier, potential, positions, box, i_idx, j_idx, rho, handover,
        k: int, rows: Tuple[int, int],
    ) -> float:
        """Worker ``k``'s density task over one pair range (``rows`` its
        block of atom rows): the pair pass, ``phi`` written the strategy's
        way, the range's pair-energy partial sum returned.  Default: both
        endpoints, in place."""
        return tier.density_slice(
            potential, positions, box, i_idx, j_idx, rho, handover
        )

    def _force_slice(
        self, tier, i_idx, j_idx, fp, handover, forces,
        k: int, rows: Tuple[int, int],
    ) -> None:
        """The force task of the range :meth:`_density_slice` handed over."""
        tier.force_slice(i_idx, j_idx, fp, handover, forces)

    @abstractmethod
    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int,
    ) -> SimPlan:
        """Build the execution plan the simulator times."""

    # --- shared helpers -------------------------------------------------------

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

"""Persistent process-parallel SDC: forked workers over a shared arena.

Python's GIL caps what :class:`~repro.parallel.backends.threads.ThreadBackend`
can demonstrate; this module runs the SDC color phases across *processes*,
the closest Python analog of the paper's OpenMP threads:

* all exchanged arrays — positions, the pair partition's CSR, and the
  reduction targets (rho, embedding derivatives, forces) — live in one
  anonymous shared mapping, inherited by every worker;
* within a color phase, workers scatter concurrently **without any
  locks** — legal for exactly the reason the paper gives: same-color
  subdomains have disjoint write sets (different array elements, no torn
  updates);
* collecting the phase's replies is the implicit barrier between colors.

The engine is *persistent*, honoring the paper's amortization argument
("steps 1 and 2 will be done when the neighbor list is created or
updated", Section II.D) the same way the threaded path does.  Workers,
arena, respawn and retry are the shared core in
:mod:`repro.parallel.backends.workers`; this calculator is its one-region
configuration: ``n_workers`` workers over a single arena region, chunk
``k`` of a color phase sent to worker ``k``.  What it adds on top:

* the decomposition (grid / pair partition / color schedule) cached on
  neighbor-list identity, mirroring ``SDCStrategy._prepare`` — so a
  steady-state step pays only kernel + barrier cost plus one positions
  memcpy and the zero fills (the ``sync`` phase);
* the color loop (density color by color, embedding in the parent, force
  color by color) with worker-chunk, phase and barrier-wait spans;
* optional write-set recording for the dynamic race detector.

Robustness: a worker killed or hung mid-phase surfaces as
:class:`~repro.parallel.backends.base.BackendError` (never a hang, never
partial scatters — the whole evaluation restarts from the ``sync`` zero
fill), and ``compute`` transparently respawns the workers and retries
once.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.coloring import lattice_coloring, validate_coloring
from repro.core.domain import SubdomainGrid, decompose, decompose_balanced
from repro.core.partition import (
    PairPartition,
    build_pair_partition,
    build_partition,
)
from repro.core.schedule import ColorSchedule, build_schedule, static_assignment
from repro.geometry.box import Box
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends.workers import (
    DEFAULT_PHASE_TIMEOUT_S,
    ChunkWorker,
    SharedArena,
    WorkerEngine,
    WorkerTiming,
    count_health,
)
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation
from repro.utils.identity import IdentityKey


def _same_box(a: Optional[Box], b: Box) -> bool:
    return a is not None and np.array_equal(
        a.lengths, b.lengths
    ) and np.array_equal(a.periodic, b.periodic)


class ProcessSDCCalculator(WorkerEngine):
    """SDC force computation on persistent forked workers.

    Satisfies the :class:`~repro.md.simulation.ForceCalculator` protocol.
    Requires a platform with the ``fork`` start method (Linux).

    Lifecycle: workers and the shared arena are created lazily on the
    first ``compute`` and reused across calls; ``close()`` (or the
    context-manager exit) releases both.  A closed calculator revives on
    the next ``compute``.  Worker death or a hung worker raises
    :class:`~repro.parallel.backends.base.BackendError` after one
    transparent respawn + retry (``restart_on_failure=False`` disables
    the retry).
    """

    name = "sdc-processes"

    def __init__(
        self,
        dims: int = 2,
        n_workers: int = 2,
        axes: Optional[Sequence[int]] = None,
        adaptive: bool = True,
        record_writes: bool = False,
        restart_on_failure: bool = True,
        kernel_tier: "kernels.TierSpec" = None,
    ) -> None:
        if dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError("ProcessSDCCalculator requires fork support")
        super().__init__(
            kernel_tier, DEFAULT_PHASE_TIMEOUT_S, restart_on_failure, inline=False
        )
        self.dims = dims
        self.n_workers = n_workers
        self.axes = list(axes) if axes is not None else None
        self.adaptive = adaptive
        #: when True, workers shadow their shared-array views and ship the
        #: flat write indices back; ``last_write_record`` then holds one
        #: ``(kind, per_chunk_write_sets)`` entry per color phase for the
        #: dynamic race detector (repro.analysis.racecheck)
        self.record_writes = record_writes
        self.last_write_record: List[Tuple[str, List[List[int]]]] = []
        self._trace_phase = 0
        # decomposition cache, keyed on neighbor-list identity (mirrors
        # SDCStrategy._prepare)
        self._cached_nlist = IdentityKey()
        self._grid: Optional[SubdomainGrid] = None
        self._pairs: Optional[PairPartition] = None
        self._schedule: Optional[ColorSchedule] = None
        # the box the current epoch was published with, and the parent's
        # views of the arena region sliced to that epoch
        self._box: Optional[Box] = None
        self._arrays: Dict[str, np.ndarray] = {}

    # --- engine hooks ----------------------------------------------------------

    def _make_handlers(self, arena: SharedArena, potential, tier):
        return [
            ChunkWorker(arena, 0, potential, tier, self.record_writes)
            for _ in range(self.n_workers)
        ]

    def _region_sizes(self) -> List[Tuple[int, int, int]]:
        pairs = self._pairs
        return [
            (pairs.partition.n_atoms, pairs.n_pairs, self._grid.n_subdomains)
        ]

    def _publish_epoch(self) -> None:
        """Write the pair CSR into the arena; workers re-slice their views."""
        (size,) = self._region_sizes()
        self._arrays = self._live.arena.region(0, size)
        self._arrays["pair_i"][:] = self._pairs.i_idx
        self._arrays["pair_j"][:] = self._pairs.j_idx
        self._arrays["pair_offsets"][:] = self._pairs.offsets
        payload = {"size": size, "box": self._box, "order": (), "n_owned": 0}
        self._live.group.run("epoch", [payload] * self.n_workers)

    def _forget(self) -> None:
        self._arrays = {}
        self._box = None
        self._cached_nlist.clear()
        self._pairs = None
        self._schedule = None
        self._grid = None

    def health_snapshot(self) -> Dict[str, object]:
        """Engine lifecycle state for :meth:`HealthMonitor.snapshot`."""
        return {
            **self._lifecycle_snapshot(),
            "pool_live": self._live.group is not None,
            "n_workers": self.n_workers,
            "decomposition_cached": self._pairs is not None,
        }

    # --- observability ---------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Record timeline spans (incl. worker-side chunks) into *tracer*.

        Worker chunks ship their ``perf_counter`` origin back with their
        results; the parent aligns them into its own clock domain
        (:func:`repro.obs.tracer.align_worker_spans`) and lays each worker
        out on a ``worker-<pid>`` track.
        """
        super().attach_tracer(tracer)
        self._trace_phase = 0

    def _trace_chunks(
        self,
        label: str,
        results: Sequence[Tuple[float, object, WorkerTiming, float]],
        window_start: float,
        window_end: float,
    ) -> None:
        """Align worker chunk timings into the parent timeline as spans."""
        from repro.obs.tracer import (
            CAT_BARRIER,
            CAT_PHASE,
            CAT_TASK,
            Span,
            align_worker_spans,
        )

        phase = self._trace_phase
        self._trace_phase += 1
        for task, (elapsed, _, timing, _) in enumerate(results):
            pid = int(timing["pid"])
            raw = Span(
                name=f"{label}:chunk",
                category=CAT_TASK,
                start_s=timing["origin"],
                duration_s=elapsed,
                pid=pid,
                track=f"worker-{pid}",
                args={"phase": phase, "task": task},
            )
            (span,) = align_worker_spans(
                [raw], timing["origin"], window_start, window_end
            )
            self._tracer.record(span)
            wait = window_end - span.end_s
            if wait > 0.0:
                self._tracer.record(
                    Span(
                        name="barrier-wait",
                        category=CAT_BARRIER,
                        start_s=span.end_s,
                        duration_s=wait,
                        pid=pid,
                        track=span.track,
                        args={"phase": phase},
                    )
                )
        self._tracer.add(
            f"{label}/phase{phase}",
            CAT_PHASE,
            window_start,
            window_end - window_start,
            phase=phase,
            n_tasks=len(results),
        )

    # --- decomposition cache ---------------------------------------------------

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> bool:
        """(Re)build grid/partition/coloring when the neighbor list changed.

        Matches the paper: "steps 1 and 2 will be done when the neighbor
        list is created or updated".  Returns True when a rebuild happened
        (the pair CSR must then be republished to the arena).
        """
        if self._cached_nlist.matches(nlist) and self._pairs is not None:
            count_health("sdc_decomp_cache_hit")
            return False
        count_health("sdc_decomp_cache_miss")
        reach = nlist.cutoff + nlist.skin
        if self.adaptive:
            grid = decompose_balanced(
                atoms.box, reach, self.dims, self.n_workers, axes=self.axes
            )
        else:
            grid = decompose(atoms.box, reach, self.dims, axes=self.axes)
        coloring = lattice_coloring(grid)
        validate_coloring(grid, coloring)
        partition = build_partition(nlist.reference_positions, grid)
        self._pairs = build_pair_partition(partition, nlist)
        self._schedule = build_schedule(coloring)
        self._grid = grid
        self._cached_nlist.set(nlist)
        return True

    @property
    def grid(self) -> Optional[SubdomainGrid]:
        """The cached decomposition (None before the first compute)."""
        return self._grid

    @property
    def pair_partition(self) -> Optional[PairPartition]:
        """The cached pair partition (None before the first compute)."""
        return self._pairs

    @property
    def schedule(self) -> Optional[ColorSchedule]:
        """The cached color schedule (None before the first compute)."""
        return self._schedule

    # --- phase execution -------------------------------------------------------

    def _run_color_phase(
        self, kind: str, chunks: Sequence[Sequence[int]], label: str
    ) -> Tuple[List[Optional[List[int]]], float]:
        """One color phase: chunk ``k`` to worker ``k``, barrier on the replies.

        Returns the per-chunk write records (for the race detector) and
        the sum of the chunks' pair-energy partials (non-zero only for
        density phases).

        A worker dying or hanging mid-phase raises :class:`BackendError`
        after every other reply was collected — the engine core then
        restarts the whole evaluation (the zeroed arrays make that safe)
        or propagates.
        """
        start = time.perf_counter()
        results = self._live.group.run(kind, chunks)
        if self._tracer is not None and results:
            self._trace_chunks(label, results, start, time.perf_counter())
        writes = [chunk_writes for _, chunk_writes, _, _ in results]
        energy = sum(partial for _, _, _, partial in results)
        return writes, energy

    def _scatter_phases(self, potential: EAMPotential) -> Tuple[float, float]:
        """Density → embedding → force; returns ``(E_embed, E_pair)``.

        The pair energy is assembled from the density workers' partial
        sums — they already hold each pair's distance, so the parent
        never recomputes pair geometry serially.
        """
        assert self._schedule is not None
        schedule = self._schedule
        rho = self._arrays["rho"]
        fp = self._arrays["fp"]
        self.last_write_record = []
        pair_energy = 0.0
        # phase 1: densities, color by color
        for color, members in enumerate(schedule.phases):
            chunks = [
                members[c].tolist()
                for c in static_assignment(len(members), self.n_workers)
                if len(c)
            ]
            with self._span(
                f"density:color{color}",
                phase="density",
                color=color,
                n_subdomains=len(members),
            ):
                writes, partial = self._run_color_phase(
                    "density", chunks, f"density:color{color}"
                )
                pair_energy += partial
            if self.record_writes:
                self.last_write_record.append(("density", writes))
        # phase 2: embedding in the parent (no dependences)
        with self._span("embedding", phase="embedding"):
            embedding_energy = float(np.sum(potential.embed(rho)))
            fp[:] = potential.embed_deriv(rho)
        # phase 3: forces, color by color
        for color, members in enumerate(schedule.phases):
            chunks = [
                members[c].tolist()
                for c in static_assignment(len(members), self.n_workers)
                if len(c)
            ]
            with self._span(
                f"force:color{color}",
                phase="force",
                color=color,
                n_subdomains=len(members),
            ):
                writes, _ = self._run_color_phase(
                    "force", chunks, f"force:color{color}"
                )
            if self.record_writes:
                self.last_write_record.append(("force", writes))
        return embedding_energy, pair_energy

    # --- the ForceCalculator protocol -----------------------------------------

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        if not nlist.half:
            raise ValueError("SDC consumes half neighbor lists")
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            if self._prepare(atoms, nlist) or not _same_box(self._box, atoms.box):
                self._box = atoms.box
                self._new_epoch()

        def once() -> Tuple[float, float]:
            # sync: in-place state refresh — the whole per-step setup cost
            # of the persistent engine
            with self._span("sync", phase="sync"):
                self._arrays["positions"][:] = atoms.positions
                self._arrays["rho"][:] = 0.0
                self._arrays["fp"][:] = 0.0
                self._arrays["forces"][:] = 0.0
            return self._scatter_phases(potential)

        embedding_energy, pair_energy = self._evaluate(potential, once)
        result = EAMComputation(
            pair_energy=pair_energy,
            embedding_energy=embedding_energy,
            rho=self._arrays["rho"].copy(),
            fp=self._arrays["fp"].copy(),
            forces=self._arrays["forces"].copy(),
        )
        atoms.rho[:] = result.rho
        atoms.fp[:] = result.fp
        atoms.forces[:] = result.forces
        return result

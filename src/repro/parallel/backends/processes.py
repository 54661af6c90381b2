"""Persistent process-parallel SDC: forked workers over a shared arena.

Python's GIL caps what :class:`~repro.parallel.backends.threads.ThreadBackend`
can demonstrate; this module runs the SDC color phases across *processes*,
the closest Python analog of the paper's OpenMP threads:

* all exchanged arrays — positions, the pair list, and the reduction
  targets (rho, embedding derivatives, forces) — live in one anonymous
  shared mapping, inherited by every worker;
* within a color phase, workers scatter concurrently **without any
  locks** — legal for exactly the reason the paper gives: same-color
  subdomains have disjoint write sets (different array elements, no torn
  updates);
* the barrier between colors — the paper's only synchronisation — is
  between the workers themselves: they walk the color schedule on their
  own and meet at an in-arena barrier
  (:class:`~repro.parallel.backends.workers.ColorBarrier`); the parent
  sends one ``evaluate`` command per force evaluation.

The engine is *persistent*, honoring the paper's amortization argument
("steps 1 and 2 will be done when the neighbor list is created or
updated", Section II.D) the same way the threaded path does.  Workers,
arena, barrier, respawn and retry are the shared core in
:mod:`repro.parallel.backends.workers`; this calculator is its one-region
configuration: ``n_workers`` workers over a single arena region.  What it
adds on top:

* the :class:`~repro.core.sdc_plan.SDCPlan` — the same plan
  ``SDCStrategy`` runs on threads — cached on neighbor-list identity and
  written into the arena in its execution order, so a steady-state step
  pays only kernels and barriers plus one positions memcpy and the zero
  fills (the ``sync`` phase);
* with a tracer attached, the worker-chunk, phase and barrier-wait spans
  rebuilt from the clock marks in the workers' replies;
* optional write-set recording for the dynamic race detector.

Robustness: a worker killed or hung mid-evaluation surfaces as
:class:`~repro.parallel.backends.base.BackendError` (never a hang, never
partial scatters — the whole evaluation restarts from the ``sync`` zero
fill), and ``compute`` transparently respawns the workers and retries
once.  A task that raises in one worker releases its waiting siblings;
the parent re-raises that task's own exception and the workers stay.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.domain import SubdomainGrid
from repro.core.partition import PairPartition
from repro.core.schedule import ColorSchedule
from repro.core.sdc_plan import SDCPlan, build_sdc_plan
from repro.geometry.box import Box
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.obs.tracer import CAT_BARRIER, CAT_PHASE, CAT_REGION, CAT_TASK
from repro.obs.tracer import Span, align_worker_spans
from repro.parallel.backends.workers import (
    DEFAULT_PHASE_TIMEOUT_S,
    ChunkWorker,
    SharedArena,
    WorkerEngine,
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
        #: ``(kind, per_worker_write_sets)`` entry per color phase for the
        #: dynamic race detector (repro.analysis.racecheck)
        self.record_writes = record_writes
        self.last_write_record: List[Tuple[str, List[List[int]]]] = []
        #: first barrier generation of the next ``evaluate`` command; one
        #: per phase (the reply ends the last), so ``generation - 1`` also
        #: numbers the phases of a trace
        self._generation = 1
        # the plan, keyed on neighbor-list identity
        self._cached_nlist = IdentityKey()
        self._plan: Optional[SDCPlan] = None
        # the box the current epoch was published with, and the parent's
        # views of the arena region sliced to that epoch
        self._box: Optional[Box] = None
        self._arrays: Dict[str, np.ndarray] = {}

    # --- engine hooks ----------------------------------------------------------

    def _make_handlers(self, arena: SharedArena, potential, tier):
        return [
            ChunkWorker(arena, 0, potential, tier, self.record_writes, index)
            for index in range(self.n_workers)
        ]

    def _region_sizes(self) -> List[Tuple[int, int, int]]:
        pairs = self._plan.pairs
        return [(pairs.partition.n_atoms, pairs.n_pairs, self.n_workers)]

    def _publish_epoch(self) -> None:
        """Write the pair list into the arena in task order and ship each
        worker its ranges; workers re-slice their views."""
        (size,) = self._region_sizes()
        self._arrays = self._live.arena.region(0, size)
        plan = self._plan
        self._arrays["pair_i"][:] = plan.pair_i
        self._arrays["pair_j"][:] = plan.pair_j
        payloads = [
            {"size": size, "box": self._box, "tasks": tasks, "rows": rows}
            for tasks, rows in zip(plan.tasks, plan.rows)
        ]
        self._live.group.run("epoch", payloads)

    def _forget(self) -> None:
        self._arrays = {}
        self._box = None
        self._cached_nlist.clear()
        self._plan = None

    def health_snapshot(self) -> Dict[str, object]:
        """Engine lifecycle state for :meth:`HealthMonitor.snapshot`."""
        return {
            **self._lifecycle_snapshot(),
            "pool_live": self._live.group is not None,
            "n_workers": self.n_workers,
            "decomposition_cached": self._plan is not None,
        }

    # --- observability ---------------------------------------------------------

    def _trace_evaluation(
        self, replies, first: int, start: float, end: float
    ) -> None:
        """Rebuild one ``evaluate`` command's timeline from worker marks,
        phases numbered from ``first``, a ``worker-<pid>`` track each.

        A worker's marks alternate barrier entry / exit, so its task ``j``
        (a density color, the embedding, a force color) spans
        ``marks[2j] .. marks[2j + 1]``.  Phase ``j`` runs from the first
        exit of the barrier before it to the first exit of the one after
        (dispatch and reply at the two ends); a worker waits from its
        task's end to the end of the phase.
        """
        tracer = self._tracer
        colors = [
            {"color": c, "n_subdomains": len(members)}
            for c, members in enumerate(self._plan.schedule.phases)
        ]
        steps = [
            *(("density", f"density:color{a['color']}", a) for a in colors),
            ("embedding", "embedding", {}),
            *(("force", f"force:color{a['color']}", a) for a in colors),
        ]
        tracks = []
        for task, (_, _, marks, _, pid) in enumerate(replies):
            raw = [
                Span(
                    f"{label}:chunk", CAT_TASK, marks[2 * j],
                    marks[2 * j + 1] - marks[2 * j], pid, f"worker-{pid}",
                    {"phase": first + j, "task": task},
                )
                for j, (_, label, _) in enumerate(steps)
            ]
            tracks.append(align_worker_spans(raw, marks[0], start, end))
        exits = (min(t[j].start_s for t in tracks) for j in range(1, len(steps)))
        edges = [start, *exits, end]
        for j, (kind, label, args) in enumerate(steps):
            lo, hi, phase = edges[j], edges[j + 1], first + j
            tracer.add(label, CAT_REGION, lo, hi - lo, phase=kind, **args)
            tracer.add(
                f"{label}/phase{phase}", CAT_PHASE, lo, hi - lo,
                phase=phase, n_tasks=len(tracks),
            )
            for track in tracks:
                span = track[j]
                tracer.record(span)
                if hi > span.end_s:
                    tracer.add(
                        "barrier-wait", CAT_BARRIER, span.end_s, hi - span.end_s,
                        track=span.track, pid=span.pid, phase=phase,
                    )

    # --- decomposition cache ---------------------------------------------------

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> bool:
        """(Re)build the plan when the neighbor list changed.

        Matches the paper: "steps 1 and 2 will be done when the neighbor
        list is created or updated".  Returns True when a rebuild happened
        (the pair list must then be republished to the arena).
        """
        if self._cached_nlist.matches(nlist) and self._plan is not None:
            count_health("sdc_decomp_cache_hit")
            return False
        count_health("sdc_decomp_cache_miss")
        self._plan = build_sdc_plan(
            atoms.box, nlist, self.dims, self.n_workers,
            axes=self.axes, adaptive=self.adaptive,
        )
        self._cached_nlist.set(nlist)
        return True

    @property
    def grid(self) -> Optional[SubdomainGrid]:
        """The cached decomposition (None before the first compute)."""
        return self._plan and self._plan.grid

    @property
    def pair_partition(self) -> Optional[PairPartition]:
        """The cached pair partition (None before the first compute)."""
        return self._plan and self._plan.pairs

    @property
    def schedule(self) -> Optional[ColorSchedule]:
        """The cached color schedule (None before the first compute)."""
        return self._plan and self._plan.schedule

    # --- the ForceCalculator protocol -----------------------------------------

    def _evaluate_once(self, atoms: Atoms) -> Tuple[float, float]:
        """Sync, one ``evaluate`` command, ``(E_pair, E_embed)`` from the
        workers' partial sums — no potential call in the parent."""
        arrays, n_colors = self._arrays, self._plan.schedule.n_colors
        # sync: in-place state refresh — the whole per-step setup cost of
        # the persistent engine
        with self._span("sync", phase="sync"):
            arrays["positions"][:] = atoms.positions
            arrays["rho"][:] = 0.0
            arrays["fp"][:] = 0.0
            arrays["forces"][:] = 0.0
        base = self._generation
        self._generation += 2 * n_colors + 1
        start = time.perf_counter()
        replies = self._live.group.run("evaluate", [base] * self.n_workers)
        if self._tracer is not None:
            self._trace_evaluation(replies, base - 1, start, time.perf_counter())
        pair_energies, embedding_energies, _, writes, _ = zip(*replies)
        if self.record_writes:
            kinds = ["density"] * n_colors + ["force"] * n_colors
            self.last_write_record = [
                (kind, [per_task[phase] for per_task in writes])
                for phase, kind in enumerate(kinds)
            ]
        return float(sum(pair_energies)), float(sum(embedding_energies))

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        """Full evaluation; ``atoms`` is updated in place and the result's
        arrays *are* ``atoms.rho``/``fp``/``forces`` — copied out of the
        arena once, which the next sync zero-fills."""
        nlist.check_covers(atoms.n_atoms)
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            if self._prepare(atoms, nlist) or not _same_box(self._box, atoms.box):
                self._box = atoms.box
                self._new_epoch()
        pair_energy, embedding_energy = self._evaluate(
            potential, lambda: self._evaluate_once(atoms)
        )
        for name in ("rho", "fp", "forces"):
            getattr(atoms, name)[:] = self._arrays[name]
        return EAMComputation(
            pair_energy=pair_energy,
            embedding_energy=embedding_energy,
            rho=atoms.rho,
            fp=atoms.fp,
            forces=atoms.forces,
        )

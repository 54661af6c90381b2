"""Spatial Decomposition Coloring — the paper's method (Section II.B-C).

Execution structure per force evaluation (paper Figs. 7-8):

* **density region**: for each color, every worker runs its static chunk of
  the color's subdomains — one contiguous pair range of the plan
  (:mod:`repro.core.sdc_plan`) — through the tier's density slice: phi over
  the range's half-list pairs, scattered into both endpoints.  No locks —
  same-color write sets are disjoint by construction.  Implicit barrier
  between colors.
* **embedding region**: a plain parallel-for over atoms (no dependences).
* **force region**: same color structure with the Eq. 2 scatter.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.domain import SubdomainGrid
from repro.core.partition import PairPartition
from repro.core.schedule import ColorSchedule
from repro.core.sdc_plan import SDCPlan, build_sdc_plan
from repro.core.strategies.base import ReductionStrategy
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.obs.recorder import count as count_health
from repro.parallel.backends.base import ExecutionBackend
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPhase, SimPlan, uniform_phase
from repro.parallel.workload import BYTES_PER_ATOM, WorkloadStats
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation
from repro.utils.identity import IdentityKey


class SDCStrategy(ReductionStrategy):
    """The Spatial Decomposition Coloring strategy.

    Parameters
    ----------
    dims:
        1, 2 or 3 — the decomposition dimensionality (2 is the paper's
        best performer).
    n_threads:
        the width of the static schedule: every color phase and the
        embedding run as ``n_threads`` tasks, task ``k`` owning worker
        ``k``'s contiguous pair range (what ``n_workers`` is for the
        process engine).  Also steers the balanced decomposition and is
        the default plan width.  Pass a backend of the same width.
    backend:
        how task closures execute (:class:`SerialBackend` by default;
        :class:`~repro.parallel.backends.threads.ThreadBackend` for real
        concurrency).
    adaptive:
        choose per-axis subdomain counts that divide evenly over
        ``n_threads`` (the paper's load-balance discussion); when False the
        constraint-maximal counts are used.
    validate_conflicts:
        run the conflict checker on every new decomposition and raise if a
        same-color write overlap exists (a correctness tripwire; cheap
        relative to forces, but off by default).
    schedule_transform:
        optional hook applied to the freshly built :class:`ColorSchedule`
        before execution.  Exists for fault injection — racecheck tests
        corrupt valid schedules (merge colors, drop barriers) and assert
        the dynamic detector catches the resulting races.
    grid_factory:
        optional ``(box, reach) -> SubdomainGrid`` override of the
        decomposition, the second fault-injection hook (e.g. subdomain
        edges below ``2 * reach``).
    """

    name = "sdc"

    def __init__(
        self,
        dims: int = 2,
        n_threads: int = 1,
        backend: Optional[ExecutionBackend] = None,
        axes: Optional[Sequence[int]] = None,
        adaptive: bool = True,
        validate_conflicts: bool = False,
        max_per_axis: Optional[int] = None,
        schedule_transform: Optional[
            Callable[[ColorSchedule], ColorSchedule]
        ] = None,
        grid_factory: Optional[Callable[..., SubdomainGrid]] = None,
    ) -> None:
        if dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.dims = dims
        self.n_threads = n_threads
        self.backend = backend or SerialBackend()
        self.axes = list(axes) if axes is not None else None
        self.adaptive = adaptive
        self.validate_conflicts = validate_conflicts
        self.max_per_axis = max_per_axis
        self.schedule_transform = schedule_transform
        self.grid_factory = grid_factory
        self._cached_nlist = IdentityKey()
        self._plan: Optional[SDCPlan] = None

    # --- decomposition ---------------------------------------------------------

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> SDCPlan:
        """The plan for ``nlist``, rebuilt only when the list changed.

        Matches the paper: "steps 1 and 2 will be done when the neighbor
        list is created or updated".
        """
        if self._cached_nlist.matches(nlist) and self._plan is not None:
            count_health("sdc_decomp_cache_hit")
            return self._plan
        count_health("sdc_decomp_cache_miss")
        self._plan = build_sdc_plan(
            atoms.box,
            nlist,
            self.dims,
            self.n_threads,
            axes=self.axes,
            adaptive=self.adaptive,
            max_per_axis=self.max_per_axis,
            grid_factory=self.grid_factory,
            schedule_transform=self.schedule_transform,
            validate_conflicts=self.validate_conflicts,
        )
        self._cached_nlist.set(nlist)
        return self._plan

    @property
    def grid(self) -> Optional[SubdomainGrid]:
        """The current decomposition (None before the first compute)."""
        return self._plan and self._plan.grid

    @property
    def pair_partition(self) -> Optional[PairPartition]:
        """The current pair partition (None before the first compute)."""
        return self._plan and self._plan.pairs

    @property
    def schedule(self) -> Optional[ColorSchedule]:
        """The current color schedule (None before the first compute)."""
        return self._plan and self._plan.schedule

    # --- physics -----------------------------------------------------------------

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        nlist.check_covers(atoms.n_atoms)
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            plan = self._prepare(atoms, nlist)
        tier = self._tier()
        positions, box, n = atoms.positions, atoms.box, atoms.n_atoms
        pair_i, pair_j = plan.pair_i, plan.pair_j
        workers = range(self.n_threads)
        phases = plan.schedule.phases

        def color_region(kind: str, task) -> None:
            for color, members in enumerate(phases):
                with self._span(
                    f"{kind}:color{color}",
                    phase=kind,
                    color=color,
                    n_subdomains=len(members),
                ):
                    self.backend.run_phase([task(k, color) for k in workers])

        # phase 1: densities, color by color.  One geometry pass and one
        # potential call per evaluation: a range's density task leaves its
        # (delta, r, phi', V') in the hand-over arrays, and the same range's
        # force task reads them back after the density region's last barrier
        rho = self._array("rho", n)
        handover = [np.empty((len(pair_i), 3))] + [
            np.empty(len(pair_i)) for _ in range(3)
        ]
        pair_parts = np.zeros((self.n_threads, len(phases)))

        def task_views(k: int, color: int):
            """Worker ``k``'s range of ``color``: its pairs, its hand-over."""
            lo, hi = plan.tasks[k][color]
            return pair_i[lo:hi], pair_j[lo:hi], [a[lo:hi] for a in handover]

        def density_task(k: int, color: int):
            i_idx, j_idx, handed = task_views(k, color)

            def run() -> None:
                pair_parts[k, color] = tier.density_slice(
                    potential, positions, box, i_idx, j_idx, rho, handed
                )

            return run

        color_region("density", density_task)

        # phase 2: embedding, plain parallel for over contiguous atom rows
        fp = np.empty(n)
        emb_parts = np.zeros(self.n_threads)

        def embed_task(k: int):
            lo, hi = plan.rows[k]

            def run() -> None:
                emb_parts[k] = float(np.sum(potential.embed(rho[lo:hi])))
                fp[lo:hi] = potential.embed_deriv(rho[lo:hi])

            return run

        with self._span("embedding", phase="embedding", n_chunks=len(workers)):
            self.backend.run_phase([embed_task(k) for k in workers])

        # phase 3: forces, color by color
        forces = self._array("forces", (n, 3))

        def force_task(k: int, color: int):
            i_idx, j_idx, handed = task_views(k, color)

            def run() -> None:
                tier.force_slice(i_idx, j_idx, fp, handed, forces)

            return run

        color_region("force", force_task)

        return self._finalize(
            potential, atoms, nlist, rho, fp, forces,
            float(np.sum(emb_parts)), float(np.sum(pair_parts)),
        )

    # --- timing plan ----------------------------------------------------------------

    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int,
    ) -> SimPlan:
        """SDC plan: per-color subdomain task phases + embedding.

        ``stats`` must carry subdomain statistics built against *this*
        strategy's decomposition dimensionality (the harness pairs them).
        """
        if stats.sub is None or stats.n_colors == 0:
            raise ValueError("SDC plan needs subdomain statistics")
        sub = stats.sub
        phases: List[SimPhase] = []

        def scatter_phases(kind: str, c_compute: float, c_memory: float) -> None:
            for color, members in enumerate(stats.color_members):
                pairs = sub.pairs[members].astype(float)
                ws = sub.write_atoms[members].astype(float) * BYTES_PER_ATOM
                phases.append(
                    SimPhase.make(
                        name=f"{kind}:color{color}",
                        n_tasks=len(members),
                        compute=pairs * c_compute,
                        memory=pairs * c_memory,
                        working_set=ws,
                        barrier=True,
                        locality=stats.locality,
                    )
                )

        scatter_phases(
            "density",
            machine.cycles_pair_density_compute,
            machine.cycles_pair_density_memory,
        )
        per_chunk = stats.n_atoms / max(n_threads, 1)
        phases.append(
            uniform_phase(
                "embedding",
                n_tasks=n_threads,
                compute_per_task=per_chunk * machine.cycles_atom_embed_compute,
                memory_per_task=per_chunk * machine.cycles_atom_embed_memory,
                locality=stats.locality,
            )
        )
        scatter_phases(
            "force",
            machine.cycles_pair_force_compute,
            machine.cycles_pair_force_memory,
        )
        return SimPlan(
            name=f"{self.name}-{self.dims}d",
            phases=phases,
            n_parallel_regions=3,
        )

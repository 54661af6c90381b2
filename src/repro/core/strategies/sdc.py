"""Spatial Decomposition Coloring — the paper's method (Section II.B-C).

Execution structure per force evaluation (paper Figs. 7-8), run by the
shared three-region body (:meth:`ReductionStrategy.compute`):

* **density region**: for each color, every worker runs its static chunk of
  the color's subdomains — one contiguous pair range of the plan
  (:mod:`repro.core.sdc_plan`) — through the tier's density slice: phi over
  the range's half-list pairs, scattered into both endpoints.  No locks —
  same-color write sets are disjoint by construction.  Implicit barrier
  between colors.
* **embedding region**: a plain parallel-for over atoms (no dependences).
* **force region**: same color structure with the Eq. 2 scatter.

What SDC supplies is the layout: its plan, the colors as phases.  The write
mode is the default — both endpoints, in place.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.domain import SubdomainGrid
from repro.core.partition import PairPartition
from repro.core.schedule import ColorSchedule
from repro.core.sdc_plan import SDCPlan, build_sdc_plan
from repro.core.strategies.base import ReductionStrategy
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.obs.recorder import count as count_health
from repro.parallel.backends.base import ExecutionBackend
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPhase, SimPlan, embedding_phase
from repro.parallel.workload import BYTES_PER_ATOM, WorkloadStats
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
        super().__init__(n_threads, backend)
        if dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
        self.dims = dims
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

    # --- layout: the plan, colors as phases; write mode: the default -------------

    def _layout(self, atoms: Atoms, nlist: NeighborList) -> SDCPlan:
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            return self._prepare(atoms, nlist)

    def _phase_span(self, kind: str, color: int, plan: SDCPlan):
        return self._span(
            f"{kind}:color{color}",
            phase=kind,
            color=color,
            n_subdomains=len(plan.schedule.phases[color]),
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
        phases.append(embedding_phase(stats, machine, n_threads))
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

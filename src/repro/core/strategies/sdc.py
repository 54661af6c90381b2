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

What SDC supplies is the layout: its plan, the colors as phases.  The write
mode is the default — both endpoints, in place.

Two executions of that structure, one result.  Where the tier has a walker
(the C tier's :class:`~repro.kernels.c_tier.SDCWalk`) and the backend has
a team as wide as the schedule (``backend.team``), an evaluation is one
walk — the paper's one parallel region: the calling thread is worker 0,
the master thread, and the team's C helpers are the others, each walking
every color, its embedding rows and the ``2C + 1`` barriers between them
in one GIL-free call (:class:`~repro.kernels.c_tier.SDCTeam`).  Every
worker stamps a clock mark at every barrier, and a tracer only reads them
(:func:`~repro.obs.tracer.trace_region`), so a traced evaluation is the
one that runs untraced.  Everywhere else — the NumPy tier, an attached
instrument or backend observer, a backend with no team — the shared
three-region body (:meth:`ReductionStrategy.compute`) runs one phase per
color on the backend, which is what racecheck and the conformance suites
watch.  Same ranges in the same order: ``rho`` and the forces are
bit-identical either way.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Sequence

from repro import kernels
from repro.core.domain import SubdomainGrid
from repro.core.partition import PairPartition
from repro.core.schedule import ColorSchedule
from repro.core.sdc_plan import SDCPlan, SDCPlanner
from repro.core.strategies.base import ReductionStrategy
from repro.md.atoms import Atoms
from repro.md.integrators import REBUILD
from repro.md.neighbor.verlet import NeighborList
from repro.obs.recorder import count as count_health
from repro.obs.tracer import trace_region
from repro.parallel.backends.base import ExecutionBackend
from repro.parallel.backends.workers import barrier_lines
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPhase, SimPlan, embedding_phase
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
        self._planner = SDCPlanner()
        #: the walker of ``(plan, tier)``, None where none runs
        self._walk_key: tuple = ()
        self._walk = None
        self._barrier = barrier_lines(n_threads)
        #: first barrier generation of the next walked evaluation
        self._generation = 1
        #: whether the last evaluation walked (a step ring may run)
        self._walks = False

    # --- the walked evaluation ------------------------------------------------

    def compute(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        """One evaluation: one walk on the backend's team where it may run
        (module docstring), into ``atoms``' own arrays, which the result
        holds; else the per-color three-region body."""
        nlist.check_covers(atoms.n_atoms)
        plan = self._layout(atoms, nlist)
        walk = self._walker(plan, potential, atoms)
        if walk is None:
            return self._regions(potential, atoms, nlist, plan)
        return self._walked(walk, atoms)

    def verlet_ring(self, potential, atoms, nlist, kicks, half_skin):
        """One MD step as one ring of the team while :meth:`caller_walks`:
        each worker kick-drifts its ``rows[k]`` (with ``half_skin``, the
        list's Verlet limit; negative: rebuild whatever moved), all meet,
        walk the evaluation and kick their rows again; ``kicks`` is
        ``(scale, half_dt, dt)``.  None where it cannot ring, nothing
        touched; :data:`REBUILD` once an atom moved past the limit; else
        the evaluation and the closing kick's ``(sum m v^2, sum m v, sum
        f)`` (:meth:`~repro.kernels.c_tier.SDCWalk.sums`)."""
        if not self._walks:
            return None
        nlist.check_covers(atoms.n_atoms)
        walk = self._walker(self._layout(atoms, nlist), potential, atoms)
        if walk is None or not walk.ring(
            atoms.velocities, atoms.types, atoms.masses,
            nlist.reference_positions, kicks, half_skin,
        ):
            return None
        return self._walked(walk, atoms, drift=half_skin is not None, kick=True)

    def caller_walks(self) -> bool:
        """Whether the last evaluation walked on the backend's team, this
        thread its worker 0 (a step may then ring)."""
        return self._walks

    def _walked(self, walk, atoms, drift=False, kick=False):
        """One walk of the armed kind on the backend's team into ``atoms``
        (zeroed here unless the kick-drift zeroes them), this thread worker
        0: the evaluation, with a ring's moments when ``kick``;
        :data:`REBUILD` where a ring stopped at its Verlet check.  A tracer
        reads the marks every worker stamped."""
        if not drift:
            atoms.rho.fill(0.0)
            atoms.forces.fill(0.0)
        base, n_colors = self._generation, walk.n_colors
        self._generation += 2 * n_colors + 2
        start = time.perf_counter()
        status = self.backend.team(self.n_threads).walk(walk, base)
        window = (start, time.perf_counter())
        rebuild = walk.stopped(status)
        tracer = self._tracer
        if tracer is not None:  # the per-color route's labels, one walk
            plan, colors, pid = self._plan, range(n_colors), os.getpid()
            integrate = {"phase": "integrate", "n_chunks": self.n_threads}
            steps = [
                *[("kick-drift", integrate)] * drift,
                *(self._phase_label("density", c, plan) for c in colors),
                ("embedding", {"phase": "embedding", "n_chunks": self.n_threads}),
                *(self._phase_label("force", c, plan) for c in colors),
                *[("kick", integrate)] * kick,
            ]
            trace_region(tracer, window, steps[:1] if rebuild else steps, [
                (marks, f"repro-team-{k}", pid)
                for k, marks in enumerate(walk.marks.copy())
            ])
        if rebuild:
            return REBUILD
        pair, embedding, moments = walk.sums()
        result = EAMComputation(
            pair * self.pair_energy_scale, embedding,
            atoms.rho, atoms.fp, atoms.forces,
        )
        return (result, moments) if kick else result

    def _walker(self, plan: SDCPlan, potential, atoms: Atoms):
        """The walker of ``plan`` bound to ``atoms``, or None: an instrument
        or a backend observer watches tasks; the backend has no team this
        wide; the tier has no walker for it; or C may not run the potential
        or the arrays."""
        backend, self._walks = self.backend, False
        if (
            self._instrument is not None
            or backend.observer is not None
            or backend.team(self.n_threads) is None
        ):
            return None
        tier = kernels.active_tier()
        key = self._walk_key
        if not (key and key[0] is plan and key[1] is tier):
            # the plan's indices are checked here, once per epoch
            self._walk = tier.sdc_walker(
                plan.pair_i, plan.pair_j, plan.tasks, plan.rows,
                atoms.n_atoms, self._barrier,
            )
            self._walk_key = (plan, tier)
        walk = self._walk
        self._walks = walk is not None and walk.bind(
            potential, atoms.positions, atoms.box, atoms.rho, atoms.fp,
            atoms.forces,
        )
        return walk if self._walks else None

    # --- decomposition ---------------------------------------------------------

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> SDCPlan:
        """The plan for ``nlist``, rebuilt only when the list changed (its
        grid work only when the grid did).

        Matches the paper: "steps 1 and 2 will be done when the neighbor
        list is created or updated".
        """
        if self._cached_nlist.matches(nlist) and self._plan is not None:
            count_health("sdc_decomp_cache_hit")
            return self._plan
        count_health("sdc_decomp_cache_miss")
        self._plan = self._planner(
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

    def _phase_label(self, kind: str, color: int, plan: SDCPlan):
        return f"{kind}:color{color}", {
            "phase": kind,
            "color": color,
            "n_subdomains": len(plan.schedule.phases[color]),
        }

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

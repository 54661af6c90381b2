"""Spatial Decomposition Coloring — the paper's method (Section II.B-C).

Execution structure per force evaluation (paper Figs. 7-8):

* **density region**: for each color, all subdomains of that color run in
  parallel; each subdomain task evaluates phi over its owned half-list
  pairs and scatters into both endpoints.  No locks — same-color write
  sets are disjoint by construction.  Implicit barrier between colors.
* **embedding region**: a plain parallel-for over atoms (no dependences).
* **force region**: same color structure with the Eq. 2 scatter.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.coloring import lattice_coloring, validate_coloring
from repro.core.conflict import check_schedule_conflicts
from repro.core.domain import SubdomainGrid, decompose, decompose_balanced
from repro.core.partition import (
    PairPartition,
    build_pair_partition,
    build_partition,
)
from repro.core.schedule import ColorSchedule, build_schedule
from repro.core.strategies.base import ReductionStrategy, atom_chunks
from repro.kernels.base import check_pair_separation, pair_force_coefficients
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends.base import ExecutionBackend
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPhase, SimPlan, uniform_phase
from repro.parallel.workload import BYTES_PER_ATOM, WorkloadStats
from repro.potentials.base import EAMPotential
from repro.potentials.eam import (
    EAMComputation,
    pair_geometry,
    pair_terms,
    scatter_force_half,
    scatter_rho_half,
)
from repro.utils.identity import IdentityKey


def _count_health(name: str) -> None:
    """Bump a named health counter (never raises)."""
    try:
        from repro.obs.recorder import count

        count(name)
    except Exception:  # pragma: no cover - telemetry stays optional
        pass


class SDCStrategy(ReductionStrategy):
    """The Spatial Decomposition Coloring strategy.

    Parameters
    ----------
    dims:
        1, 2 or 3 — the decomposition dimensionality (2 is the paper's
        best performer).
    n_threads:
        thread count used for the embedding chunking, for balanced
        decomposition selection, and as the default plan width.
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
    fused:
        color-phase fusion control.  ``None`` (default) fuses each color
        into one kernel-tier call whenever the active tier advertises
        :meth:`~repro.kernels.KernelTier.fused_color_phases` for the
        potential (the numba variants with a lowerable potential) — the
        cell-blocked pair traversal then runs entirely inside compiled
        code, with ``numba-parallel`` ``prange``-ing over the color's
        subdomains.  ``False`` always uses per-subdomain tasks;
        ``True`` forces fusion even on tiers whose generic driver just
        re-composes the primitives (a differential-testing hook).
        Instrumented (racecheck) runs never fuse, so write sets keep
        their per-subdomain attribution.
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
        fused: Optional[bool] = None,
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
        self.fused = fused
        self._cached_nlist = IdentityKey()
        self._grid: Optional[SubdomainGrid] = None
        self._pairs: Optional[PairPartition] = None
        self._schedule: Optional[ColorSchedule] = None
        self._last_fused: Optional[bool] = None

    # --- decomposition ---------------------------------------------------------

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> None:
        """(Re)build grid/partition/coloring when the neighbor list changed.

        Matches the paper: "steps 1 and 2 will be done when the neighbor
        list is created or updated".
        """
        if self._cached_nlist.matches(nlist) and self._pairs is not None:
            _count_health("sdc_decomp_cache_hit")
            return
        _count_health("sdc_decomp_cache_miss")
        reach = nlist.cutoff + nlist.skin
        if self.grid_factory is not None:
            grid = self.grid_factory(atoms.box, reach)
        elif self.adaptive:
            grid = decompose_balanced(
                atoms.box, reach, self.dims, self.n_threads, axes=self.axes
            )
        else:
            grid = decompose(
                atoms.box,
                reach,
                self.dims,
                axes=self.axes,
                max_per_axis=self.max_per_axis,
            )
        coloring = lattice_coloring(grid)
        validate_coloring(grid, coloring)
        partition = build_partition(nlist.reference_positions, grid)
        pairs = build_pair_partition(partition, nlist)
        schedule = build_schedule(coloring)
        if self.schedule_transform is not None:
            schedule = self.schedule_transform(schedule)
        if self.validate_conflicts:
            report = check_schedule_conflicts(pairs, schedule)
            if not report.ok:
                raise RuntimeError(
                    f"SDC schedule has {report.n_conflicting_atoms} write "
                    f"conflicts; first: {report.conflicts[:3]}"
                )
        self._grid = grid
        self._pairs = pairs
        self._schedule = schedule
        self._cached_nlist.set(nlist)

    @property
    def grid(self) -> Optional[SubdomainGrid]:
        """The current decomposition (None before the first compute)."""
        return self._grid

    @property
    def pair_partition(self) -> Optional[PairPartition]:
        """The current pair partition (None before the first compute)."""
        return self._pairs

    @property
    def schedule(self) -> Optional[ColorSchedule]:
        """The current color schedule (None before the first compute)."""
        return self._schedule

    # --- physics -----------------------------------------------------------------

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        if not nlist.half:
            raise ValueError("SDC consumes half neighbor lists")
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            self._prepare(atoms, nlist)
        assert self._pairs is not None and self._schedule is not None
        pairs = self._pairs
        schedule = self._schedule
        tier = self._tier()
        fused = self._use_fused(tier, potential)
        positions = atoms.positions
        box = atoms.box
        n = atoms.n_atoms

        # phase 1: densities, color by color
        rho = self._array("rho", n)
        # one geometry pass and one potential call per evaluation: each
        # density task keeps its subdomain's (delta, r, phi', V') and
        # pair-energy partial in its own slot, and the same subdomain's force
        # task reads them back after the density region's last barrier
        # (fused drivers return one partial per color)
        n_subdomains = len(pairs.offsets) - 1
        geometry: list = [None] * n_subdomains
        energy = np.zeros(len(schedule.phases) if fused else n_subdomains)

        def density_task(subdomain: int):
            def run() -> None:
                i_idx, j_idx = pairs.pairs_of(subdomain)
                if len(i_idx) == 0:
                    return
                delta, r = pair_geometry(positions, box, i_idx, j_idx, tier=tier)
                check_pair_separation(r, (i_idx, j_idx))
                phi, dphi, v, dv = pair_terms(potential, r, tier=tier)
                geometry[subdomain] = delta, r, dphi, dv
                energy[subdomain] = float(np.sum(v))
                scatter_rho_half(rho, i_idx, j_idx, phi, tier=tier)

            return run

        def fused_density_task(color: int, members: np.ndarray):
            def run() -> None:
                energy[color] = tier.sdc_density_color_phase(
                    potential,
                    positions,
                    box,
                    pairs.i_idx,
                    pairs.j_idx,
                    pairs.offsets,
                    np.asarray(members, dtype=np.int64),
                    rho,
                    want_pair_energy=True,
                )

            return run

        for color, members in enumerate(schedule.phases):
            with self._span(
                f"density:color{color}",
                phase="density",
                color=color,
                n_subdomains=len(members),
                fused=fused,
            ):
                if fused:
                    self.backend.run_phase(
                        [fused_density_task(color, members)]
                    )
                else:
                    self.backend.run_phase(
                        [density_task(int(s)) for s in members]
                    )

        # phase 2: embedding, plain parallel for
        fp = np.empty(n)
        emb_parts = np.zeros(self.n_threads)

        def embed_task(k: int, rows: np.ndarray):
            def run() -> None:
                emb_parts[k] = float(np.sum(potential.embed(rho[rows])))
                fp[rows] = potential.embed_deriv(rho[rows])

            return run

        chunks = atom_chunks(n, self.n_threads)
        with self._span("embedding", phase="embedding", n_chunks=len(chunks)):
            self.backend.run_phase(
                [embed_task(k, rows) for k, rows in enumerate(chunks)]
            )
        embedding_energy = float(np.sum(emb_parts))

        # phase 3: forces, color by color
        forces = self._array("forces", (n, 3))

        def force_task(subdomain: int):
            def run() -> None:
                i_idx, j_idx = pairs.pairs_of(subdomain)
                if len(i_idx) == 0:
                    return
                delta, r, dphi, dv = geometry[subdomain]
                coeff = pair_force_coefficients(
                    r, dphi, dv, fp[i_idx], fp[j_idx], pair_ids=(i_idx, j_idx)
                )
                pair_forces = coeff[:, None] * delta
                scatter_force_half(forces, i_idx, j_idx, pair_forces, tier=tier)

            return run

        def fused_force_task(members: np.ndarray):
            def run() -> None:
                tier.sdc_force_color_phase(
                    potential,
                    positions,
                    box,
                    pairs.i_idx,
                    pairs.j_idx,
                    pairs.offsets,
                    np.asarray(members, dtype=np.int64),
                    fp,
                    forces,
                )

            return run

        for color, members in enumerate(schedule.phases):
            with self._span(
                f"force:color{color}",
                phase="force",
                color=color,
                n_subdomains=len(members),
                fused=fused,
            ):
                if fused:
                    self.backend.run_phase([fused_force_task(members)])
                else:
                    self.backend.run_phase(
                        [force_task(int(s)) for s in members]
                    )

        return self._finalize(
            potential, atoms, nlist, rho, fp, forces, embedding_energy,
            float(np.sum(energy)),
        )

    def _use_fused(self, tier, potential: EAMPotential) -> bool:
        """Decide color-phase fusion for this compute (see class docstring).

        The decision lands in the health plane: a counter per compute,
        plus a ``scheduler``-category event whenever it *changes* (first
        compute, or a tier/potential swap flipping fusion mid-run).
        """
        if self.fused is False or self._instrument is not None:
            fused = False
        elif self.fused is True:
            fused = True
        else:
            fused = tier.fused_color_phases(potential)
        _count_health("sdc_fused_compute" if fused else "sdc_unfused_compute")
        if fused != self._last_fused:
            self._last_fused = fused
            try:
                from repro.obs.recorder import record

                record(
                    "scheduler",
                    "fusion-change",
                    fused=fused,
                    tier=tier.name,
                    forced=self.fused,
                )
            except Exception:  # pragma: no cover - telemetry stays optional
                pass
        return fused

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

"""SDC applied to plain pair potentials.

The paper's conclusion: "it is obvious that our method can be applied in
MD simulations with other potentials."  This module demonstrates that: the
same decomposition/coloring/partition machinery parallelizes the
*single-phase* force computation of a pair-wise potential (one irregular
reduction instead of EAM's two).

Both calculators satisfy the :class:`~repro.md.simulation.ForceCalculator`
protocol, so the MD driver runs LJ dynamics through SDC unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.sdc_plan import SDCPlan, SDCPlanner
from repro.core.strategies.base import run_phase
from repro.kernels.base import check_pair_separation
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends.base import ExecutionBackend
from repro.parallel.backends.serial import SerialBackend
from repro.potentials.base import PairPotential
from repro.potentials.eam import (
    EAMComputation,
    pair_geometry,
    scatter_force_half,
)
from repro.utils.arrays import segment_sum
from repro.utils.identity import IdentityKey


def _pair_forces(
    potential: PairPotential,
    positions: np.ndarray,
    box,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Per-pair force vectors ``-V'(r)/r * delta`` and the pair-energy sum
    of a pair slice, from one geometry pass; overlapping atoms raise
    (naming the pair) before the caller scatters anything."""
    delta, r = pair_geometry(positions, box, i_idx, j_idx)
    check_pair_separation(r, (i_idx, j_idx))
    coeff = -potential.pair_energy_deriv(r) / r
    return coeff[:, None] * delta, float(np.sum(potential.pair_energy(r)))


def _finish(
    atoms: Atoms, forces: np.ndarray, pair_energy: float
) -> EAMComputation:
    """Store ``forces`` into ``atoms`` and wrap the result up with zero
    density/embedding fields, so the MD driver's bookkeeping stays uniform."""
    atoms.forces[:] = forces
    atoms.rho[:] = 0.0
    atoms.fp[:] = 0.0
    n = atoms.n_atoms
    return EAMComputation(
        pair_energy=pair_energy,
        embedding_energy=0.0,
        rho=np.zeros(n),
        fp=np.zeros(n),
        forces=forces,
    )


class SerialPairCalculator:
    """Single-phase serial force computation for a pair potential."""

    name = "pair-serial"

    def compute(
        self, potential: PairPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        nlist.check_covers(atoms.n_atoms)
        n = atoms.n_atoms
        i_idx, j_idx = nlist.pair_arrays()
        forces = np.zeros((n, 3))
        pair_energy = 0.0
        if len(i_idx):
            pf, pair_energy = _pair_forces(
                potential, atoms.positions, atoms.box, i_idx, j_idx
            )
            forces += segment_sum(pf, i_idx, n)
            if nlist.half:
                forces -= segment_sum(pf, j_idx, n)
            else:
                pair_energy *= 0.5
        return _finish(atoms, forces, pair_energy)


class SDCPairCalculator:
    """SDC-parallelized single-phase pair-potential forces.

    One color loop instead of EAM's two: for each color, every worker
    scatters its pair range's forces into the shared array without locks
    (same plan, same disjoint-write argument as the EAM case, verified by
    the same conflict checker).
    """

    name = "pair-sdc"

    #: optional span tracer of the color phases
    _tracer = None

    def __init__(
        self,
        dims: int = 2,
        n_threads: int = 1,
        backend: Optional[ExecutionBackend] = None,
        axes: Optional[Sequence[int]] = None,
        adaptive: bool = True,
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
        self._cached_nlist = IdentityKey()
        self._plan: Optional[SDCPlan] = None
        self._planner = SDCPlanner()

    def attach_tracer(self, tracer) -> None:
        """Record each color phase and its tasks through ``tracer``."""
        self._tracer = tracer

    def detach_tracer(self) -> None:
        self._tracer = None

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> SDCPlan:
        if not (self._cached_nlist.matches(nlist) and self._plan is not None):
            self._plan = self._planner(
                atoms.box, nlist, self.dims, self.n_threads,
                axes=self.axes, adaptive=self.adaptive,
            )
            self._cached_nlist.set(nlist)
        return self._plan

    def compute(
        self, potential: PairPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        nlist.check_covers(atoms.n_atoms)
        plan = self._prepare(atoms, nlist)
        positions = atoms.positions
        box = atoms.box
        n = atoms.n_atoms
        forces = np.zeros((n, 3))
        # each task keeps its range's pair-energy partial in its own slot
        energy = np.zeros((self.n_threads, plan.schedule.n_colors))

        def task(k: int, color: int):
            lo, hi = plan.tasks[k][color]

            def run() -> None:
                if lo == hi:
                    return
                i_idx, j_idx = plan.pair_i[lo:hi], plan.pair_j[lo:hi]
                pf, energy[k, color] = _pair_forces(
                    potential, positions, box, i_idx, j_idx
                )
                scatter_force_half(forces, i_idx, j_idx, pf)

            return run

        for color in range(plan.schedule.n_colors):
            run_phase(
                self.backend, self._tracer,
                [task(k, color) for k in range(self.n_threads)],
                f"force:color{color}", phase="force", color=color,
            )

        return _finish(atoms, forces, float(np.sum(energy)))

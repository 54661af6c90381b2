"""LOCALWRITE strategy — the taxonomy's class 3 (Han & Tseng).

The paper's third class "partitions computations and distributes it among
threads in order to avoid write conflicts", citing LOCALWRITE [19, 20]:
each processor applies the *owner-computes* rule to the reduction array —
a pair whose endpoints belong to different owners is computed by **both**
owners, each updating only its own element.  Compared to the paper's
other strategies:

* like SDC it partitions space, but it needs **no coloring and no
  inter-color barriers** — every subdomain runs concurrently;
* like RC it pays redundant computation, but only for *boundary* pairs
  (both endpoints' owners differ), not for every pair;
* the "inspector" cost the paper attributes to this class is the pair
  classification (interior vs boundary), done once per neighbor-list
  rebuild.

With subdomains much larger than the cutoff, boundary pairs are a small
fraction, so LOCALWRITE sits between SDC and RC — a natural extra point
on the paper's comparison axis.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.core.domain import SubdomainGrid, decompose, decompose_balanced
from repro.core.partition import build_partition
from repro.core.strategies.base import ReductionStrategy
from repro.kernels.base import handover_arrays
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends.base import ExecutionBackend
from repro.parallel.machine import MachineConfig
from repro.parallel.plan import SimPhase, SimPlan, embedding_phase
from repro.parallel.workload import BYTES_PER_ATOM, WorkloadStats
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation
from repro.utils.identity import IdentityKey


class _LocalWriteTables:
    """Inspector output: per-subdomain interior/boundary pair slices."""

    def __init__(
        self,
        grid: SubdomainGrid,
        subdomain_of_atom: np.ndarray,
        nlist: NeighborList,
    ) -> None:
        i_idx, j_idx = nlist.pair_arrays()
        owner_i = subdomain_of_atom[i_idx]
        owner_j = subdomain_of_atom[j_idx]
        interior = owner_i == owner_j
        n_sub = grid.n_subdomains

        def group(pairs_i, pairs_j, owners):
            order = np.argsort(owners, kind="stable")
            counts = np.bincount(owners, minlength=n_sub)
            offsets = np.zeros(n_sub + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            return pairs_i[order], pairs_j[order], offsets

        self.int_i, self.int_j, self.int_offsets = group(
            i_idx[interior], j_idx[interior], owner_i[interior]
        )
        # boundary pairs appear twice: once under each owner; `own_side`
        # records which endpoint the owner updates
        bi, bj = i_idx[~interior], j_idx[~interior]
        boi, boj = owner_i[~interior], owner_j[~interior]
        all_i = np.concatenate([bi, bi])
        all_j = np.concatenate([bj, bj])
        owners = np.concatenate([boi, boj])
        side = np.concatenate(
            [np.zeros(len(bi), dtype=np.int8), np.ones(len(bj), dtype=np.int8)]
        )
        order = np.argsort(owners, kind="stable")
        self.bnd_i = all_i[order]
        self.bnd_j = all_j[order]
        self.bnd_side = side[order]
        counts = np.bincount(owners, minlength=n_sub)
        self.bnd_offsets = np.zeros(n_sub + 1, dtype=np.int64)
        np.cumsum(counts, out=self.bnd_offsets[1:])
        self.n_boundary_pairs = len(bi)
        self.n_interior_pairs = int(interior.sum())

    def interior_of(self, s: int):
        lo, hi = self.int_offsets[s], self.int_offsets[s + 1]
        return self.int_i[lo:hi], self.int_j[lo:hi]

    def boundary_of(self, s: int):
        lo, hi = self.bnd_offsets[s], self.bnd_offsets[s + 1]
        return self.bnd_i[lo:hi], self.bnd_j[lo:hi], self.bnd_side[lo:hi]


class LocalWriteStrategy(ReductionStrategy):
    """Owner-computes partitioning with redundant boundary computation."""

    name = "localwrite"

    def __init__(
        self,
        dims: int = 3,
        n_threads: int = 1,
        backend: Optional[ExecutionBackend] = None,
        axes: Optional[Sequence[int]] = None,
        adaptive: bool = True,
    ) -> None:
        super().__init__(n_threads, backend)
        if dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
        self.dims = dims
        self.axes = list(axes) if axes is not None else None
        self.adaptive = adaptive
        self._cached_nlist = IdentityKey()
        self._tables: Optional[_LocalWriteTables] = None
        self._grid: Optional[SubdomainGrid] = None

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> None:
        """The inspector: classify pairs once per neighbor-list rebuild.

        Note LOCALWRITE has no > 2*reach constraint — owners only ever
        write their own atoms — but we reuse the SDC decomposition so the
        comparison is subdomain-for-subdomain fair.
        """
        if self._cached_nlist.matches(nlist) and self._tables is not None:
            return
        reach = nlist.cutoff + nlist.skin
        if self.adaptive:
            grid = decompose_balanced(
                atoms.box, reach, self.dims, self.n_threads, axes=self.axes
            )
        else:
            grid = decompose(atoms.box, reach, self.dims, axes=self.axes)
        partition = build_partition(nlist.reference_positions, grid)
        self._tables = _LocalWriteTables(
            grid, partition.subdomain_of_atom, nlist
        )
        self._grid = grid
        self._cached_nlist.set(nlist)

    @property
    def grid(self) -> Optional[SubdomainGrid]:
        """The current decomposition (None before the first compute)."""
        return self._grid

    def compute(
        self,
        potential: EAMPotential,
        atoms: Atoms,
        nlist: NeighborList,
    ) -> EAMComputation:
        """Not the shared body: one barrier-free phase whose task has two
        write modes — interior pairs both endpoints, boundary pairs the
        owned one — each segment on the tier's pair halves with its own
        hand-over."""
        nlist.check_covers(atoms.n_atoms)
        if not nlist.half:
            raise ValueError("LOCALWRITE consumes half neighbor lists")
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            self._prepare(atoms, nlist)
        assert self._tables is not None and self._grid is not None
        tables = self._tables
        tier = kernels.active_tier()
        positions = atoms.positions
        box = atoms.box
        n = atoms.n_atoms
        n_sub = self._grid.n_subdomains
        int_handover = handover_arrays(len(tables.int_i))
        bnd_handover = handover_arrays(len(tables.bnd_i))

        def handed(handover, offsets, s: int):
            return [a[offsets[s] : offsets[s + 1]] for a in handover]

        rho = self._array("rho", n)
        pair_parts = np.zeros(n_sub)

        def density_task(s: int):
            def run() -> None:
                i_in, j_in = tables.interior_of(s)
                if len(i_in):
                    phi, interior_energy = tier.pair_pass(
                        potential, positions, box, i_in, j_in,
                        handed(int_handover, tables.int_offsets, s),
                    )
                    tier.scatter_rho_half(rho, i_in, j_in, phi)
                    pair_parts[s] = interior_energy
                i_b, j_b, side = tables.boundary_of(s)
                if len(i_b):
                    phi, boundary_energy = tier.pair_pass(
                        potential, positions, box, i_b, j_b,
                        handed(bnd_handover, tables.bnd_offsets, s),
                    )
                    # one-sided owned write: stays np.add.at so the task's
                    # write set is exactly its owned boundary rows
                    own = np.where(side == 0, i_b, j_b)
                    np.add.at(rho, own, phi)
                    # a boundary pair is listed under both its owners
                    pair_parts[s] += 0.5 * boundary_energy

            return run

        # single fully parallel phase: every subdomain writes only its
        # own atoms, so no colors and no intermediate barriers
        with self._span(
            "density:owned-scatter", phase="density", n_subdomains=n_sub
        ):
            self.backend.run_phase([density_task(s) for s in range(n_sub)])

        with self._span("embedding", phase="embedding"):
            embedding_energy = float(np.sum(potential.embed(np.asarray(rho))))
            fp = potential.embed_deriv(np.asarray(rho))

        forces = self._array("forces", (n, 3))

        def force_task(s: int):
            def run() -> None:
                i_in, j_in = tables.interior_of(s)
                if len(i_in):
                    pf = tier.pair_forces(
                        i_in, j_in, fp,
                        handed(int_handover, tables.int_offsets, s),
                    )
                    tier.scatter_force_half(forces, i_in, j_in, pf)
                i_b, j_b, side = tables.boundary_of(s)
                if len(i_b):
                    pf = tier.pair_forces(
                        i_b, j_b, fp,
                        handed(bnd_handover, tables.bnd_offsets, s),
                    )
                    own = np.where(side == 0, i_b, j_b)
                    sign = np.where(side == 0, 1.0, -1.0)
                    for axis in range(3):
                        np.add.at(
                            forces[:, axis], own, sign * pf[:, axis]
                        )

            return run

        with self._span(
            "force:owned-scatter", phase="force", n_subdomains=n_sub
        ):
            self.backend.run_phase([force_task(s) for s in range(n_sub)])

        return self._finalize(
            potential, atoms, nlist, rho, fp, forces,
            embedding_energy, float(np.sum(pair_parts)),
        )

    def plan(
        self,
        stats: WorkloadStats,
        machine: MachineConfig,
        n_threads: int,
    ) -> SimPlan:
        """One parallel phase per kernel; boundary pairs computed twice.

        Uses the workload's subdomain statistics plus an analytic boundary
        fraction (the halo share of each subdomain's pairs).
        """
        if stats.sub is None:
            raise ValueError("LOCALWRITE plan needs subdomain statistics")
        sub = stats.sub
        # boundary pairs ~ pairs whose partner is outside: the halo share
        # of the write set approximates the fraction of boundary pairs
        halo_fraction = np.clip(
            (sub.write_atoms - sub.atoms) / np.maximum(sub.write_atoms, 1.0),
            0.0,
            1.0,
        )
        eff_pairs = sub.pairs * (1.0 + halo_fraction)
        ws = sub.write_atoms * BYTES_PER_ATOM
        phases: List[SimPhase] = []
        for kind, c_compute, c_memory in (
            (
                "density",
                machine.cycles_pair_density_compute,
                machine.cycles_pair_density_memory,
            ),
            (
                "force",
                machine.cycles_pair_force_compute,
                machine.cycles_pair_force_memory,
            ),
        ):
            phases.append(
                SimPhase.make(
                    name=kind,
                    n_tasks=sub.n_subdomains,
                    compute=eff_pairs * c_compute,
                    memory=eff_pairs * c_memory,
                    working_set=ws,
                    barrier=True,
                    locality=stats.locality,
                )
            )
        phases.insert(1, embedding_phase(stats, machine, n_threads))
        return SimPlan(name=self.name, phases=phases, n_parallel_regions=3)

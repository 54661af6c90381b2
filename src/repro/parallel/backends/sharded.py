"""Sharded spatial decomposition with real halo exchange (ROADMAP item 3).

The analytic hybrid model in :mod:`repro.parallel.cluster` predicts how
SDC composes with a distributed spatial decomposition; this module makes
one actually execute.  The global box is split into a near-cubic grid of
*shards* (:func:`repro.parallel.cluster.node_grid` picks the factor
assignment, largest count on the longest axis).  Each shard owns the
atoms whose wrapped position falls inside its region and sweeps its share
of the pair list as one task on its own worker.

**A shard's pair list is a slice of the list the engine was handed.**  The
paper partitions the neighbor list it already has ("steps 1 and 2 will be
done when the neighbor list is created or updated", Section II.D) and so
does an epoch here (:func:`partition_pairs`, a handful of O(pairs) NumPy
passes at every neighbor-list rebuild; no neighbor or cell list is ever
built in this module):

1. **ownership** from the list's reference positions
   (:meth:`ShardGrid.shard_of_positions`);
2. **pair partition**: every pair ``(i, j)`` of the global half list goes
   to exactly one shard — the common shard when both endpoints share one,
   else one endpoint's shard chosen by *parity*: ``j``'s shard when
   ``i ^ j`` is odd, ``i``'s when it is even.  (A half list has
   ``i < j``, so "the smaller global id owns the pair" would put every
   pair across a face on the same side; parity splits them evenly.)  The
   slice keeps the global CSR order;
3. **ghost rows = remote endpoints**: a shard's local atom set is its
   owned atoms followed by the non-owned endpoints of its own pairs, each
   global id once, and the slice is renumbered into those rows.  An atom
   no owned pair touches is never a ghost, and one remote atom is one row
   however many faces it is near.

The shard worker receives the *global periodic box*, so its pair geometry
takes the same minimum image the serial path takes — per-pair ``r``,
``phi``, ``V`` are the serial values bit for bit, ghosts carry no image
shift, and only the summation order differs.  Correctness across shard
boundaries is explicit **halo exchange**, ordered like a distributed EAM
step (cf. the hybrid MPI+OpenMP designs in PAPERS.md):

1. **position refresh** (every force evaluation): each region's rows are
   gathered from the current global positions and its accumulators
   zeroed.
2. **density reduction**: after the density pass, ghost ``rho``
   contributions are accumulated onto their owners and the completed
   owned densities written back.
3. **embedding + ghost-fp refresh**: each shard embeds its *owned* atoms
   (energy counted once); ``F'(rho)`` for ghosts is then refreshed from
   the owners before the force pass needs ``fp_i + fp_j``.
4. **force reduction**: ghost force contributions are accumulated back
   onto their owners (Newton's third law globally).
5. **atom migration** (at every rebuild): ownership is recomputed from
   the new reference positions; atoms are re-homed and the migration
   count lands in the flight recorder.

A shard's rows are distinct global ids, so the three reductions are plain
fancy-index gathers and ``+=``.  Ownership only decides balance and
traffic, never correctness: shard edges may be arbitrarily small, atoms
may sit exactly on a face, and with ``n_shards=1`` there are no ghosts at
all (one region, no exchange).

Execution engines.  Workers, arena, respawn and retry are the shared core
in :mod:`repro.parallel.backends.workers`; this calculator is its
many-region configuration — one arena region and one worker per shard:

* ``engine="processes"`` — one persistent forked worker per shard.  Each
  region holds the shard's dynamic state (positions, rho, fp, forces),
  its local pair list and the pair-geometry cache, so parent-side exchange
  reductions and worker-side scatters address the same pages.  At a
  neighbor rebuild the parent writes the new local pair list into the
  regions and ships box / pair range / owned rows as the epoch payload (a
  shard worker sweeps its region as one task, no barrier): workers
  survive Verlet rebuilds and are re-forked only through the core's
  single spawn path (first compute, worker death, potential or tier
  change, capacity overflow).
* ``engine="inline"`` — the identical protocol executed in-process
  (deterministic reference for differential tests; the fallback on
  platforms without ``fork``).

Steady-state health-plane cost follows the DESIGN §7.3 overhead
contract: per-compute work only bumps counters; flight-recorder *events*
(``sharded`` category: ``shard-epoch``, ``migration``, ``halo-refresh``)
are emitted at epoch changes.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.geometry.box import Box
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends.workers import (
    DEFAULT_PHASE_TIMEOUT_S,
    ChunkWorker,
    SharedArena,
    WorkerEngine,
    count_health,
    record_health,
)
from repro.parallel.cluster import node_grid
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation
from repro.utils.identity import IdentityKey

__all__ = [
    "ShardGrid",
    "ShardPlan",
    "ShardedSDCCalculator",
    "make_shard_grid",
    "partition_pairs",
]

#: per-ghost exchange traffic per force evaluation, in bytes: position
#: push (24) + rho reduction (8) + fp refresh (8) + force reduction (24)
GHOST_BYTES_PER_STEP = 64


# ---------------------------------------------------------------------------
# shard grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardGrid:
    """A near-cubic grid of spatial shards over the global box.

    Unlike :class:`~repro.core.domain.SubdomainGrid` (the SDC
    decomposition, whose color-safety argument needs edges longer than
    ``2 * reach``), a shard edge may be arbitrarily small: a shard's
    ghosts are the remote endpoints of its pairs, wherever they are, so
    correctness never rests on a 26-stencil assumption.
    """

    box: Box
    counts: Tuple[int, int, int]

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.counts):
            raise ValueError(f"counts must be >= 1, got {self.counts}")

    @property
    def n_shards(self) -> int:
        """Total shard count."""
        return self.counts[0] * self.counts[1] * self.counts[2]

    def edge_lengths(self) -> np.ndarray:
        """Shard edge lengths per axis."""
        return self.box.lengths / np.asarray(self.counts, dtype=np.float64)

    def shard_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Flat shard id owning each (wrapped) position."""
        positions = self.box.wrap(np.asarray(positions, dtype=np.float64))
        coords = np.floor(positions / self.edge_lengths()).astype(np.int64)
        coords = np.clip(coords, 0, np.asarray(self.counts) - 1)
        _, ny, nz = self.counts
        return (coords[..., 0] * ny + coords[..., 1]) * nz + coords[..., 2]


def make_shard_grid(box: Box, n_shards: int) -> ShardGrid:
    """Near-cubic shard grid: largest factor on the longest axis.

    Reuses :func:`repro.parallel.cluster.node_grid` — the same
    surface-minimizing factorization the analytic hybrid model assumes —
    then assigns the sorted factors to axes by decreasing box length, so
    halo shells stay as thin as the factorization allows.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    factors = sorted(node_grid(n_shards), reverse=True)
    axis_order = np.argsort(-box.lengths, kind="stable")
    counts = [1, 1, 1]
    for factor, axis in zip(factors, axis_order):
        counts[int(axis)] = int(factor)
    return ShardGrid(box=box, counts=(counts[0], counts[1], counts[2]))


# ---------------------------------------------------------------------------
# per-shard plan: a slice of the global pair list in local rows
# ---------------------------------------------------------------------------

@dataclass
class ShardPlan:
    """Everything static about one shard within a decomposition epoch."""

    shard: int
    #: global index of every local row: owned atoms, then ghosts; distinct
    src: np.ndarray
    n_owned: int
    #: the shard's pairs as local rows, in global CSR order
    pair_i: np.ndarray
    pair_j: np.ndarray

    @property
    def owned(self) -> np.ndarray:
        """Global indices of the owned atoms."""
        return self.src[: self.n_owned]

    @property
    def ghosts(self) -> np.ndarray:
        """Global indices of the ghost rows."""
        return self.src[self.n_owned:]

    @property
    def n_local(self) -> int:
        return len(self.src)

    @property
    def n_ghosts(self) -> int:
        return len(self.src) - self.n_owned

    @property
    def n_pairs(self) -> int:
        return len(self.pair_i)

    @property
    def halo_fraction(self) -> float:
        """Ghost share of the shard's local atom set."""
        return self.n_ghosts / self.n_local if self.n_local else 0.0


def partition_pairs(
    shard_of: np.ndarray, n_shards: int, i_idx: np.ndarray, j_idx: np.ndarray
) -> List[ShardPlan]:
    """Partition a global half pair list over the shards owning its atoms.

    Every pair lands on exactly one shard, which owns at least one of its
    endpoints (module docstring, steps 2–3): same-shard pairs stay there,
    cross-shard pairs go to ``j``'s shard when ``i ^ j`` is odd and to
    ``i``'s otherwise.  Each plan's ghost rows are exactly the non-owned
    endpoints of its pairs, and its pairs keep the order of the input.
    """
    pair_shard = np.where((i_idx ^ j_idx) & 1, shard_of[j_idx], shard_of[i_idx])
    # scratch: read only at the entries this shard's ``src`` just wrote
    local_of = np.empty(len(shard_of), dtype=np.int64)
    plans: List[ShardPlan] = []
    for shard in range(n_shards):
        mine = pair_shard == shard
        gi, gj = i_idx[mine], j_idx[mine]
        owned = np.flatnonzero(shard_of == shard)
        remote = np.zeros(len(shard_of), dtype=bool)
        remote[gi] = True
        remote[gj] = True
        remote[owned] = False
        src = np.concatenate([owned, np.flatnonzero(remote)])
        local_of[src] = np.arange(len(src))
        plans.append(
            ShardPlan(
                shard=shard,
                src=src,
                n_owned=len(owned),
                pair_i=local_of[gi],
                pair_j=local_of[gj],
            )
        )
    return plans


# ---------------------------------------------------------------------------
# the force engine
# ---------------------------------------------------------------------------

class ShardedSDCCalculator(WorkerEngine):
    """Multi-shard EAM force engine with explicit halo exchange.

    Satisfies the :class:`~repro.md.simulation.ForceCalculator` protocol.
    See the module docstring for the exchange protocol; per-evaluation
    ordering is *sync → density → rho reduction → embedding → fp refresh
    → force → force reduction*, with atom migration re-homing ownership
    at every neighbor-list rebuild (a new decomposition epoch: the handed
    pair list is re-partitioned and republished to the surviving workers).

    Parameters
    ----------
    n_shards:
        number of spatial shards; :func:`make_shard_grid` picks the
        near-cubic grid.
    dims:
        accepted and validated for call-shape compatibility, otherwise
        inert: a shard sweeps its region as one task (no intra-shard grid).
    engine:
        ``"processes"`` (persistent forked worker group, the default) or
        ``"inline"`` (same protocol in-process — the deterministic
        differential reference, and the automatic fallback where
        ``fork`` is unavailable).
    kernel_tier:
        pinned kernel tier for the shard workers (None follows the
        active tier at each compute).
    timeout_s:
        per-phase barrier timeout before a worker is declared lost.
    """

    name = "sdc-sharded"

    def __init__(
        self,
        n_shards: int = 2,
        dims: int = 2,
        engine: str = "processes",
        kernel_tier: "kernels.TierSpec" = None,
        timeout_s: float = DEFAULT_PHASE_TIMEOUT_S,
        restart_on_failure: bool = True,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
        if engine not in ("processes", "inline"):
            raise ValueError(f"unknown engine {engine!r}")
        if engine == "processes" and "fork" not in mp.get_all_start_methods():
            record_health(
                "sharded",
                "engine-fallback",
                severity="warning",
                wanted="processes",
                used="inline",
                reason="no fork support",
            )
            engine = "inline"
        super().__init__(
            kernel_tier, timeout_s, restart_on_failure, inline=engine == "inline"
        )
        self.n_shards = n_shards
        self.dims = dims
        self.engine = engine
        # epoch state: the plans of the cached neighbor list and the
        # parent's views of each shard's arena region
        self._cached_nlist = IdentityKey()
        self._shard_grid: Optional[ShardGrid] = None
        self._plans: List[ShardPlan] = []
        self._views: List[Dict[str, np.ndarray]] = []
        # ownership cache + migration accounting (keyed on nlist identity)
        self._ownership_key = IdentityKey()
        self._ownership: Optional[Tuple[ShardGrid, np.ndarray]] = None
        self._prev_assignment: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._n_migrated_total = 0
        self._halo_bytes_total = 0

    # --- engine hooks ----------------------------------------------------------

    def _make_handlers(self, arena: SharedArena, potential, tier):
        return [
            ChunkWorker(arena, shard, potential, tier)
            for shard in range(len(self._plans))
        ]

    def _region_sizes(self) -> List[Tuple[int, int, int]]:
        return [(plan.n_local, plan.n_pairs, 1) for plan in self._plans]

    def _publish_epoch(self) -> None:
        """Write every shard's local pair list into its region and ship the
        epoch payload; the workers re-slice their views from it."""
        arena = self._live.arena
        self._views = []
        payloads = []
        for plan, size in zip(self._plans, self._region_sizes()):
            views = arena.region(plan.shard, size)
            views["pair_i"][:] = plan.pair_i
            views["pair_j"][:] = plan.pair_j
            self._views.append(views)
            # a shard worker owns its region alone: one task, no barrier,
            # and it embeds its owned rows (energy counted once); the box
            # is the global one, so its minimum image is the serial path's
            payloads.append(
                {
                    "size": size,
                    "box": self._shard_grid.box,
                    "tasks": [(0, plan.n_pairs)],
                    "rows": (0, plan.n_owned),
                }
            )
        self._live.group.run("epoch", payloads)

    def _forget(self) -> None:
        self._cached_nlist.clear()
        self._plans = []
        self._views = []
        self._ownership_key.clear()
        self._ownership = None

    # --- observability ---------------------------------------------------------

    @property
    def shard_grid(self) -> Optional[ShardGrid]:
        """The current shard grid (None before the first compute)."""
        return self._shard_grid

    def halo_stats(self) -> Dict[str, object]:
        """Per-shard occupancy of the current epoch: pairs swept, atoms
        owned, ghost rows and their share of the shard's local rows."""
        return {
            "n_pairs": [plan.n_pairs for plan in self._plans],
            "n_owned": [plan.n_owned for plan in self._plans],
            "n_ghosts": [plan.n_ghosts for plan in self._plans],
            "halo_fraction": [plan.halo_fraction for plan in self._plans],
            "bytes_per_step": GHOST_BYTES_PER_STEP
            * int(sum(plan.n_ghosts for plan in self._plans)),
        }

    def health_snapshot(self) -> Dict[str, object]:
        """Engine lifecycle state for :meth:`HealthMonitor.snapshot`."""
        grid = self._shard_grid
        return {
            **self._lifecycle_snapshot(),
            "shard_engine": self.engine,
            "n_shards": self.n_shards,
            "shard_grid": list(grid.counts) if grid is not None else None,
            "group_live": self._live.group is not None,
            "n_epochs": self._epoch,
            "n_migrated_total": self._n_migrated_total,
            "halo_bytes_total": self._halo_bytes_total,
            "n_ghosts": int(sum(p.n_ghosts for p in self._plans)),
            "decomposition_cached": bool(self._plans),
        }

    # --- ownership and migration ------------------------------------------------

    def on_neighbor_rebuild(self, atoms: Atoms, nlist: NeighborList) -> None:
        """Simulation rebuild hook: re-home atoms to their shards eagerly.

        Migration accounting runs here (before the next force evaluation
        needs the new epoch), so the flight-recorder ``migration`` event
        lands next to the scheduler's ``neighbor-rebuild`` event.
        """
        self._assign_ownership(atoms, nlist)

    def _assign_ownership(
        self, atoms: Atoms, nlist: NeighborList
    ) -> Tuple[ShardGrid, np.ndarray]:
        """Shard ownership for this neighbor list (cached, accounted once)."""
        if self._ownership_key.matches(nlist) and self._ownership is not None:
            return self._ownership
        grid = make_shard_grid(atoms.box, self.n_shards)
        shard_of = grid.shard_of_positions(nlist.reference_positions)
        ids = np.asarray(atoms.ids, dtype=np.int64)
        n_migrated = 0
        if self._prev_assignment is not None:
            prev_ids, prev_shard = self._prev_assignment
            if np.array_equal(prev_ids, ids):
                n_migrated = int(np.count_nonzero(prev_shard != shard_of))
            else:  # align by permanent atom id (reordered snapshots)
                order_prev = np.argsort(prev_ids, kind="stable")
                order_now = np.argsort(ids, kind="stable")
                common = min(len(order_prev), len(order_now))
                n_migrated = int(
                    np.count_nonzero(
                        prev_shard[order_prev[:common]]
                        != shard_of[order_now[:common]]
                    )
                )
            self._n_migrated_total += n_migrated
            record_health(
                "sharded",
                "migration",
                epoch=self._epoch,
                n_migrated=n_migrated,
                n_atoms=len(ids),
                n_shards=self.n_shards,
            )
            count_health("sharded_migration_events")
        self._prev_assignment = (ids.copy(), shard_of.copy())
        self._ownership_key.set(nlist)
        self._ownership = (grid, shard_of)
        return self._ownership

    # --- epoch build -------------------------------------------------------------

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> None:
        """Re-partition the handed pair list over the shards when the
        neighbor list changed — a new decomposition epoch."""
        if self._cached_nlist.matches(nlist) and self._plans:
            count_health("sharded_epoch_cache_hit")
            return
        count_health("sharded_epoch_cache_miss")
        grid, shard_of = self._assign_ownership(atoms, nlist)
        plans = partition_pairs(shard_of, grid.n_shards, *nlist.pair_arrays())
        self._shard_grid = grid
        self._plans = plans
        self._cached_nlist.set(nlist)
        self._new_epoch()
        n_ghosts = int(sum(plan.n_ghosts for plan in plans))
        record_health(
            "sharded",
            "shard-epoch",
            epoch=self._epoch,
            engine=self.engine,
            n_shards=grid.n_shards,
            grid=list(grid.counts),
            n_atoms=nlist.n_atoms,
            n_ghosts=n_ghosts,
            n_local_pairs=int(sum(plan.n_pairs for plan in plans)),
            mean_halo_fraction=float(
                np.mean([plan.halo_fraction for plan in plans])
            ),
            kernel_tier=self.kernel_tier,
        )
        record_health(
            "sharded",
            "halo-refresh",
            epoch=self._epoch,
            n_ghosts=n_ghosts,
            bytes_per_step=GHOST_BYTES_PER_STEP * n_ghosts,
            n_shards=grid.n_shards,
        )

    # --- the force evaluation -----------------------------------------------------

    def compute(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        """Full sharded EAM evaluation; also updates ``atoms`` in place."""
        if not nlist.half:
            raise ValueError("the sharded engine consumes half neighbor lists")
        nlist.check_covers(atoms.n_atoms)
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            self._prepare(atoms, nlist)
        return self._evaluate(potential, lambda: self._compute_once(atoms))

    def _compute_once(self, atoms: Atoms) -> EAMComputation:
        group = self._live.group
        n = atoms.n_atoms
        n_ghosts = 0
        with self._span("halo-refresh"):
            for plan, views in zip(self._plans, self._views):
                views["positions"][:] = atoms.positions[plan.src]
                views["rho"][:] = 0.0
                views["fp"][:] = 0.0
                views["forces"][:] = 0.0
                n_ghosts += plan.n_ghosts

        with self._span("density", phase="density", n_shards=len(self._plans)):
            pair_energy = float(sum(group.run("density")))

        rho = np.zeros(n)
        with self._span("halo-exchange:rho", n_ghosts=n_ghosts):
            for plan, views in zip(self._plans, self._views):
                rho[plan.src] += views["rho"]
            for plan, views in zip(self._plans, self._views):
                views["rho"][: plan.n_owned] = rho[plan.owned]

        with self._span("embedding", phase="embedding"):
            embedding_energy = float(sum(group.run("embedding")))

        fp = np.empty(n)
        with self._span("halo-exchange:fp", n_ghosts=n_ghosts):
            for plan, views in zip(self._plans, self._views):
                fp[plan.owned] = views["fp"][: plan.n_owned]
            for plan, views in zip(self._plans, self._views):
                views["fp"][plan.n_owned:] = fp[plan.ghosts]

        with self._span("force", phase="force", n_shards=len(self._plans)):
            group.run("force")

        forces = np.zeros((n, 3))
        with self._span("halo-exchange:force", n_ghosts=n_ghosts):
            for plan, views in zip(self._plans, self._views):
                forces[plan.src] += views["forces"]

        self._halo_bytes_total += GHOST_BYTES_PER_STEP * n_ghosts
        count_health("sharded_halo_refresh")
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

"""One evaluation engine over arena regions, and its sharded configuration.

**The engine** (:class:`ShardEngine`).  Both process calculators build
epochs for one evaluation body.  An epoch is a :class:`ShardPlan` per
arena region: ``src`` (the global id of every local row, owned rows
first, then ghosts) and ``n_owned``; the region's pairs as local rows, in
task order; per worker, ``tasks`` (a ``[lo, hi)`` pair range per color)
and ``rows`` (the owned rows it embeds).  :func:`ghost_maps` derives two
maps per region from ``src`` in one O(ghosts) pass: the *owned-copy* map
(other regions' ghost rows of my owned rows) and the *owner* map (where
each of my ghost rows is owned).  The parent writes ``positions[src]``
in, zero-fills, sends one ``evaluate`` command and copies owned rows
out; it never sums.  The workers
(:meth:`~repro.parallel.backends.workers.ChunkWorker.do_evaluate`) pull
rho, fp and forces through the maps at the barriers the color schedule
already has (DESIGN §7.1).  A region without ghosts has empty maps:
:class:`~repro.parallel.backends.processes.ProcessSDCCalculator` is one
such region shared by ``n_workers`` color-scheduled workers, and one
shard another.  Where a doorbell team walks it
(:meth:`ShardEngine._team_colors`), the command is a ring of the team
(:meth:`ShardEngine._walk`), the epoch payload the team's walk laid out
in the arena once and re-aimed at each plan, and a whole MD step can be
one ring (:meth:`ShardEngine.verlet_ring`), the atoms' arrays then the
arena's rows.

**The sharded configuration** (:class:`ShardedSDCCalculator`, DESIGN
§7.4).  A near-cubic grid of shards, each one region with one worker
sweeping its pairs as one task.  A shard's pair list is a slice of the
list the engine was handed (:func:`partition_pairs`; no neighbor or cell
list is built here): every pair goes to exactly one shard — the common
one, else ``j``'s when ``i ^ j`` is odd and ``i``'s when it is even (a
half list has ``i < j``; parity splits a face's pairs evenly) — and a
shard's ghost rows are the remote endpoints of its pairs.  Workers take
the global periodic box, so only the summation order differs from
serial, and ownership decides balance, never correctness.  The
``sharded`` flight-recorder events (``shard-epoch``, ``migration``,
``halo-refresh``) fire at epoch changes only.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.geometry.box import Box
from repro.kernels.lowering import lower_potential
from repro.md.atoms import Atoms
from repro.md.integrators import REBUILD
from repro.md.neighbor.verlet import NeighborList
from repro.obs.tracer import trace_region
from repro.parallel.backends.base import BackendError
from repro.parallel.backends.workers import (
    DEFAULT_PHASE_TIMEOUT_S, HANDOVER, HalfStep, WorkerEngine, count_health,
    record_health,
)
from repro.parallel.cluster import node_grid
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation
from repro.utils.identity import IdentityKey

__all__ = [
    "ShardEngine", "ShardGrid", "ShardPlan", "ShardedSDCCalculator",
    "ghost_maps", "make_shard_grid", "partition_pairs",
]

#: per-ghost exchange traffic per force evaluation, in bytes: position
#: push (24) + rho reduction (8) + fp refresh (8) + force reduction (24)
GHOST_BYTES_PER_STEP = 64


@dataclass(frozen=True)
class ShardGrid:
    """A near-cubic grid of spatial shards over the global box.

    Unlike :class:`~repro.core.domain.SubdomainGrid`, a shard edge may be
    arbitrarily small: a shard's ghosts are the remote endpoints of its
    pairs, wherever they are, not a geometric shell.
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

    Reuses :func:`repro.parallel.cluster.node_grid` — the surface-minimizing
    factorization the analytic hybrid model assumes — and assigns the
    sorted factors to axes by decreasing box length.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    factors = sorted(node_grid(n_shards), reverse=True)
    axis_order = np.argsort(-box.lengths, kind="stable")
    counts = [1, 1, 1]
    for factor, axis in zip(factors, axis_order):
        counts[int(axis)] = int(factor)
    return ShardGrid(box=box, counts=(counts[0], counts[1], counts[2]))


@dataclass
class ShardPlan:
    """Everything static about one arena region within an epoch."""

    shard: int
    #: global index of every local row: owned atoms, then ghosts; distinct
    src: np.ndarray
    n_owned: int
    #: the region's pairs as local rows, in task order
    pair_i: np.ndarray
    pair_j: np.ndarray
    #: per worker: its ``[lo, hi)`` pair range of each color, and the
    #: ``[lo, hi)`` owned rows it embeds
    tasks: Sequence[Sequence[Tuple[int, int]]]
    rows: Sequence[Tuple[int, int]]

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
        """Ghost share of the region's local rows."""
        return self.n_ghosts / self.n_local if self.n_local else 0.0


def partition_pairs(
    shard_of: np.ndarray, n_shards: int, i_idx: np.ndarray, j_idx: np.ndarray
) -> List[ShardPlan]:
    """Partition a global half pair list over the shards owning its atoms
    (module docstring): each plan's ghost rows are exactly the non-owned
    endpoints of its pairs, which keep the input order, and its one worker
    sweeps them as one task and embeds the owned rows."""
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
        plans.append(ShardPlan(
            shard, src, len(owned), local_of[gi], local_of[gj],
            tasks=[[(0, len(gi))]], rows=[(0, len(owned))],
        ))
    return plans


def ghost_maps(plans: Sequence[ShardPlan]) -> Tuple[list, list]:
    """Per region, its owned-copy map and its owner map.

    An entry ``(other, there, here)`` of region ``r``'s owned-copy map
    says that ``other``'s ghost rows ``there`` copy ``r``'s owned rows
    ``here``; ``other``'s owner map holds it as ``(r, here, there)``.  An
    atom is at most one ghost row per region, so an entry's rows are
    distinct, and entries come in region order.
    """
    owner = np.empty(sum(plan.n_owned for plan in plans), dtype=np.int64)
    owner_row = np.empty_like(owner)
    for r, plan in enumerate(plans):
        owner[plan.owned] = r
        owner_row[plan.owned] = np.arange(plan.n_owned)
    copies: list = [[] for _ in plans]
    owners: list = [[] for _ in plans]
    for r, plan in enumerate(plans):
        ghost_rows = np.arange(plan.n_owned, plan.n_local)
        ghost_owner = owner[plan.ghosts]
        for other in np.unique(ghost_owner).tolist():
            here = ghost_rows[ghost_owner == other]
            there = owner_row[plan.src[here]]
            owners[r].append((other, there, here))
            copies[other].append((r, here, there))
    return copies, owners


class ShardEngine(WorkerEngine):
    """The force evaluation both process calculators share (module
    docstring).  A subclass builds epochs: ``_plan_epoch(atoms, nlist)``
    returns the regions for a new neighbor list, and ``_cache_counter``
    names its cache health counters."""

    _cache_counter = "engine"

    def __init__(
        self, timeout_s: float, restart_on_failure: bool, inline: bool
    ) -> None:
        super().__init__(timeout_s, restart_on_failure, inline)
        #: the epoch: regions cached on neighbor-list identity, and its box
        self._cached_nlist = IdentityKey()
        self._plans: List[ShardPlan] = []
        self._box: Optional[Box] = None
        #: first barrier generation of the next ``evaluate`` command
        self._generation = 1
        #: with ``record_writes``: one ``(kind, per-worker write sets)``
        #: entry per color phase, for the dynamic race detector
        self.last_write_record: List[Tuple[str, List[List[int]]]] = []

    # --- epoch -----------------------------------------------------------------

    def _region_sizes(self) -> List[Tuple[int, int]]:
        return [(plan.n_local, plan.n_pairs) for plan in self._plans]

    def _worker_regions(self) -> List[int]:
        return [r for r, plan in enumerate(self._plans) for _ in plan.rows]

    def _team_colors(self, potential: EAMPotential) -> int:
        """A doorbell team wherever the walk may run: one ghost-free region
        whose potential lowers and whose writes nobody records (the tier
        decides the rest), walking up to an SDC schedule's ``2 ** dims``
        colours."""
        plan, *more = self._plans
        if more or plan.n_ghosts or self.record_writes:
            return 0
        return 2 ** self.dims if lower_potential(potential) is not None else 0

    def _publish_epoch(self) -> None:
        """Write every region's pair list into the arena; then aim the
        team's walk at it (laid out there once per arena), or ship each
        worker its epoch payload, on which it re-slices its views."""
        live, sizes = self._live, self._region_sizes()
        live.views = [
            live.arena.region(r, size, *live.views[r : r + 1])
            for r, size in enumerate(sizes)
        ]
        for plan, views in zip(self._plans, live.views):
            views["pair_i"][:] = plan.pair_i
            views["pair_j"][:] = plan.pair_j
        if live.team is not None:
            live.walk = self._team_walk(self._plans[0], live.views[0])
            return
        copies, owners = ghost_maps(self._plans)
        # a region with ghosts is a shard, and its maps its one worker's
        live.group.run("epoch", [
            {"sizes": sizes, "box": self._box, "tasks": tasks, "rows": rows,
             "copies": copies[r], "owners": owners[r]}
            for r, plan in enumerate(self._plans)
            for tasks, rows in zip(plan.tasks, plan.rows)
        ])

    def _team_walk(self, plan: ShardPlan, views: Dict[str, np.ndarray]):
        """The team's walk of the one ghost-free region, in the arena: the
        live one aimed at the new plan, else one laid out afresh."""
        live = self._live
        handover = [views[key] for key in HANDOVER]
        pairs = views["pair_i"], views["pair_j"], plan.tasks, plan.rows
        walk = live.walk
        if walk is not None and walk.replan(*pairs, handover, views["pair_phi"]):
            return walk
        walk = kernels.active_tier().sdc_walker(
            *pairs, plan.n_local, live.arena.barrier, parent=os.getpid(),
            handover=handover, phi=views["pair_phi"], team_block=live.arena.team,
        )
        if walk is None:
            raise RuntimeError(f"{self.name}: the team cannot walk this epoch")
        walk.watch(live.group.fds)
        return walk

    def _prepare(self, atoms: Atoms, nlist: NeighborList) -> bool:
        """Re-plan when the neighbor list changed ("steps 1 and 2 will be
        done when the neighbor list is created or updated", Section II.D);
        True when it did."""
        if self._cached_nlist.matches(nlist) and self._plans:
            count_health(f"{self._cache_counter}_cache_hit")
            return False
        count_health(f"{self._cache_counter}_cache_miss")
        self._plans = self._plan_epoch(atoms, nlist)
        self._cached_nlist.set(nlist)
        return True

    def _check_epoch(self, atoms: Atoms, nlist: NeighborList) -> None:
        """The one epoch check: a new list or a new box opens an epoch."""
        if not nlist.half:
            raise ValueError(f"{self.name} consumes half neighbor lists")
        nlist.check_covers(atoms.n_atoms)
        box = self._box
        with self._span("neighbor-rebuild", phase="neighbor-rebuild"):
            if self._prepare(atoms, nlist) or box is None or not (
                box is atoms.box
                or np.array_equal(box.lengths, atoms.box.lengths)
                and np.array_equal(box.periodic, atoms.box.periodic)
            ):
                self._box = atoms.box
                self._new_epoch()

    # --- the ForceCalculator protocol -----------------------------------------

    def compute(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        """Full evaluation; ``atoms`` is updated in place and the result's
        arrays *are* ``atoms.rho``/``fp``/``forces`` — on a doorbell team
        the arena's own rows (:meth:`_walk`), else copied out of the arena
        once, which the next sync zero-fills."""
        self._check_epoch(atoms, nlist)
        return self._evaluate(potential, lambda: self._evaluate_once(atoms))

    def verlet_ring(self, potential, atoms, nlist, kicks, half_skin):
        """One MD step as one ring of the doorbell team, on
        :meth:`~repro.core.strategies.sdc.SDCStrategy.verlet_ring`'s terms:
        each worker kick-drifts its rows, all meet at the Verlet check,
        walk the evaluation and kick their rows again.  None where the
        engine has no team (several regions, the NumPy tier, an unlowered
        potential, ``record_writes``) or the kick cannot ring, nothing
        touched.  A helper lost before every worker joined the ring is
        respawned and the ring rung again, as an evaluation is; one lost
        after is a :class:`HalfStep`, never retried."""
        if not self.caller_walks():
            return None
        # untraced, with the list, box, potential and tier of the live
        # epoch and workers, the epoch check and the spawn test are moot
        ready = (
            self._tracer is None and self._epoch_published
            and self._cached_nlist.matches(nlist) and atoms.box is self._box
            and potential is self._potential
            and kernels.active_tier() is self._spawned_tier
            and not self._live.group.broken and nlist.n_atoms == atoms.n_atoms
        )
        if not ready:
            self._check_epoch(atoms, nlist)
        return self._evaluate(
            potential, lambda: self._walk(atoms, nlist, kicks, half_skin), ready
        )

    def _evaluate_once(self, atoms: Atoms) -> EAMComputation:
        """Sync, one ``evaluate`` command, copy out — or one walk of the
        team: the energies from the workers' partial sums, no potential
        call in the parent."""
        if self._live.team is not None:
            return self._walk(atoms)
        plans, n_colors = self._plans, len(self._plans[0].tasks[0])
        # a region owning every atom holds them in global order: it moves
        # its rows by memcpy, not by gather
        moves = [
            (slice(None), slice(None)) if plan.n_owned == atoms.n_atoms
            else (plan.src, plan.owned)
            for plan in plans
        ]
        # sync: the whole per-step setup cost of the persistent engine
        with self._span("sync", phase="sync"):
            for (src, _), views in zip(moves, self._live.views):
                views["positions"][:] = atoms.positions[src]
                views["rho"][:] = 0.0
                views["fp"][:] = 0.0
                views["forces"][:] = 0.0
        base = self._generation
        self._generation += 2 * n_colors + 2
        start = time.perf_counter()
        replies = self._live.group.run(
            "evaluate", [base] * len(self._worker_regions())
        )
        pair_energies, embedding_energies, marks, writes, pids = zip(*replies)
        if self._tracer is not None:
            self._trace((start, time.perf_counter()), n_colors, marks, pids)
        if self.record_writes:
            kinds = ["density"] * n_colors + ["force"] * n_colors
            self.last_write_record = [
                (kind, [per_task[phase] for per_task in writes])
                for phase, kind in enumerate(kinds)
            ]
        for plan, (_, owned), views in zip(plans, moves, self._live.views):
            for name in ("rho", "fp", "forces"):
                getattr(atoms, name)[owned] = views[name][: plan.n_owned]
        return EAMComputation(
            float(sum(pair_energies)), float(sum(embedding_energies)),
            atoms.rho, atoms.fp, atoms.forces,
        )

    def _walk(self, atoms: Atoms, nlist=None, kicks=None, half_skin=None):
        """One walk of the team, this process as worker 0, over the arena's
        rows (a helper reads only memory mapped before its fork); with
        ``kicks`` one step ring of it (:meth:`verlet_ring`).  A ring adopts
        ``atoms``: their per-atom arrays become those rows
        (:meth:`~repro.parallel.backends.workers._Live.adopt`), so no step
        of theirs copies anything; other atoms are copied in and out."""
        live = self._live
        if live.team is None:  # respawned onto the command route
            return None
        walk, views = live.walk, live.views[0]
        rho, fp, forces = views["rho"], views["fp"], views["forces"]
        with self._span("sync", phase="sync"):
            if kicks is not None or live.atoms is atoms:
                live.adopt(atoms)
            else:
                live.privatize()
                views["positions"][...] = atoms.positions
            if not walk.bind(
                self._potential, views["positions"], self._box, rho, fp, forces
            ):
                raise RuntimeError(f"{self.name}: the team cannot walk this epoch")
            if kicks is not None:
                if not live.reference.matches(nlist):  # once per list
                    views["reference"][...] = nlist.reference_positions
                    live.reference.set(nlist)
                if not walk.ring(
                    atoms.velocities, atoms.types, atoms.masses,
                    views["reference"], kicks, half_skin,
                ):
                    return None
            drift = kicks is not None and half_skin is not None
            if not drift:  # else each worker zeroes its rows
                rho.fill(0.0)
                forces.fill(0.0)
        base = self._generation
        self._generation += 2 * walk.n_colors + 3
        walk.deadline = time.monotonic() + self.timeout_s
        start = time.perf_counter()
        statuses = live.team.walk(walk, base)
        window = (start, time.perf_counter())
        lost = [k - 1 for k, status in enumerate(statuses) if status == walk.LOST]
        if (
            not lost and walk.ABORTED in statuses and max(statuses) < 0
            and time.monotonic() >= walk.deadline  # else a kick's type check
        ):  # worker 0 gave up at the deadline on a helper that answered
            lost = [k for k, status in enumerate(statuses[1:]) if status != walk.DONE]
        if lost:
            live.group.broken = True
            moved = kicks is not None and walk.joined(base)
            raise (HalfStep if moved else BackendError)(
                f"worker(s) {lost} died or timed out during 'evaluate'"
            )
        rebuild = walk.stopped(statuses)
        if self._tracer is not None:
            pids, marks = [os.getpid(), *live.group.pids], walk.marks.copy()
            self._trace(window, walk.n_colors, marks, pids, drift, kicks, rebuild)
        if rebuild:
            return REBUILD
        if live.atoms is not atoms:
            atoms.rho[...], atoms.fp[...], atoms.forces[...] = rho, fp, forces
        pair, embedding, moments = walk.sums()
        result = EAMComputation(pair, embedding, atoms.rho, atoms.fp, atoms.forces)
        return result if kicks is None else (result, moments)

    def _trace(
        self, window, n_colors, marks, pids, drift=False, kicks=None,
        rebuild=False,
    ) -> None:
        """One evaluation's timeline from the workers' marks, a
        ``worker-<pid>`` track each: the density colors, the embedding,
        the force colors, the force pull (:func:`trace_region`); a ring's
        kick-drift first and its closing kick last instead of the pull,
        only the kick-drift where it stopped for a rebuild."""
        colors = range(n_colors)
        integrate = {"phase": "integrate", "n_chunks": len(pids)}
        steps = [
            *[("kick-drift", integrate)] * drift,
            *((f"density:color{c}", {"phase": "density", "color": c})
              for c in colors),
            ("embedding", {"phase": "embedding"}),
            *((f"force:color{c}", {"phase": "force", "color": c})
              for c in colors),
            ("force:halo", {"phase": "force"}) if kicks is None
            else ("kick", integrate),
        ]
        trace_region(self._tracer, window, steps[:1] if rebuild else steps, [
            (worker, f"worker-{pid}", pid) for worker, pid in zip(marks, pids)
        ])


class ShardedSDCCalculator(ShardEngine):
    """Multi-shard EAM force engine with worker-side halo exchange.

    A :class:`~repro.md.simulation.ForceCalculator`.  ``n_shards`` sets
    the shard count (:func:`make_shard_grid` picks the grid); ``dims`` is
    validated and otherwise inert; ``engine`` is ``"processes"``
    (persistent forked workers) or ``"inline"`` (the same body on threads
    in-process: the differential reference, and the fallback without
    ``fork``); ``timeout_s``
    bounds a command before a worker is declared lost.
    """

    name = "sdc-sharded"
    _cache_counter = "sharded_epoch"

    def __init__(
        self,
        n_shards: int = 2,
        dims: int = 2,
        engine: str = "processes",
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
                "sharded", "engine-fallback", severity="warning",
                wanted="processes", used="inline", reason="no fork support",
            )
            engine = "inline"
        super().__init__(timeout_s, restart_on_failure, inline=engine == "inline")
        self.n_shards, self.dims, self.engine = n_shards, dims, engine
        self._shard_grid: Optional[ShardGrid] = None
        # ownership cache + migration accounting (keyed on nlist identity)
        self._ownership_key = IdentityKey()
        self._ownership: Optional[Tuple[ShardGrid, np.ndarray]] = None
        self._prev_assignment: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._n_migrated_total = 0
        self._halo_bytes_total = 0

    @property
    def shard_grid(self) -> Optional[ShardGrid]:
        """The current shard grid (None before the first compute)."""
        return self._shard_grid

    def halo_stats(self) -> Dict[str, object]:
        """Per-shard occupancy of the current epoch: pairs swept, atoms
        owned, ghost rows and their share of the shard's local rows."""
        plans = self._plans
        return {
            "n_pairs": [plan.n_pairs for plan in plans],
            "n_owned": [plan.n_owned for plan in plans],
            "n_ghosts": [plan.n_ghosts for plan in plans],
            "halo_fraction": [plan.halo_fraction for plan in plans],
            "bytes_per_step": GHOST_BYTES_PER_STEP * self._n_ghosts(),
        }

    def _n_ghosts(self) -> int:
        return int(sum(plan.n_ghosts for plan in self._plans))

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
            "n_ghosts": self._n_ghosts(),
            "decomposition_cached": bool(self._plans),
        }

    def on_neighbor_rebuild(self, atoms: Atoms, nlist: NeighborList) -> None:
        """Simulation rebuild hook: re-home atoms to their shards eagerly,
        so the ``migration`` event lands next to ``neighbor-rebuild``."""
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
        if self._prev_assignment is not None:
            # compared by permanent atom id (a reorder moves the rows)
            prev_ids, prev_shard = self._prev_assignment
            common = min(len(prev_ids), len(ids))
            n_migrated = int(np.count_nonzero(
                prev_shard[np.argsort(prev_ids, kind="stable")[:common]]
                != shard_of[np.argsort(ids, kind="stable")[:common]]
            ))
            self._n_migrated_total += n_migrated
            record_health(
                "sharded", "migration", epoch=self._epoch,
                n_migrated=n_migrated, n_atoms=len(ids), n_shards=self.n_shards,
            )
            count_health("sharded_migration_events")
        self._prev_assignment = (ids.copy(), shard_of.copy())
        self._ownership_key.set(nlist)
        self._ownership = (grid, shard_of)
        return self._ownership

    def _plan_epoch(self, atoms: Atoms, nlist: NeighborList) -> List[ShardPlan]:
        """Partition the handed pair list over the shards."""
        grid, shard_of = self._assign_ownership(atoms, nlist)
        self._shard_grid = grid
        plans = partition_pairs(shard_of, grid.n_shards, *nlist.pair_arrays())
        n_ghosts = int(sum(plan.n_ghosts for plan in plans))
        epoch = self._epoch + 1  # the epoch this partition opens
        record_health(
            "sharded", "shard-epoch", epoch=epoch, engine=self.engine,
            n_shards=grid.n_shards, grid=list(grid.counts),
            n_atoms=nlist.n_atoms, n_ghosts=n_ghosts,
            n_local_pairs=int(sum(plan.n_pairs for plan in plans)),
            mean_halo_fraction=float(np.mean([p.halo_fraction for p in plans])),
            kernel_tier=kernels.active_tier().name,
        )
        record_health(
            "sharded", "halo-refresh", epoch=epoch, n_ghosts=n_ghosts,
            bytes_per_step=GHOST_BYTES_PER_STEP * n_ghosts, n_shards=grid.n_shards,
        )
        return plans

    def _evaluate(self, potential, once, ready=False):
        """One evaluation on either route, a plain one or a step ring's,
        and its halo refresh accounted (a ring that stopped for a rebuild
        or could not ring evaluated nothing)."""
        out = super()._evaluate(potential, once, ready)
        if out is not None and out is not REBUILD:
            self._halo_bytes_total += GHOST_BYTES_PER_STEP * self._n_ghosts()
            count_health("sharded_halo_refresh")
        return out

"""Persistent process-parallel SDC: forked workers over a shared arena.

This calculator runs the SDC color phases across *processes*, the
closest Python analog of the paper's OpenMP threads, on any tier: on the
NumPy tier the GIL caps what
:class:`~repro.parallel.backends.threads.ThreadBackend` can demonstrate.
Within a color, workers scatter into one anonymous shared mapping
**without any locks** — legal for the reason the paper gives: same-color
subdomains write disjoint atoms — and between colors they meet at an
in-arena barrier of their own.

Where the walk may run — the C tier, a potential that lowers, no write
recording — the workers are one team, as on threads: this process walks
as worker 0 and ``n_workers - 1`` forked helpers answer a doorbell in the
arena (:class:`~repro.kernels.c_tier.SDCTeam` laid out there, a shared
futex), each in one ``sdc_walk`` call per evaluation.  A new neighbor
list is published in the arena too — pairs, tasks, rows and the walk's
shared fields — so neither an evaluation nor an epoch sends anything down
a pipe; the pipes carry startup, ``stop`` and a helper's death.  Under
velocity Verlet the driver rings a whole step on that team
(:meth:`~repro.parallel.backends.sharded.ShardEngine.verlet_ring`): the
atoms' per-atom arrays are then the arena's rows, and a step copies
nothing.
Everywhere else ``n_workers`` forked workers run the per-colour body, the
parent sending one ``evaluate`` command per force evaluation and one
``epoch`` payload per list.

It is the one-shard case of
:class:`~repro.parallel.backends.sharded.ShardEngine`: one region whose
rows are the atoms themselves (no ghosts, so the body's halo pulls are
empty), shared by ``n_workers`` workers running the tasks and rows of the
:class:`~repro.core.sdc_plan.SDCPlan` — the plan ``SDCStrategy`` runs on
threads — cached on neighbor-list identity, so a steady step pays only
kernels, barriers, one positions memcpy and the zero fills (``sync``;
a ringed step not even the memcpy).
A worker killed or hung mid-evaluation is a
:class:`~repro.parallel.backends.base.BackendError` — never a hang or a
partial scatter — after one transparent respawn and retry; a task that
raises releases its siblings and the parent re-raises its own exception.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.domain import SubdomainGrid
from repro.core.partition import PairPartition
from repro.core.schedule import ColorSchedule
from repro.core.sdc_plan import SDCPlan, SDCPlanner
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends.sharded import ShardEngine, ShardPlan
from repro.parallel.backends.workers import DEFAULT_PHASE_TIMEOUT_S


class ProcessSDCCalculator(ShardEngine):
    """SDC force computation on persistent forked workers.

    Satisfies the :class:`~repro.md.simulation.ForceCalculator` protocol;
    requires the ``fork`` start method (Linux).  Workers and arena are
    created on the first ``compute`` and reused; ``close()`` (or the
    context-manager exit) releases both, and the next ``compute`` revives
    them.  ``restart_on_failure=False`` disables the respawn + retry.
    """

    name = "sdc-processes"
    _cache_counter = "sdc_decomp"

    def __init__(
        self,
        dims: int = 2,
        n_workers: int = 2,
        axes: Optional[Sequence[int]] = None,
        adaptive: bool = True,
        record_writes: bool = False,
        restart_on_failure: bool = True,
    ) -> None:
        if dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError("ProcessSDCCalculator requires fork support")
        super().__init__(DEFAULT_PHASE_TIMEOUT_S, restart_on_failure, inline=False)
        self.dims = dims
        self.n_workers = n_workers
        self.axes = list(axes) if axes is not None else None
        self.adaptive = adaptive
        #: workers shadow their views and ship write sets back into
        #: ``last_write_record`` (for repro.analysis.racecheck)
        self.record_writes = record_writes
        self._plan: Optional[SDCPlan] = None
        self._planner = SDCPlanner()

    def _plan_epoch(self, atoms: Atoms, nlist: NeighborList) -> List[ShardPlan]:
        """The SDC plan as one region: the atoms' own rows, no ghosts."""
        self._plan = plan = self._planner(
            atoms.box, nlist, self.dims, self.n_workers,
            axes=self.axes, adaptive=self.adaptive,
        )
        src = np.arange(nlist.n_atoms)
        return [ShardPlan(
            0, src, len(src), plan.pair_i, plan.pair_j, plan.tasks, plan.rows
        )]

    def health_snapshot(self) -> Dict[str, object]:
        """Engine lifecycle state for :meth:`HealthMonitor.snapshot`."""
        return {
            **self._lifecycle_snapshot(),
            "pool_live": self._live.group is not None,
            "n_workers": self.n_workers,
            "decomposition_cached": self._plan is not None,
        }

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

"""The SDC execution plan — steps 1-3 of the method.

"Steps 1 and 2 will be done when the neighbor list is created or updated"
(Section II.D): an :class:`SDCPlanner` does the grid work — grid,
coloring and its check, color schedule — once per grid, and per list lays
the pair list out the way the paper's ``#pragma omp for schedule(static)``
reads it: color-major, worker-major, so a worker's share of a color is one
contiguous ``[lo, hi)`` range.  Every executing SDC calculator (thread
pool, forked workers, the pair-potential calculator) holds one planner and
its :class:`SDCPlan` cached on neighbor-list identity, and walks the same
``tasks[k][c]``; they differ only in who waits on what at the color
barrier.

Beside it, the layout of the comparison strategies, which partition the
loop over atoms instead of space: :class:`RowBlockLayout`, the same shape
with a single phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.coloring import lattice_coloring, validate_coloring
from repro.core.conflict import check_schedule_conflicts
from repro.core.domain import SubdomainGrid, decompose, decompose_balanced
from repro.core.partition import (
    PairPartition,
    Partition,
    build_pair_partition,
    build_partition,
    rows_in_order,
)
from repro.core.schedule import ColorSchedule, build_schedule
from repro.geometry.box import Box
from repro.md.neighbor.cells import concat_ranges
from repro.md.neighbor.verlet import NeighborList


@dataclass(frozen=True)
class SDCPlan:
    """One decomposition of one list, scheduled for ``len(tasks)`` workers.

    Attributes
    ----------
    grid, partition, schedule:
        the decomposition, its atom partition and its color schedule.
    pair_i, pair_j:
        the pair list in execution order (color-major, worker-major).
    tasks:
        ``tasks[k][c]`` is the ``[lo, hi)`` range of ``pair_i``/``pair_j``
        worker ``k`` runs in color ``c`` — its static chunk of the color's
        subdomains, in CSR order; empty when the color has fewer
        subdomains than workers.
    rows:
        ``rows[k]`` is the ``[lo, hi)`` block of atom rows worker ``k``
        embeds.
    """

    grid: SubdomainGrid
    partition: Partition
    schedule: ColorSchedule
    pair_i: np.ndarray
    pair_j: np.ndarray
    tasks: List[List[Tuple[int, int]]]
    rows: List[Tuple[int, int]]
    nlist: NeighborList

    @cached_property
    def pairs(self) -> PairPartition:
        """The pair partition, built when first read: no executor does."""
        return build_pair_partition(self.partition, self.nlist)


def row_blocks(n_atoms: int, n_workers: int) -> List[Tuple[int, int]]:
    """``n_workers`` contiguous near-equal ``[lo, hi)`` blocks of atom rows
    (OpenMP static over atoms)."""
    return [
        (k * n_atoms // n_workers, (k + 1) * n_atoms // n_workers)
        for k in range(n_workers)
    ]


@dataclass(frozen=True)
class RowBlockLayout:
    """A neighbor list as it is, split by atom rows over ``len(tasks)``
    workers — the layout of the comparison strategies, which partition
    the loop over atoms and differ in how they guard the writes.

    Same shape as :class:`SDCPlan` with one phase: ``tasks[k][0]`` is the
    ``[lo, hi)`` range of ``pair_i``/``pair_j`` holding exactly the CSR
    rows of the block ``rows[k]``.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    tasks: List[List[Tuple[int, int]]]
    rows: List[Tuple[int, int]]


def row_block_layout(nlist: NeighborList, n_workers: int) -> RowBlockLayout:
    """Split ``nlist`` (half or full) by row blocks: a contiguous block of
    atom rows is a contiguous range of the CSR payload."""
    pair_i, pair_j = nlist.pair_arrays()
    offsets = nlist.csr.offsets
    rows = row_blocks(nlist.n_atoms, n_workers)
    return RowBlockLayout(
        pair_i=pair_i,
        pair_j=pair_j,
        tasks=[[(int(offsets[lo]), int(offsets[hi]))] for lo, hi in rows],
        rows=rows,
    )


def _grid_work(
    box, reach, dims, n_workers, axes, adaptive, max_per_axis, grid_factory,
    schedule_transform,
):
    """``(grid, schedule, the subdomains in execution order, where task
    color * n_workers + k ends in it)``, the coloring checked."""
    if grid_factory is not None:
        grid = grid_factory(box, reach)
    elif adaptive:
        grid = decompose_balanced(box, reach, dims, n_workers, axes=axes)
    else:
        grid = decompose(box, reach, dims, axes=axes, max_per_axis=max_per_axis)
    coloring = lattice_coloring(grid)
    validate_coloring(grid, coloring)
    schedule = build_schedule(coloring)
    if schedule_transform is not None:
        schedule = schedule_transform(schedule)
    chunks = [
        members
        for color in range(schedule.n_colors)
        for members in schedule.thread_assignment(color, n_workers)
    ]
    task_ends = np.cumsum([0] + [len(c) for c in chunks])
    return grid, schedule, np.concatenate([np.empty(0, np.int64), *chunks]), task_ends


class SDCPlanner:
    """:func:`build_sdc_plan` that does the grid work once per grid.

    The grid, its coloring, :func:`~repro.core.coloring.validate_coloring`
    and the schedule are kept under the box lengths and periodicity, the
    reach, ``dims``, ``axes``, ``adaptive``, ``max_per_axis`` and the
    worker count, and redone whenever one of them changes.  A plan with a
    ``grid_factory`` or ``schedule_transform`` hook is built whole every
    time, so the hook runs (and a fault it injects shows) on every plan.
    """

    def __init__(self) -> None:
        self._key: Optional[tuple] = None
        self._work: Optional[tuple] = None

    def __call__(
        self,
        box: Box,
        nlist: NeighborList,
        dims: int,
        n_workers: int,
        axes: Optional[Sequence[int]] = None,
        adaptive: bool = True,
        max_per_axis: Optional[int] = None,
        grid_factory: Optional[Callable[..., SubdomainGrid]] = None,
        schedule_transform: Optional[
            Callable[[ColorSchedule], ColorSchedule]
        ] = None,
        validate_conflicts: bool = False,
    ) -> SDCPlan:
        """Decompose ``box`` for ``nlist`` and schedule it on ``n_workers``.

        ``adaptive`` picks per-axis subdomain counts that divide evenly
        over the workers (the paper's load-balance discussion), otherwise
        the constraint-maximal counts (capped by ``max_per_axis``) are
        used.  ``grid_factory`` (``(box, reach) -> SubdomainGrid``) and
        ``schedule_transform`` are the fault-injection hooks of
        :class:`~repro.core.strategies.sdc.SDCStrategy`;
        ``validate_conflicts`` runs the subdomain-granular static checker
        on the result and raises on a same-color write overlap.
        """
        if not nlist.half:
            raise ValueError("SDC consumes half neighbor lists")
        reach = nlist.cutoff + nlist.skin
        key = (
            tuple(box.lengths), tuple(box.periodic), reach, dims,
            axes if axes is None else tuple(axes), adaptive, max_per_axis,
            n_workers,
        )
        hooked = grid_factory is not None or schedule_transform is not None
        if hooked or key != self._key:
            self._work = _grid_work(
                box, reach, dims, n_workers, axes, adaptive, max_per_axis,
                grid_factory, schedule_transform,
            )
            self._key = None if hooked else key
        grid, schedule, sequence, task_ends = self._work
        partition = build_partition(nlist.reference_positions, grid)
        # a pair is its row atom's subdomain's, and the CSR row-sorted: the
        # rows of the atoms subdomain by subdomain in execution order
        first, counts = partition.csr.offsets[:-1], partition.counts()
        atoms = partition.csr.values[concat_ranges(first[sequence], counts[sequence])]
        pair_i, pair_j, ends = rows_in_order(nlist, atoms)
        bounds = ends[np.cumsum(np.r_[0, counts[sequence]])[task_ends]].tolist()
        plan = SDCPlan(
            grid=grid,
            partition=partition,
            schedule=schedule,
            pair_i=pair_i,
            pair_j=pair_j,
            tasks=[
                [(bounds[t], bounds[t + 1]) for t in range(k, len(bounds) - 1, n_workers)]
                for k in range(n_workers)
            ],
            rows=row_blocks(nlist.n_atoms, n_workers),
            nlist=nlist,
        )
        if validate_conflicts:
            report = check_schedule_conflicts(plan.pairs, plan.schedule)
            if not report.ok:
                raise RuntimeError(
                    f"SDC schedule has {report.n_conflicting_atoms} write "
                    f"conflicts; first: {report.conflicts[:3]}"
                )
        return plan


def build_sdc_plan(box: Box, nlist: NeighborList, *args, **kwargs) -> SDCPlan:
    """One plan, nothing kept: :meth:`SDCPlanner.__call__` on a new planner."""
    return SDCPlanner()(box, nlist, *args, **kwargs)

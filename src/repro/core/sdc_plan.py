"""The SDC execution plan — steps 1-3 of the method, built once.

"Steps 1 and 2 will be done when the neighbor list is created or updated"
(Section II.D): :func:`build_sdc_plan` runs the whole pipeline — grid,
coloring, atom and pair partition, color schedule — and lays the pair list
out the way the paper's ``#pragma omp for schedule(static)`` reads it:
color-major, worker-major, so a worker's share of a color is one contiguous
``[lo, hi)`` range.  Every executing SDC calculator (thread pool, forked
workers, the pair-potential calculator) holds one :class:`SDCPlan` cached on
neighbor-list identity and walks the same ``tasks[k][c]``; they differ only
in who waits on what at the color barrier.

Beside it, the layout of the comparison strategies, which partition the
loop over atoms instead of space: :class:`RowBlockLayout`, the same shape
with a single phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
from repro.geometry.box import Box
from repro.md.neighbor.verlet import NeighborList


@dataclass(frozen=True)
class SDCPlan:
    """One decomposition, scheduled for ``len(tasks)`` workers.

    Attributes
    ----------
    grid, pairs, schedule:
        the decomposition, its pair partition and its color schedule.
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
    pairs: PairPartition
    schedule: ColorSchedule
    pair_i: np.ndarray
    pair_j: np.ndarray
    tasks: List[List[Tuple[int, int]]]
    rows: List[Tuple[int, int]]


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


def color_task_layout(
    pairs: PairPartition, schedule: ColorSchedule, n_workers: int
) -> Tuple[np.ndarray, List[List[Tuple[int, int]]]]:
    """The execution order of a pair partition: color-major, worker-major.

    Returns ``(layout, tasks)``: the partition's pair slots in execution
    order, and per worker ``k`` and color ``c`` the ``[lo, hi)`` range of
    the subdomains the static schedule gives ``k`` in ``c`` — one task,
    large enough to amortise its NumPy calls.  Same-color write sets are
    disjoint, so a range is as race-free as its members, and an unbuffered
    scatter over it accumulates in the per-subdomain order.
    """
    rows: List[np.ndarray] = []
    tasks: List[List[Tuple[int, int]]] = [[] for _ in range(n_workers)]
    counts, filled = pairs.pair_counts(), 0
    for color in range(schedule.n_colors):
        for k, members in enumerate(schedule.thread_assignment(color, n_workers)):
            rows += [np.arange(*pairs.offsets[s : s + 2]) for s in members]
            count = int(counts[members].sum())
            tasks[k].append((filled, filled + count))
            filled += count
    return np.concatenate(rows), tasks


def build_sdc_plan(
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

    ``adaptive`` picks per-axis subdomain counts that divide evenly over
    the workers (the paper's load-balance discussion), otherwise the
    constraint-maximal counts (capped by ``max_per_axis``) are used.
    ``grid_factory`` (``(box, reach) -> SubdomainGrid``) and
    ``schedule_transform`` are the fault-injection hooks of
    :class:`~repro.core.strategies.sdc.SDCStrategy`; ``validate_conflicts``
    runs the subdomain-granular static checker on the result and raises on
    a same-color write overlap.
    """
    if not nlist.half:
        raise ValueError("SDC consumes half neighbor lists")
    reach = nlist.cutoff + nlist.skin
    if grid_factory is not None:
        grid = grid_factory(box, reach)
    elif adaptive:
        grid = decompose_balanced(box, reach, dims, n_workers, axes=axes)
    else:
        grid = decompose(box, reach, dims, axes=axes, max_per_axis=max_per_axis)
    coloring = lattice_coloring(grid)
    validate_coloring(grid, coloring)
    partition = build_partition(nlist.reference_positions, grid)
    pairs = build_pair_partition(partition, nlist)
    schedule = build_schedule(coloring)
    if schedule_transform is not None:
        schedule = schedule_transform(schedule)
    if validate_conflicts:
        report = check_schedule_conflicts(pairs, schedule)
        if not report.ok:
            raise RuntimeError(
                f"SDC schedule has {report.n_conflicting_atoms} write "
                f"conflicts; first: {report.conflicts[:3]}"
            )
    layout, tasks = color_task_layout(pairs, schedule, n_workers)
    return SDCPlan(
        grid=grid,
        pairs=pairs,
        schedule=schedule,
        pair_i=pairs.i_idx[layout],
        pair_j=pairs.j_idx[layout],
        tasks=tasks,
        rows=row_blocks(partition.n_atoms, n_workers),
    )

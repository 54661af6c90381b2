"""Cell (link-cell) binning of atoms.

Binning the box into cells no smaller than the interaction cutoff reduces
neighbor search from O(N^2) to O(N): every neighbor of an atom lives in the
atom's own cell or one of the 26 surrounding cells.  The cell list is also
the geometric backbone of the paper's contribution — SDC subdomains are
unions of cells, and the data-reordering optimization sorts atoms by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Tuple

import numpy as np

from repro import kernels
from repro.geometry.box import Box

#: relative tolerance for snapping ``box.length / min_cell_size`` to an
#: integer before flooring (guards against losing a cell to FP noise)
CELL_COUNT_RTOL = 1e-9

#: the lexicographically positive half of the 27-cell stencil
FORWARD_OFFSETS = tuple(o for o in product((-1, 0, 1), repeat=3) if o > (0, 0, 0))


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s+l) for s, l in zip(starts, lengths)]`` fast.

    The workhorse of vectorized pair generation: builds, in one pass and
    without a Python loop, the flat index array that visits every element of
    every requested range.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have the same shape")
    if np.any(lengths < 0):
        raise ValueError("lengths must be non-negative")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # exclusive prefix sum of lengths gives where each range begins in output
    offsets = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - offsets, lengths)
    return out


@dataclass(frozen=True)
class CellList:
    """Atoms binned into a regular grid of cells covering the box.

    Attributes
    ----------
    n_cells:
        cells per axis, ``(ncx, ncy, ncz)``, each >= 1.
    cell_size:
        actual edge lengths of one cell (``box.lengths / n_cells``).
    cell_of_atom:
        flat cell id of each atom.
    order:
        atom indices sorted by cell id (stable) — atoms of cell ``c`` are
        ``order[starts[c]:starts[c+1]]``.
    starts:
        CSR offsets into ``order``, length ``n_total_cells + 1``.
    """

    box: Box
    n_cells: tuple[int, int, int]
    cell_size: np.ndarray
    cell_of_atom: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    @property
    def n_total_cells(self) -> int:
        """Total number of cells in the grid."""
        ncx, ncy, ncz = self.n_cells
        return ncx * ncy * ncz

    @property
    def n_atoms(self) -> int:
        """Number of binned atoms."""
        return len(self.cell_of_atom)

    def counts(self) -> np.ndarray:
        """Occupancy of each cell."""
        return np.diff(self.starts)

    def atoms_in_cell(self, cell_id: int) -> np.ndarray:
        """Atom indices contained in flat cell ``cell_id``."""
        return self.order[self.starts[cell_id] : self.starts[cell_id + 1]]

    def cell_coords(self, cell_ids: np.ndarray) -> np.ndarray:
        """Convert flat cell ids to integer ``(cx, cy, cz)`` coordinates."""
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        _, ncy, ncz = self.n_cells
        cz = cell_ids % ncz
        cy = (cell_ids // ncz) % ncy
        cx = cell_ids // (ncz * ncy)
        return np.stack([cx, cy, cz], axis=-1)

    def flat_ids(self, coords: np.ndarray) -> np.ndarray:
        """Convert integer cell coordinates to flat ids (no wrapping)."""
        coords = np.asarray(coords, dtype=np.int64)
        _, ncy, ncz = self.n_cells
        return (coords[..., 0] * ncy + coords[..., 1]) * ncz + coords[..., 2]

    def check_bins(self, wrapped: np.ndarray, box: Box, min_cell_size: float) -> None:
        """Raise ``ValueError`` unless this grid bins ``wrapped`` in ``box``
        with every split axis cut into cells of edge >= ``min_cell_size``."""
        if self.n_atoms != len(wrapped):
            raise ValueError(
                f"cells= bins {self.n_atoms} atoms but positions has {len(wrapped)}"
            )
        if not (
            np.array_equal(self.box.lengths, box.lengths)
            and np.array_equal(self.box.periodic, box.periodic)
        ):
            raise ValueError("cells= was built for a different box")
        split = np.array(self.n_cells) > 1
        if np.any(self.cell_size[split] < min_cell_size * (1.0 - CELL_COUNT_RTOL)):
            raise ValueError(
                f"cells= cell size {self.cell_size} is below cutoff+skin="
                f"{min_cell_size:.3f}"
            )
        ids = flat_cell_ids(wrapped, self.cell_size, self.n_cells)
        if not np.array_equal(self.cell_of_atom, ids):
            raise ValueError("cells= does not bin these positions")

    def forward_stencil(self):
        """Yield ``(src, dst, shift)`` for each of the 13 forward offsets.

        ``dst[k]`` is the cell at ``coords(src[k]) + offset``, wrapped on
        periodic axes; ``shift[k]`` is the lattice translation ``±L`` its
        atoms carry as seen from ``src[k]`` (zero unless the step wrapped).
        Steps off an open axis are clipped.  Together with each cell's own
        interior the 13 offsets visit every unordered (cell pair, image)
        of the 27-stencil exactly once, so nothing needs deduplicating —
        a periodic axis with one or two cells just yields the same cell
        pair again under a different, non-zero shift.
        """
        n_cells = np.array(self.n_cells, dtype=np.int64)
        all_ids = np.arange(self.n_total_cells, dtype=np.int64)
        coords = self.cell_coords(all_ids)
        for offset in FORWARD_OFFSETS:
            target = coords + offset
            image = target // n_cells  # -1, 0 or +1 box lengths
            valid = np.all((image == 0) | self.box.periodic, axis=1)
            dst = self.flat_ids(target - image * n_cells)
            yield all_ids[valid], dst[valid], (image * self.box.lengths)[valid]


def flat_cell_ids(
    wrapped: np.ndarray, cell_size: np.ndarray, n_cells: tuple[int, int, int]
) -> np.ndarray:
    """Flat cell id of each wrapped position on an ``n_cells`` grid."""
    # clipped before the integer cast: pos == L after rounding, and atoms
    # however far beyond an open face, go to the boundary cell
    coords = np.floor(wrapped / cell_size)
    np.clip(coords, 0, np.array(n_cells) - 1, out=coords)
    return np.ravel_multi_index(tuple(coords.astype(np.int64).T), n_cells)


def bin_atoms(
    positions: np.ndarray, box: Box, min_cell_size: float
) -> Tuple[np.ndarray, CellList]:
    """``(wrapped, cells)``: ``positions`` wrapped into the box and binned
    into cells of edge >= ``min_cell_size``, one pass of the kernel tier's
    :meth:`~repro.kernels.numpy_tier.NumpyKernelTier.bin_cells`.

    Along any axis shorter than ``min_cell_size`` a single cell is used.
    A NaN/inf position raises ``ValueError`` naming its (atom, axis) index.
    """
    if min_cell_size <= 0:
        raise ValueError(f"min_cell_size must be positive, got {min_cell_size}")
    positions = np.asarray(positions, dtype=np.float64)
    # snap the cells-per-axis ratio to the nearest integer when it lands
    # within a relative tolerance below it: a box of length 3*h - epsilon
    # must still get 3 cells, not lose one to FP noise in the division
    # (the lost cell would shrink the grid and inflate candidate pairs)
    ratio = box.lengths / min_cell_size
    nearest = np.rint(ratio)
    snapped = np.where(
        np.abs(ratio - nearest) <= CELL_COUNT_RTOL * np.maximum(ratio, 1.0),
        nearest,
        np.floor(ratio),
    )
    n_cells = tuple(int(v) for v in np.maximum(1, snapped))
    cell_size = box.lengths / n_cells
    wrapped, cell_of_atom, order, starts = kernels.active_tier().bin_cells(
        positions, box, n_cells, cell_size
    )
    return wrapped, CellList(
        box=box,
        n_cells=n_cells,
        cell_size=cell_size,
        cell_of_atom=cell_of_atom,
        order=order,
        starts=starts,
    )


def build_cell_list(
    positions: np.ndarray, box: Box, min_cell_size: float
) -> CellList:
    """:func:`bin_atoms` without the wrapped copy."""
    return bin_atoms(positions, box, min_cell_size)[1]

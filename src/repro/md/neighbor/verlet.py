"""Verlet neighbor lists in the paper's CSR layout.

A :class:`NeighborList` stores, for every atom ``i``, the indices of atoms
within ``cutoff + skin``.  The *half* variant stores each pair once
(``i < j``) — this is what enables the Section II.D optimizations (reuse of
``phi(r_ij)`` for both atoms, Newton's-third-law force accumulation) and
what creates the irregular write conflicts the paper's SDC method solves.
The *full* variant stores both directions and is what the Redundant
Computation (RC) baseline strategy consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro import kernels
from repro.geometry.box import Box
from repro.md.neighbor.cells import CellList, build_cell_list
from repro.utils.arrays import CSR, invert_permutation
from repro.utils.validation import check_finite


@dataclass(frozen=True)
class NeighborList:
    """CSR neighbor list bound to the positions it was built from.

    Attributes
    ----------
    csr:
        per-atom neighbor rows; ``csr.offsets`` is the paper's
        ``neighindex`` (with ``neighlen = diff(offsets)``), ``csr.values``
        the paper's ``neighlist``.
    cutoff:
        interaction cutoff r_c in Å.
    skin:
        Verlet skin in Å; the list contains all pairs within
        ``cutoff + skin`` and remains valid until some atom moves more than
        ``skin / 2``.
    half:
        if True each pair appears once with ``i < j``; if False both
        directions are stored.
    reference_positions:
        wrapped positions at build time (for the rebuild criterion).
    """

    csr: CSR
    cutoff: float
    skin: float
    half: bool
    reference_positions: np.ndarray
    box: Box

    @property
    def n_atoms(self) -> int:
        """Number of atoms the list covers."""
        return self.csr.n_rows

    @property
    def n_pairs(self) -> int:
        """Number of stored (directed) entries."""
        return self.csr.n_values

    def check_covers(self, n_atoms: int) -> None:
        """Raise unless the list was built over exactly ``n_atoms`` atoms.

        Every force calculator calls this once per ``compute``: a shorter
        list would leave the uncovered rows silently at zero, a longer one
        die in a gather with a bare ``IndexError``.
        """
        if self.n_atoms != n_atoms:
            raise ValueError(
                f"neighbor list covers {self.n_atoms} atoms, system has "
                f"{n_atoms}"
            )

    def pair_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(i_idx, j_idx)`` arrays aligned with the CSR payload.

        ``i_idx[k]`` is the row owning slot ``k``; this is the layout the
        vectorized kernels iterate over.
        """
        return self.csr.row_of_value(), self.csr.values

    def neighbors_of(self, i: int) -> np.ndarray:
        """Neighbor indices of atom ``i`` (view)."""
        return self.csr.row(i)

    def max_displacement(self, positions: np.ndarray) -> float:
        """Largest minimum-image displacement since the list was built."""
        return self.box.max_displacement(positions, self.reference_positions)

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """Standard Verlet criterion: any atom moved more than ``skin/2`` —
        or is NaN/inf, which the rebuild then rejects by atom index."""
        return not self.max_displacement(positions) <= self.skin / 2.0


def build_neighbor_list(
    positions: np.ndarray,
    box: Box,
    cutoff: float,
    skin: float = 0.3,
    half: bool = True,
    cells: Optional[CellList] = None,
) -> NeighborList:
    """Build a Verlet neighbor list with link cells.

    The checks, the wrap and the binning run here; the forward-stencil
    walk and the CSR packing are the process's kernel tier's
    :meth:`~repro.kernels.numpy_tier.NumpyKernelTier.neighbor_csr`, which gives the
    same CSR, byte for byte, on every tier.

    Parameters
    ----------
    positions:
        ``(n, 3)`` coordinates (wrapped internally); a NaN/inf coordinate
        raises ``ValueError`` naming the first such (atom, axis) index.
    cutoff:
        interaction cutoff r_c.
    skin:
        extra shell so the list survives several timesteps.
    half:
        store each pair once (``i < j``) or both directions.
    cells:
        an existing :class:`CellList` to reuse; built fresh when omitted.
        It must bin exactly these positions in this box, with cells no
        smaller than ``cutoff + skin`` along every axis it splits
        (coarser is fine) — anything else raises ``ValueError``.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if skin < 0:
        raise ValueError(f"skin must be >= 0, got {skin}")
    reach = cutoff + skin
    if reach >= box.max_cutoff():
        raise ValueError(
            f"cutoff+skin={reach:.3f} exceeds the minimum-image limit "
            f"{box.max_cutoff():.3f} for this box"
        )
    positions = np.asarray(positions, dtype=np.float64)
    positions = box.wrap(check_finite(positions, "positions"))
    if cells is None:
        cells = build_cell_list(positions, box, reach)
    else:
        cells.check_bins(positions, box, reach)
    return NeighborList(
        csr=kernels.active_tier().neighbor_csr(positions, cells, reach, half),
        cutoff=cutoff,
        skin=skin,
        half=half,
        reference_positions=positions,
        box=box,
    )


def build_reordered_neighbor_list(
    positions: np.ndarray,
    box: Box,
    cutoff: float,
    skin: float = 0.3,
    half: bool = True,
) -> Tuple[NeighborList, np.ndarray, np.ndarray]:
    """Build the Section II.D cache-optimized layout: sorted atoms + CSR list.

    Bins ``positions`` into link cells, renumbers atoms in cell order
    (the :attr:`CellList.order` permutation), and builds the neighbor
    list *in the new numbering* — so both the atom arrays and the
    per-row ``j`` streams walk memory almost sequentially.  Rows come out
    CSR-sorted (ascending ``j`` within each row) by construction.

    Returns ``(nlist, perm, inverse)``:

    * ``nlist`` — neighbor list over the reordered atoms;
    * ``perm`` — apply with :meth:`repro.md.atoms.Atoms.reorder` (new
      index ``k`` was old ``perm[k]``);
    * ``inverse`` — maps old indices to new (``inverse[perm[k]] == k``),
      the output map: ``result_old = result_new[inverse]``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    cells = build_cell_list(positions, box, cutoff + skin)
    perm = cells.order.copy()
    # the same binning, renumbered: atoms now sit in cell order already
    sorted_cells = replace(
        cells,
        cell_of_atom=cells.cell_of_atom[perm],
        order=np.arange(len(perm), dtype=np.int64),
    )
    nlist = build_neighbor_list(
        positions[perm], box, cutoff, skin=skin, half=half, cells=sorted_cells
    )
    return nlist, perm, invert_permutation(perm)


def brute_force_neighbor_list(
    positions: np.ndarray,
    box: Box,
    cutoff: float,
    skin: float = 0.0,
    half: bool = True,
) -> NeighborList:
    """O(N^2) reference builder (tests only; exact same semantics)."""
    positions = box.wrap(np.asarray(positions, dtype=np.float64))
    n = len(positions)
    reach = cutoff + skin
    if reach >= box.max_cutoff():
        raise ValueError("cutoff+skin exceeds minimum-image limit")
    delta = box.minimum_image(positions[:, None, :] - positions[None, :, :])
    r2 = np.sum(delta * delta, axis=-1)
    mask = r2 <= reach * reach
    np.fill_diagonal(mask, False)
    if half:
        mask = np.triu(mask, k=1)
    i_idx, j_idx = np.nonzero(mask)
    # the oracle packs with the reference tier, whichever tier is under test
    csr = kernels.get("numpy").pairs_to_csr(
        i_idx.astype(np.int64), j_idx.astype(np.int64), n
    )
    return NeighborList(
        csr=csr,
        cutoff=cutoff,
        skin=skin,
        half=half,
        reference_positions=positions.copy(),
        box=box,
    )


def full_from_half(nlist: NeighborList) -> NeighborList:
    """Expand a half list into a full list (what the RC strategy consumes).

    This materializes the doubled neighbor storage the paper attributes to
    the redundant-computation approach ("neighbor list requires more memory
    space").
    """
    if not nlist.half:
        return nlist
    i_idx, j_idx = nlist.pair_arrays()
    csr = kernels.active_tier().pairs_to_csr(i_idx, j_idx, nlist.n_atoms, mirror=True)
    return NeighborList(
        csr=csr,
        cutoff=nlist.cutoff,
        skin=nlist.skin,
        half=False,
        reference_positions=nlist.reference_positions,
        box=nlist.box,
    )


def half_from_full(nlist: NeighborList) -> NeighborList:
    """Reduce a full list to a half (``i < j``) list."""
    if nlist.half:
        return nlist
    i_idx, j_idx = nlist.pair_arrays()
    keep = i_idx < j_idx
    csr = kernels.active_tier().pairs_to_csr(i_idx[keep], j_idx[keep], nlist.n_atoms)
    return NeighborList(
        csr=csr,
        cutoff=nlist.cutoff,
        skin=nlist.skin,
        half=True,
        reference_positions=nlist.reference_positions,
        box=nlist.box,
    )

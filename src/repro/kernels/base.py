"""The kernel-tier interface and the validation shared by every tier.

A *kernel tier* is one implementation of the EAM hot-path primitives: the
pair-slice building blocks (:meth:`KernelTier.pair_geometry`,
:meth:`KernelTier.pair_terms`, the four scatters,
:func:`pair_force_coefficients`) plus the two fused per-phase
drivers the bench harness calls, the whole-evaluation entry point
(:meth:`KernelTier.evaluate`) of the serial path and the two slice entry
points (:meth:`KernelTier.density_slice`, :meth:`KernelTier.force_slice`)
every strategy task runs through — each a pair half
(:meth:`KernelTier.pair_pass`, :meth:`KernelTier.pair_forces`) plus the
both-endpoints scatter, the halves also serving the strategies that scatter
differently — and the neighbour build those pair lists come from
(:meth:`KernelTier.neighbor_csr`, with its packer
:meth:`KernelTier.pairs_to_csr`).  The NumPy tier is the reference; the C
tier (:mod:`repro.kernels.c_tier`) compiles the hot entry points.

Two contracts a compiled tier must honor:

* **Bounds are asserted at dispatch time, not inside the kernel.**  The
  NumPy scatters get index validation for free from ``np.add.at`` /
  ``np.bincount``; a compiled loop would silently corrupt memory instead.
  Tiers therefore check every index *before* entering compiled code and
  hand anything out of range to the NumPy code, so every tier raises the
  same ``IndexError`` for the same bad input.
* **Instrumented arrays bypass compiled code.**  The dynamic race detector
  hands strategies :class:`~repro.analysis.shadow.ShadowArray` reduction
  targets whose ``__setitem__``/ufunc hooks record write sets.  A compiled
  kernel writing through the raw buffer would make those writes invisible,
  so any target whose type is not exactly ``ndarray`` must run the NumPy
  code, and racecheck sees identical write sets whatever the tier.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import span_of

#: pairs closer than this (Å) are treated as overlapping atoms — any
#: spline/derivative evaluation there is extrapolated garbage and the
#: ``1/r`` force scaling amplifies it into astronomically large forces
MIN_PAIR_SEPARATION = 1e-6


def handover_arrays(n_pairs: int) -> List[np.ndarray]:
    """The four pair-sized arrays a density pass leaves ``(delta, r, phi',
    V')`` in for the force pass of the same pairs."""
    return [np.empty((n_pairs, 3))] + [np.empty(n_pairs) for _ in range(3)]


def check_scatter_indices(
    what: str, n_atoms: int, *index_arrays: np.ndarray
) -> None:
    """Raise ``IndexError`` if any scatter index falls outside ``[0, n)``.

    Compiled tiers call this once per entry point before handing the
    arrays to a kernel that performs no per-element checks.
    """
    for i_idx in index_arrays:
        if len(i_idx) == 0:
            continue
        lo = int(i_idx.min())
        hi = int(i_idx.max())
        if lo < 0 or hi >= n_atoms:
            bad = hi if hi >= n_atoms else lo
            raise IndexError(
                f"{what} got atom index {bad}, outside the valid "
                f"range [0, {n_atoms})"
            )


def check_owned_accumulator(
    what: str, accumulator: np.ndarray, n_atoms: int
) -> None:
    """Raise ``IndexError`` unless the accumulator covers all atom rows."""
    if len(accumulator) != n_atoms:
        raise IndexError(
            f"{what} needs a {n_atoms}-row accumulator, "
            f"got {len(accumulator)} rows"
        )


def overlap_error(
    r: np.ndarray,
    k: int,
    pair_ids: Optional[Tuple[np.ndarray, np.ndarray]],
    min_separation: float,
) -> ValueError:
    """The canonical overlapping-atoms diagnostic, identical across tiers.

    ``k`` is the slot of the closest pair; ``pair_ids`` (when given) is
    the aligned ``(i_idx, j_idx)`` slice used to name the atoms.
    """
    if pair_ids is not None:
        i_idx, j_idx = pair_ids
        where = f"atoms {int(i_idx[k])} and {int(j_idx[k])}"
    else:
        where = f"pair slot {k}"
    return ValueError(
        f"overlapping atoms: {where} are separated by {float(r[k]):.3e} Å "
        f"(< {min_separation:g} Å); the EAM force coefficient diverges "
        "as 1/r — fix the initial configuration or the timestep"
    )


def check_pair_separation(
    r: np.ndarray, pair_ids=None, min_separation: float = MIN_PAIR_SEPARATION
) -> None:
    """Raise :func:`overlap_error` naming the slice's closest pair when it
    is nearer than ``min_separation``."""
    if len(r) and float(np.min(r)) < min_separation:
        raise overlap_error(r, int(np.argmin(r)), pair_ids, min_separation)


def pair_force_coefficients(
    r: np.ndarray,
    dphi: np.ndarray,
    dv: np.ndarray,
    fp_i: np.ndarray,
    fp_j: np.ndarray,
    pair_ids: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    min_separation: float = MIN_PAIR_SEPARATION,
) -> np.ndarray:
    """Eq. 2's scalar coefficient ``-(V' + (F'_i + F'_j) phi') / r`` per
    pair, from derivatives already evaluated (by this slice's density
    pass, or by :meth:`KernelTier.force_pair_coefficients`); raises on an
    overlapping pair before dividing."""
    check_pair_separation(r, pair_ids, min_separation)
    return -(dv + (fp_i + fp_j) * dphi) / r


class KernelTier(ABC):
    """One implementation of the EAM hot-path kernels.

    All entry points share signatures with the module-level functions of
    :mod:`repro.potentials.eam` (which delegate to the active tier), so a
    strategy written against either surface is tier-agnostic.
    """

    #: registry key (``"numpy"``)
    name: ClassVar[str] = "abstract"

    # --- pair-slice primitives ------------------------------------------------

    @abstractmethod
    def pair_geometry(
        self,
        positions: np.ndarray,
        box,
        i_idx: np.ndarray,
        j_idx: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Minimum-image ``(delta, r)`` for a pair slice."""

    @abstractmethod
    def pair_terms(
        self, potential, r: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(phi, phi', V, V')`` for a slice of pair distances — the one
        potential evaluation of a slice (see
        :meth:`~repro.potentials.base.EAMPotential.pair_terms`)."""

    @abstractmethod
    def scatter_rho_half(
        self,
        rho: np.ndarray,
        i_idx: np.ndarray,
        j_idx: np.ndarray,
        phi: np.ndarray,
    ) -> None:
        """In-place half-list density scatter: both endpoints accumulate."""

    @abstractmethod
    def scatter_rho_owned(
        self,
        rho: np.ndarray,
        i_idx: np.ndarray,
        phi: np.ndarray,
        n_atoms: int,
    ) -> None:
        """Full-list density accumulation writing only owned rows."""

    def force_pair_coefficients(
        self,
        potential,
        r: np.ndarray,
        fp_i: np.ndarray,
        fp_j: np.ndarray,
        pair_ids: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        min_separation: float = MIN_PAIR_SEPARATION,
    ) -> np.ndarray:
        """Scalar force coefficient per pair (Eq. 2 of the paper) for a
        slice with no density pass to take the derivatives from."""
        _, dphi, _, dv = self.pair_terms(potential, r)
        return pair_force_coefficients(
            r, dphi, dv, fp_i, fp_j, pair_ids, min_separation
        )

    @abstractmethod
    def scatter_force_half(
        self,
        forces: np.ndarray,
        i_idx: np.ndarray,
        j_idx: np.ndarray,
        pair_forces: np.ndarray,
    ) -> None:
        """In-place half-list force scatter (Newton's third law)."""

    @abstractmethod
    def scatter_force_owned(
        self,
        forces: np.ndarray,
        i_idx: np.ndarray,
        pair_forces: np.ndarray,
        n_atoms: int,
    ) -> None:
        """Full-list force accumulation into owned rows only."""

    # --- the neighbour build --------------------------------------------------

    @abstractmethod
    def neighbor_csr(self, positions: np.ndarray, cells, reach: float, half: bool):
        """The Verlet list's :class:`~repro.utils.arrays.CSR`: every pair of
        the wrapped ``positions`` within ``reach``, found through the
        :class:`~repro.md.neighbor.cells.CellList` ``cells`` that bins
        them, rows ascending, each row's ``j`` ascending — ``i < j`` only
        when ``half``, both directions otherwise."""

    @abstractmethod
    def pairs_to_csr(
        self, i_idx: np.ndarray, j_idx: np.ndarray, n_atoms: int, mirror: bool = False
    ):
        """Directed pairs ``(i_idx[k], j_idx[k])`` — and ``(j_idx[k],
        i_idx[k])`` too when ``mirror`` — packed into ``n_atoms`` CSR rows
        in ``(i, j)`` order, duplicates kept."""

    # --- fused phase drivers --------------------------------------------------

    @abstractmethod
    def density_and_pair_energy_phase(
        self,
        potential,
        positions: np.ndarray,
        box,
        nlist,
        counter=None,
        want_pair_energy: bool = True,
    ) -> Tuple[np.ndarray, float]:
        """Phase 1 (densities) with the pair-energy sum fused in."""

    @abstractmethod
    def force_phase(
        self,
        potential,
        positions: np.ndarray,
        box,
        nlist,
        fp: np.ndarray,
        counter=None,
    ) -> np.ndarray:
        """Phase 3: forces from the cached embedding derivatives."""

    def evaluate(
        self, potential, positions, box, nlist, counter=None, tracer=None
    ) -> Tuple[np.ndarray, float, float, np.ndarray, np.ndarray]:
        """One whole evaluation, density → embedding → force, each phase
        a span tagged with its canonical name when ``tracer`` is given:
        ``(rho, pair_energy, embedding_energy, fp, forces)``.  A tier whose
        force pass can reuse the density pass's pair geometry and potential
        derivatives overrides it.
        """
        from repro.potentials.eam import eam_embedding_phase  # imports us

        with span_of(tracer, "density", phase="density"):
            rho, pair_energy = self.density_and_pair_energy_phase(
                potential, positions, box, nlist, counter
            )
        with span_of(tracer, "embedding", phase="embedding"):
            embedding_energy, fp = eam_embedding_phase(potential, rho, counter)
        with span_of(tracer, "force", phase="force"):
            forces = self.force_phase(
                potential, positions, box, nlist, fp, counter
            )
        return rho, pair_energy, embedding_energy, fp, forces

    # --- pair-slice entry points ------------------------------------------------

    def pair_pass(
        self,
        potential,
        positions: np.ndarray,
        box,
        i_idx: np.ndarray,
        j_idx: np.ndarray,
        handover: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, float]:
        """The one geometry pass and one potential call of a pair slice:
        writes the slice's ``(delta, r, phi', V')`` into the four
        slice-sized ``handover`` arrays for :meth:`pair_forces` and
        returns ``(phi, pair-energy sum)``.  A bad index raises before
        anything is written; an overlapping pair raises before any
        accumulator is, with the slice's ``delta`` and ``r`` possibly
        already in ``handover`` (a compiled tier's geometry writes them
        there)."""
        check_scatter_indices("density slice", len(positions), i_idx, j_idx)
        delta, r = self.pair_geometry(positions, box, i_idx, j_idx)
        check_pair_separation(r, (i_idx, j_idx))
        phi, dphi, v, dv = self.pair_terms(potential, r)
        for out, values in zip(handover, (delta, r, dphi, dv)):
            out[:] = values
        return phi, float(np.sum(v))

    def pair_forces(
        self,
        i_idx: np.ndarray,
        j_idx: np.ndarray,
        fp: np.ndarray,
        handover: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Eq. 2 for the slice :meth:`pair_pass` handed over, from the
        stored geometry and derivatives — no geometry pass, no potential
        call."""
        delta, r, dphi, dv = handover
        coeff = pair_force_coefficients(
            r, dphi, dv, fp[i_idx], fp[j_idx], pair_ids=(i_idx, j_idx)
        )
        return coeff[:, None] * delta

    def density_slice(
        self,
        potential,
        positions: np.ndarray,
        box,
        i_idx: np.ndarray,
        j_idx: np.ndarray,
        rho: np.ndarray,
        handover: Sequence[np.ndarray],
    ) -> float:
        """The density pass of one contiguous half-list pair slice — a
        strategy's task, a shard's pair list: :meth:`pair_pass`, then
        ``phi`` scattered into both endpoints of ``rho``; returns the
        slice's pair-energy partial sum.

        ``rho`` is shared with sibling slices (their write sets disjoint,
        or the writes atomic), so the scatter is the unbuffered in-place
        one.
        """
        if len(i_idx) == 0:
            return 0.0
        phi, pair_energy = self.pair_pass(
            potential, positions, box, i_idx, j_idx, handover
        )
        self.scatter_rho_half(rho, i_idx, j_idx, phi)
        return pair_energy

    def force_slice(
        self,
        i_idx: np.ndarray,
        j_idx: np.ndarray,
        fp: np.ndarray,
        handover: Sequence[np.ndarray],
        forces: np.ndarray,
    ) -> None:
        """The force pass of the slice :meth:`density_slice` handed over:
        :meth:`pair_forces` scattered into both endpoints of ``forces``."""
        if len(i_idx) == 0:
            return
        self.scatter_force_half(
            forces, i_idx, j_idx, self.pair_forces(i_idx, j_idx, fp, handover)
        )

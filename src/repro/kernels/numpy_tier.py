"""The NumPy kernel tier: the reference implementation of every entry
point.

A tier is one implementation of the EAM hot-path primitives: the
pair-slice building blocks (:meth:`~NumpyKernelTier.pair_geometry`,
:meth:`~NumpyKernelTier.pair_terms`, the four scatters), the two fused
per-phase drivers the step benchmark's probes call, the whole-evaluation
entry point (:meth:`~NumpyKernelTier.evaluate`) of the serial path, the
two slice entry points (:meth:`~NumpyKernelTier.density_slice`,
:meth:`~NumpyKernelTier.force_slice`) every strategy task runs through —
each a pair half (:meth:`~NumpyKernelTier.pair_pass`,
:meth:`~NumpyKernelTier.pair_forces`) plus the both-endpoints scatter, the
halves also serving the strategies that scatter differently — and the
neighbour build those pair lists come from
(:meth:`~NumpyKernelTier.neighbor_csr`, with its packer
:meth:`~NumpyKernelTier.pairs_to_csr`).  :mod:`repro.potentials.eam` and
:mod:`repro.md.neighbor.verlet` dispatch to the process's active tier
(:func:`repro.kernels.active_tier`).  This class is the semantic ground
truth the C tier (:mod:`repro.kernels.c_tier`, a subclass) is tested
against, and what it runs whenever its own code may not.

The scatters use unbuffered ``np.add.at`` / ``np.bincount`` so repeated
indices inside one slice accumulate correctly, and they operate happily on
:class:`~repro.analysis.shadow.ShadowArray` instrumented targets — which
is why a compiled tier must route instrumented calls through this code.
"""

from __future__ import annotations

from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.base import (
    MIN_PAIR_SEPARATION,
    check_owned_accumulator,
    check_pair_separation,
    check_scatter_indices,
    pair_force_coefficients,
)
from repro.obs.tracer import span_of
from repro.utils.arrays import CSR, segment_sum


class NumpyKernelTier:
    """Pure-NumPy reference implementation of every kernel entry point."""

    #: registry key
    name: ClassVar[str] = "numpy"

    def __init__(self) -> None:
        # Each force evaluation allocates and frees ~10 MB of pair-sized
        # temporaries.  glibc hands freed blocks above its mmap/trim
        # thresholds back to the kernel, so every step would fault those pages
        # in again (+20 % per evaluation); the thresholds only grow when a
        # larger mmapped block is freed.  Free one just under glibc's 32 MiB
        # cap, once (never touched; a no-op on other allocators).
        np.empty((32 << 20) - (64 << 10), dtype=np.uint8)

    # --- pair-slice primitives ----------------------------------------------

    def pair_geometry(self, positions, box, i_idx, j_idx):
        """Minimum-image ``(delta, r)`` for a pair slice."""
        # component-major: after the row gathers (cost follows the slice, not
        # the atom count) every axis is one contiguous row through
        # ``Box.minimum_image``'s floor-based fold and the x, y, z
        # accumulation of r^2; callers see (P, 3) as a transposed view
        delta = np.take(positions, i_idx, axis=0)
        delta -= np.take(positions, j_idx, axis=0)
        delta = np.ascontiguousarray(delta.T, dtype=np.float64)
        r = np.zeros(delta.shape[1])
        scratch = np.empty_like(r)
        for axis in range(3):
            row = delta[axis]
            if box.periodic[axis]:
                length = box.lengths[axis]
                np.divide(row, length, out=scratch)
                scratch += 0.5
                np.floor(scratch, out=scratch)
                scratch *= length
                row -= scratch
            np.multiply(row, row, out=scratch)
            r += scratch
        return delta.T, np.sqrt(r, out=r)

    def pair_terms(self, potential, r):
        """``(phi, phi', V, V')`` for a slice of pair distances — the one
        potential evaluation of a slice (see
        :meth:`~repro.potentials.base.EAMPotential.pair_terms`)."""
        return potential.pair_terms(r)

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

    def scatter_rho_half(self, rho, i_idx, j_idx, phi):
        """In-place half-list density scatter: both endpoints accumulate."""
        check_scatter_indices(
            "half-list density scatter", len(rho), i_idx, j_idx
        )
        np.add.at(rho, i_idx, phi)
        np.add.at(rho, j_idx, phi)

    def scatter_rho_owned(self, rho, i_idx, phi, n_atoms):
        """Full-list density accumulation writing only owned rows."""
        check_owned_accumulator("owned-row density scatter", rho, n_atoms)
        i_idx = np.asarray(i_idx)
        check_scatter_indices("owned-row density scatter", n_atoms, i_idx)
        rho += np.bincount(i_idx, weights=phi, minlength=n_atoms)

    def scatter_force_half(self, forces, i_idx, j_idx, pair_forces):
        """In-place half-list force scatter (Newton's third law)."""
        check_scatter_indices(
            "half-list force scatter", len(forces), i_idx, j_idx
        )
        for axis in range(3):
            np.add.at(forces[:, axis], i_idx, pair_forces[:, axis])
            np.subtract.at(forces[:, axis], j_idx, pair_forces[:, axis])

    def scatter_force_owned(self, forces, i_idx, pair_forces, n_atoms):
        """Full-list force accumulation into owned rows only."""
        check_owned_accumulator("owned-row force scatter", forces, n_atoms)
        i_idx = np.asarray(i_idx)
        check_scatter_indices("owned-row force scatter", n_atoms, i_idx)
        forces += segment_sum(pair_forces, i_idx, n_atoms)

    # --- the neighbour build ------------------------------------------------

    def neighbor_csr(self, positions, cells, reach, half):
        """The Verlet list's :class:`~repro.utils.arrays.CSR`: every pair of
        the wrapped ``positions`` within ``reach``, found through the
        :class:`~repro.md.neighbor.cells.CellList` ``cells`` that bins
        them, rows ascending, each row's ``j`` ascending — ``i < j`` only
        when ``half``, both directions otherwise."""
        i_idx, j_idx = self._half_pairs(positions, cells, reach)
        return self.pairs_to_csr(i_idx, j_idx, len(positions), mirror=not half)

    def _half_pairs(self, positions, cells, reach):
        """Every pair within ``reach`` once, oriented ``i < j``, unsorted.

        One candidate block per forward stencil offset plus one for the cell
        interiors, so temporaries stay at ~1/14 of the candidate set.  Each
        block tests a single explicit image of the neighbour cell; because
        ``reach < L/2`` admits at most one image per pair, no geometric pair
        is kept twice and nothing is deduplicated or masked afterwards.
        """
        from repro.md.neighbor.cells import concat_ranges  # imports us

        order, starts, counts = cells.order, cells.starts, cells.counts()
        soa = np.ascontiguousarray(positions[order].T)  # (3, n) in cell order
        firsts, seconds = [], []

        def scan(i_slots, j_starts, reps, shifts):
            """``i_slots[k]`` against the ``reps[k]`` slots from ``j_starts[k]``
            on, whose atoms are seen at ``soa[:, j] + shifts[k]``."""
            j_slots = concat_ranges(j_starts, reps)
            r2 = np.zeros(len(j_slots))
            for axis in range(3):
                # the image shift goes on the short i side, before the repeat
                delta = soa[axis][j_slots]
                delta -= np.repeat(soa[axis][i_slots] - shifts[:, axis], reps)
                delta *= delta
                r2 += delta
            keep = r2 <= reach * reach
            firsts.append(np.repeat(i_slots, reps)[keep])
            seconds.append(j_slots[keep])

        # cell interiors: each slot against the later slots of its own cell
        slots = np.arange(len(order), dtype=np.int64)
        ends = np.repeat(starts[1:], counts)
        scan(slots, slots + 1, ends - slots - 1, np.zeros((len(slots), 3)))
        for src, dst, shift in cells.forward_stencil():
            scan(
                concat_ranges(starts[src], counts[src]),
                np.repeat(starts[dst], counts[src]),
                np.repeat(counts[dst], counts[src]),
                np.repeat(shift, counts[src], axis=0),
            )
        first = order[np.concatenate(firsts)]
        second = order[np.concatenate(seconds)]
        return np.minimum(first, second), np.maximum(first, second)

    def pairs_to_csr(self, i_idx, j_idx, n_atoms, mirror=False):
        """Directed pairs ``(i_idx[k], j_idx[k])`` — and ``(j_idx[k],
        i_idx[k])`` too when ``mirror`` — packed into ``n_atoms`` CSR rows
        in ``(i, j)`` order, duplicates kept."""
        if mirror:
            i_idx, j_idx = np.concatenate([i_idx, j_idx]), np.concatenate([j_idx, i_idx])
        stride = max(n_atoms, 1)
        key = i_idx * stride + j_idx  # one int64 key orders by (i, j)
        key.sort()
        i_idx, j_idx = np.divmod(key, stride)
        lengths = np.bincount(i_idx, minlength=n_atoms)
        offsets = np.zeros(n_atoms + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return CSR(offsets=offsets, values=j_idx)

    # --- fused phase drivers ------------------------------------------------

    def density_and_pair_energy_phase(
        self, potential, positions, box, nlist, counter=None
    ):
        """Phase 1 (densities) with the pair-energy sum fused in."""
        i_idx, j_idx = nlist.pair_arrays()
        _, r = self.pair_geometry(positions, box, i_idx, j_idx)
        rho, pair_energy, _, _ = self._density(
            potential, len(positions), nlist.half, i_idx, j_idx, r, counter
        )
        return rho, pair_energy

    def force_phase(
        self, potential, positions, box, nlist, fp, counter=None
    ):
        """Phase 3: forces from the cached embedding derivatives."""
        i_idx, j_idx = nlist.pair_arrays()
        delta, r = self.pair_geometry(positions, box, i_idx, j_idx)
        _, dphi, _, dv = self.pair_terms(potential, r)
        return self._force(
            len(positions), nlist.half, i_idx, j_idx, delta, r, dphi, dv,
            fp, counter,
        )

    def evaluate(
        self, potential, positions, box, nlist, counter=None, tracer=None
    ):
        """One whole evaluation, density → embedding → force, each phase
        a span tagged with its canonical name when ``tracer`` is given:
        ``(rho, pair_energy, embedding_energy, fp, forces)``."""
        from repro.potentials.eam import eam_embedding_phase  # imports us

        n = len(positions)
        # one geometry pass and one potential call serve both pair phases
        # (charged to density, as in the process engine): the force pass
        # gets (delta, r, phi', V') handed over and evaluates nothing.  An
        # overlap stops here, before any scatter
        with span_of(tracer, "density", phase="density"):
            i_idx, j_idx = nlist.pair_arrays()
            delta, r = self.pair_geometry(positions, box, i_idx, j_idx)
            check_pair_separation(r, (i_idx, j_idx))
            rho, pair_energy, dphi, dv = self._density(
                potential, n, nlist.half, i_idx, j_idx, r, counter
            )
        with span_of(tracer, "embedding", phase="embedding"):
            embedding_energy, fp = eam_embedding_phase(potential, rho, counter)
        with span_of(tracer, "force", phase="force"):
            forces = self._force(
                n, nlist.half, i_idx, j_idx, delta, r, dphi, dv, fp, counter
            )
        return rho, pair_energy, embedding_energy, fp, forces

    def _density(self, potential, n, half, i_idx, j_idx, r, counter):
        """Phase 1 over a whole pair list whose distances are ``r``:
        ``(rho, pair_energy, phi', V')`` from the slice's one potential
        call."""
        phi, dphi, v, dv = self.pair_terms(potential, r)
        rho = np.zeros(n)
        rho += np.bincount(i_idx, weights=phi, minlength=n)
        if half:
            rho += np.bincount(j_idx, weights=phi, minlength=n)
        pair_energy = float(np.sum(v)) * (1.0 if half else 0.5)
        if counter is not None:
            counter.add("density_pairs", len(i_idx))
            counter.add("rho_updates", (2 if half else 1) * len(i_idx))
        return rho, pair_energy, dphi, dv

    def _force(
        self, n, half, i_idx, j_idx, delta, r, dphi, dv, fp, counter
    ):
        """Phase 3 over a whole pair list with geometry ``(delta, r)`` and
        potential derivatives ``(phi', V')``."""
        forces = np.zeros((n, 3))
        if len(i_idx) == 0:
            return forces
        coeff = pair_force_coefficients(
            r, dphi, dv, fp[i_idx], fp[j_idx], pair_ids=(i_idx, j_idx)
        )
        pair_forces = coeff[:, None] * delta
        # full list: both directions are present, each directed pair
        # writes its whole contribution into the owning row only
        forces += segment_sum(pair_forces, i_idx, n)
        if half:
            forces -= segment_sum(pair_forces, j_idx, n)
        if counter is not None:
            counter.add("force_pairs", len(i_idx))
            counter.add(
                "force_updates", (2 if half else 1) * len(i_idx) * 3
            )
        return forces

    # --- pair-slice entry points ----------------------------------------------

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

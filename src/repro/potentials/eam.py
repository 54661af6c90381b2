"""The three-phase EAM force computation (paper Figs. 1-2, Eqs. 1-2).

This module holds the serial drivers plus the pair-slice primitives the
parallel strategies in :mod:`repro.core.strategies` are assembled from.
The module-level primitives are thin dispatchers: each call is routed to
the process's kernel tier (:func:`repro.kernels.active_tier`: the C tier
where it builds, else the NumPy reference), so every strategy and backend
built on these names runs on the one tier of the process.
Phase structure, following Section II.C of the paper:

1. **Electron densities** (Eq. 1) — for every half-list pair, evaluate
   ``phi(r_ij)`` once and scatter it into both ``rho[i]`` and ``rho[j]``
   (Section II.D optimization 1).
2. **Embedding energies** — per-atom, no cross-iteration dependence:
   ``F(rho_i)`` accumulated into the energy, ``F'(rho_i)`` cached for
   phase 3.
3. **Forces** (Eq. 2) — for every half-list pair, one scalar coefficient
   ``-(V'(r) + (F'_i + F'_j) phi'(r)) / r`` scales the separation vector,
   added to ``force[i]`` and subtracted from ``force[j]`` (Newton's third
   law, Section II.D optimization 2).

Phases 1 and 3 contain the irregular reductions whose parallelization the
paper is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import kernels
from repro.geometry.box import Box
from repro.kernels.base import MIN_PAIR_SEPARATION
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.potentials.base import EAMPotential
from repro.utils.timers import Counter

__all__ = [
    "MIN_PAIR_SEPARATION",
    "EAMComputation",
    "compute_eam_energy",
    "compute_eam_forces_serial",
    "eam_density_and_pair_energy_phase",
    "eam_density_phase",
    "eam_embedding_phase",
    "eam_force_phase",
    "force_pair_coefficients",
    "pair_geometry",
    "pair_terms",
    "scatter_force_half",
    "scatter_force_owned",
    "scatter_rho_half",
    "scatter_rho_owned",
]


# --------------------------------------------------------------------------
# pair geometry
# --------------------------------------------------------------------------

def pair_geometry(
    positions: np.ndarray,
    box: Box,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum-image separation vectors and distances for a pair slice.

    Returns ``(delta, r)`` with ``delta[k] = pos[i_k] - pos[j_k]`` folded by
    minimum image and ``r[k] = |delta[k]|``.
    """
    return kernels.active_tier().pair_geometry(positions, box, i_idx, j_idx)


# --------------------------------------------------------------------------
# pair-slice primitives (building blocks for the strategies)
# --------------------------------------------------------------------------

def pair_terms(
    potential: EAMPotential, r: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(phi, phi', V, V')`` for a slice of pair distances: the one
    potential evaluation of a slice.  The density pass scatters ``phi``,
    sums ``V`` and hands the derivatives on to the same slice's force pass
    (:func:`repro.kernels.base.pair_force_coefficients`)."""
    return kernels.active_tier().pair_terms(potential, r)


def scatter_rho_half(
    rho: np.ndarray,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    phi: np.ndarray,
) -> None:
    """In-place half-list density scatter: ``rho[i] += phi; rho[j] += phi``.

    This is the exact irregular reduction of paper Fig. 1.  Unbuffered
    accumulation (``np.add.at``, on either tier) is used so repeated
    indices inside the slice accumulate correctly — the slice may contain
    many pairs sharing an atom.
    """
    kernels.active_tier().scatter_rho_half(rho, i_idx, j_idx, phi)


def scatter_rho_owned(
    rho: np.ndarray,
    i_idx: np.ndarray,
    phi: np.ndarray,
    n_atoms: int,
) -> None:
    """Full-list density accumulation writing only owned rows.

    What the Redundant Computation strategy does: every directed pair
    contributes only to its own row ``i``, so no write conflicts exist
    (but every ``phi`` is computed twice system-wide).

    Raises
    ------
    IndexError
        if any index falls outside ``[0, n_atoms)`` or the accumulator
        does not cover all ``n_atoms`` rows.  Out-of-range indices used
        to be silently truncated away, dropping their density
        contributions without a trace.  Every tier validates at dispatch
        time, before any compiled code runs.
    """
    kernels.active_tier().scatter_rho_owned(rho, i_idx, phi, n_atoms)


def force_pair_coefficients(
    potential: EAMPotential,
    r: np.ndarray,
    fp_i: np.ndarray,
    fp_j: np.ndarray,
    pair_ids: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    min_separation: float = MIN_PAIR_SEPARATION,
) -> np.ndarray:
    """Scalar force coefficient per pair (Eq. 2 of the paper).

    ``coeff = -(V'(r) + (F'_i + F'_j) phi'(r)) / r`` so that the force
    contribution on atom i is ``coeff * delta_ij`` (and ``-coeff * delta_ij``
    on atom j).  Evaluates the derivatives itself — for a slice with no
    density pass to take them from (the comparison strategies, the virial).

    ``pair_ids`` is the optional ``(i_idx, j_idx)`` pair slice aligned with
    ``r``, used only to name atoms in the overlap diagnostic below.

    Raises
    ------
    ValueError
        if any pair is separated by less than ``min_separation`` Å.
        Overlapping atoms used to be silently clamped to ``r = 1e-12``,
        turning the ``1/r`` scaling into astronomically large garbage
        forces with no diagnostic.
    """
    return kernels.active_tier().force_pair_coefficients(
        potential, r, fp_i, fp_j, pair_ids, min_separation
    )


def scatter_force_half(
    forces: np.ndarray,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    pair_forces: np.ndarray,
) -> None:
    """In-place half-list force scatter (paper Fig. 2).

    ``forces[i] += f_pair; forces[j] -= f_pair`` per component.
    """
    kernels.active_tier().scatter_force_half(forces, i_idx, j_idx, pair_forces)


def scatter_force_owned(
    forces: np.ndarray,
    i_idx: np.ndarray,
    pair_forces: np.ndarray,
    n_atoms: int,
) -> None:
    """Full-list force accumulation into owned rows only (RC strategy)."""
    kernels.active_tier().scatter_force_owned(forces, i_idx, pair_forces, n_atoms)


# --------------------------------------------------------------------------
# serial reference phases
# --------------------------------------------------------------------------

def eam_density_phase(
    potential: EAMPotential,
    positions: np.ndarray,
    box: Box,
    nlist: NeighborList,
    counter: Optional[Counter] = None,
) -> np.ndarray:
    """Phase 1: electron densities from a half (or full) neighbor list."""
    rho, _ = eam_density_and_pair_energy_phase(
        potential, positions, box, nlist, counter
    )
    return rho


def eam_density_and_pair_energy_phase(
    potential: EAMPotential,
    positions: np.ndarray,
    box: Box,
    nlist: NeighborList,
    counter: Optional[Counter] = None,
) -> Tuple[np.ndarray, float]:
    """Phase 1 with the pair-energy sum fused in.

    The pair energy ``sum V(r)`` needs exactly the pair distances phase 1
    already computed, so evaluating it here (reusing the cached ``r``)
    saves a third ``pair_arrays``/``pair_geometry`` pass over every pair.
    Returns ``(rho, pair_energy)``.
    """
    return kernels.active_tier().density_and_pair_energy_phase(
        potential, positions, box, nlist, counter
    )


def eam_embedding_phase(
    potential: EAMPotential,
    rho: np.ndarray,
    counter: Optional[Counter] = None,
) -> Tuple[float, np.ndarray]:
    """Phase 2: total embedding energy and per-atom F'(rho).

    This loop has no data dependences; the paper parallelizes it with a
    plain ``parallel for``.
    """
    energy = float(np.sum(potential.embed(rho)))
    fp = potential.embed_deriv(rho)
    if counter is not None:
        counter.add("embed_atoms", len(rho))
    return energy, fp


def eam_force_phase(
    potential: EAMPotential,
    positions: np.ndarray,
    box: Box,
    nlist: NeighborList,
    fp: np.ndarray,
    counter: Optional[Counter] = None,
) -> np.ndarray:
    """Phase 3: forces from the cached embedding derivatives."""
    return kernels.active_tier().force_phase(
        potential, positions, box, nlist, fp, counter
    )


# --------------------------------------------------------------------------
# driver-facing entry points
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EAMComputation:
    """Result bundle of one full EAM force evaluation."""

    pair_energy: float
    embedding_energy: float
    rho: np.ndarray
    fp: np.ndarray
    forces: np.ndarray

    @property
    def potential_energy(self) -> float:
        """Total potential energy (pair + embedding) in eV."""
        return self.pair_energy + self.embedding_energy


def compute_eam_forces_serial(
    potential: EAMPotential,
    atoms: Atoms,
    nlist: NeighborList,
    counter: Optional[Counter] = None,
    tracer=None,
) -> EAMComputation:
    """Full serial EAM evaluation; also updates ``atoms`` in place.

    This is the reference every parallel strategy must reproduce; it is
    also the timing baseline of the paper ("runtimes of serial programs on
    one core").  The three phases are composed by the tier
    (:meth:`~repro.kernels.numpy_tier.NumpyKernelTier.evaluate`): the pair
    energy is evaluated inside phase 1, and phase 1's pair geometry and
    potential derivatives are handed to phase 3 instead of sweeping the
    pair list and calling the potential again.  When
    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) is given, each phase
    is recorded as a span tagged with its canonical name.
    """
    nlist.check_covers(atoms.n_atoms)
    rho, pair_energy, emb_energy, fp, forces = kernels.active_tier().evaluate(
        potential, atoms.positions, atoms.box, nlist, counter, tracer
    )
    atoms.rho[:] = rho
    atoms.fp[:] = fp
    atoms.forces[:] = forces
    return EAMComputation(
        pair_energy=pair_energy,
        embedding_energy=emb_energy,
        rho=rho,
        fp=fp,
        forces=forces,
    )


def compute_eam_energy(
    potential: EAMPotential,
    atoms: Atoms,
    nlist: NeighborList,
) -> float:
    """Total potential energy only (used by finite-difference force tests)."""
    rho, pair_energy = eam_density_and_pair_energy_phase(
        potential, atoms.positions, atoms.box, nlist
    )
    emb_energy = float(np.sum(potential.embed(rho)))
    return pair_energy + emb_energy

"""Structure-of-arrays atom state.

The engine keeps every per-atom quantity in its own contiguous NumPy array
(positions, velocities, forces, electron densities, ...), mirroring the flat
C arrays of the paper's kernels.  SoA layout is what makes both the
vectorized kernels and the data-reordering optimization (Section II.D of
the paper) expressible: a reorder is a single fancy-index pass per array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import units
from repro.geometry.box import Box
from repro.utils.validation import check_finite, check_shape


@dataclass
class Atoms:
    """Mutable SoA container for one atomic configuration.

    Attributes
    ----------
    positions:
        ``(n, 3)`` Å, always kept wrapped inside ``box``.
    velocities:
        ``(n, 3)`` Å/ps.
    forces:
        ``(n, 3)`` eV/Å; owned by the force strategies.
    rho:
        ``(n,)`` host electron density at each atom (EAM Eq. 1).
    fp:
        ``(n,)`` derivative of the embedding function F'(rho_i); cached
        between the density and force phases of the EAM computation.
    types:
        ``(n,)`` small-int species indices (0-based).
    ids:
        ``(n,)`` permanent atom identifiers, stable across reorders.
    masses:
        per-type masses in amu, indexed by ``types``.
    """

    box: Box
    positions: np.ndarray
    velocities: np.ndarray = field(default=None)  # type: ignore[assignment]
    forces: np.ndarray = field(default=None)  # type: ignore[assignment]
    rho: np.ndarray = field(default=None)  # type: ignore[assignment]
    fp: np.ndarray = field(default=None)  # type: ignore[assignment]
    types: np.ndarray = field(default=None)  # type: ignore[assignment]
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    masses: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(
                f"positions must be (n, 3), got shape {self.positions.shape}"
            )
        n = len(self.positions)
        check_finite(self.positions, "positions")
        self.positions = self.box.wrap(self.positions)
        if self.velocities is None:
            self.velocities = np.zeros((n, 3))
        else:
            self.velocities = np.ascontiguousarray(self.velocities, dtype=np.float64)
            check_shape(self.velocities, (n, 3), "velocities")
        if self.forces is None:
            self.forces = np.zeros((n, 3))
        else:
            self.forces = np.ascontiguousarray(self.forces, dtype=np.float64)
            check_shape(self.forces, (n, 3), "forces")
        if self.rho is None:
            self.rho = np.zeros(n)
        else:
            self.rho = np.ascontiguousarray(self.rho, dtype=np.float64)
            check_shape(self.rho, (n,), "rho")
        if self.fp is None:
            self.fp = np.zeros(n)
        else:
            self.fp = np.ascontiguousarray(self.fp, dtype=np.float64)
            check_shape(self.fp, (n,), "fp")
        if self.types is None:
            self.types = np.zeros(n, dtype=np.int32)
        else:
            self.types = np.ascontiguousarray(self.types, dtype=np.int32)
            check_shape(self.types, (n,), "types")
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        else:
            self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
            check_shape(self.ids, (n,), "ids")
        if self.masses is None:
            self.masses = np.array([units.FE_MASS_AMU])
        else:
            self.masses = np.ascontiguousarray(self.masses, dtype=np.float64)
        if self.types.size and self.types.max() >= len(self.masses):
            raise ValueError(
                f"types reference {self.types.max() + 1} species but only "
                f"{len(self.masses)} masses given"
            )

    # --- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def n_atoms(self) -> int:
        """Number of atoms."""
        return len(self.positions)

    def mass_per_atom(self) -> np.ndarray:
        """Per-atom masses (amu) expanded from per-type masses."""
        return self.masses[self.types]

    # --- mutation helpers -------------------------------------------------------

    def wrap(self) -> None:
        """Re-wrap positions into the primary cell, in place."""
        self.box.wrap_in_place(self.positions)

    def zero_forces(self) -> None:
        """Reset the force accumulator (start of a force evaluation)."""
        self.forces[:] = 0.0

    def zero_rho(self) -> None:
        """Reset the electron-density accumulator."""
        self.rho[:] = 0.0

    def reorder(self, perm: np.ndarray) -> None:
        """Permute every per-atom array so new index ``k`` is old ``perm[k]``.

        This is the mutation the data-reordering optimization performs; the
        ``ids`` array keeps the mapping back to original identity.  The
        caller is responsible for remapping any neighbor list built against
        the old ordering (see :func:`repro.core.reorder.remap_neighbor_list`).
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n_atoms,):
            raise ValueError(
                f"perm must have shape ({self.n_atoms},), got {perm.shape}"
            )
        self.positions = np.ascontiguousarray(self.positions[perm])
        self.velocities = np.ascontiguousarray(self.velocities[perm])
        self.forces = np.ascontiguousarray(self.forces[perm])
        self.rho = np.ascontiguousarray(self.rho[perm])
        self.fp = np.ascontiguousarray(self.fp[perm])
        self.types = np.ascontiguousarray(self.types[perm])
        self.ids = np.ascontiguousarray(self.ids[perm])

    def copy(self) -> "Atoms":
        """Deep copy of the full state (tests compare strategy outputs)."""
        return Atoms(
            box=self.box,
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            forces=self.forces.copy(),
            rho=self.rho.copy(),
            fp=self.fp.copy(),
            types=self.types.copy(),
            ids=self.ids.copy(),
            masses=self.masses.copy(),
        )

    def sorted_by_id(self) -> "Atoms":
        """Copy with atoms restored to id order (undo any reorder)."""
        out = self.copy()
        out.reorder(np.argsort(self.ids, kind="stable"))
        return out

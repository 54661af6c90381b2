"""Potential interfaces.

Two families:

* :class:`PairPotential` — the "pair-wise potential" of the paper's
  introduction (one computational phase: forces directly from distances).
* :class:`EAMPotential` — Daw & Baskes' Embedded Atom Method (three phases:
  electron densities, embedding energies, forces; paper Eqs. 1-2).

All methods are vectorized: they accept and return NumPy arrays of any
shape.  Implementations must return *exact zeros* at and beyond the cutoff
so that neighbor lists built with a skin do not inject spurious forces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np


class PairPotential(ABC):
    """A potential defined purely by a pair-energy function V(r)."""

    @property
    @abstractmethod
    def cutoff(self) -> float:
        """Interaction cutoff r_c in Å."""

    @abstractmethod
    def pair_energy(self, r: np.ndarray) -> np.ndarray:
        """Pair energy V(r) in eV (zero at/beyond the cutoff)."""

    @abstractmethod
    def pair_energy_deriv(self, r: np.ndarray) -> np.ndarray:
        """dV/dr in eV/Å (zero at/beyond the cutoff)."""


class EAMPotential(PairPotential):
    """An EAM potential: pair term + host density + embedding function.

    Total energy:  ``E = sum_pairs V(r_ij) + sum_i F(rho_i)`` with
    ``rho_i = sum_j phi(r_ij)`` (Eq. 1 of the paper); the force on atom i is
    Eq. 2:

    ``F_i = -sum_j (V'(r_ij) + F'(rho_i) phi'(r_ij) + F'(rho_j) phi'(r_ij)) r_hat_ij``

    (single-element form: the density function is the same for both
    directions of a pair, which is what makes the Section II.D half-list
    optimization valid).
    """

    @abstractmethod
    def density(self, r: np.ndarray) -> np.ndarray:
        """Electron-density contribution phi(r) (zero at/beyond cutoff)."""

    @abstractmethod
    def density_deriv(self, r: np.ndarray) -> np.ndarray:
        """d(phi)/dr (zero at/beyond cutoff)."""

    def pair_terms(
        self, r: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(phi, phi', V, V')`` for a slice of pair distances.

        Everything one force evaluation needs from the radial functions,
        in one call: the kernels make it once per pair slice and hand the
        derivatives from the density pass to the force pass.  This default
        composes the four functions; a potential whose functions share
        sub-expressions overrides it with one pass, within 1e-12
        (relative to each function's scale) of this composition and with
        the same exact zeros at and beyond the cutoff.
        """
        return (
            self.density(r),
            self.density_deriv(r),
            self.pair_energy(r),
            self.pair_energy_deriv(r),
        )

    @abstractmethod
    def embed(self, rho: np.ndarray) -> np.ndarray:
        """Embedding energy F(rho) in eV."""

    @abstractmethod
    def embed_deriv(self, rho: np.ndarray) -> np.ndarray:
        """dF/d(rho)."""

    # --- shared sanity helper ------------------------------------------------

    def check_cutoff_consistency(self, n_samples: int = 64) -> None:
        """Raise if the potential is non-zero at or beyond its cutoff.

        Cheap guard used by tests and by :func:`tabulate`; a potential that
        violates this produces forces that depend on the neighbor-list skin.
        """
        r = np.linspace(self.cutoff, self.cutoff * 1.5, n_samples)
        fused = self.pair_terms(r)
        for name, values in (
            ("pair_energy", self.pair_energy(r)),
            ("pair_energy_deriv", self.pair_energy_deriv(r)),
            ("density", self.density(r)),
            ("density_deriv", self.density_deriv(r)),
            *((f"pair_terms()[{k}]", term) for k, term in enumerate(fused)),
        ):
            if np.any(np.asarray(values) != 0.0):
                raise ValueError(
                    f"{type(self).__name__}.{name} is non-zero beyond cutoff"
                )

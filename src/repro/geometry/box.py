"""Orthorhombic periodic simulation box.

The paper simulates bulk bcc iron "under periodic boundary conditions"; an
orthorhombic (rectangular) box with full periodicity in x, y, z is all the
workloads need.  The box owns the two geometric primitives everything else
builds on: coordinate wrapping and minimum-image displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import check_shape


@dataclass(frozen=True)
class Box:
    """An axis-aligned periodic box ``[0, Lx) x [0, Ly) x [0, Lz)``.

    Attributes
    ----------
    lengths:
        edge lengths ``(Lx, Ly, Lz)`` in Å, all strictly positive.
    periodic:
        per-axis periodicity flags; the paper's systems are fully periodic
        but the engine supports open boundaries for the example scenarios
        (e.g. free surfaces in the micro-deformation example).
    """

    lengths: np.ndarray
    periodic: np.ndarray

    def __init__(
        self,
        lengths: Sequence[float],
        periodic: Sequence[bool] = (True, True, True),
    ) -> None:
        lengths_arr = np.asarray(lengths, dtype=np.float64)
        periodic_arr = np.asarray(periodic, dtype=bool)
        check_shape(lengths_arr, (3,), "lengths")
        check_shape(periodic_arr, (3,), "periodic")
        if np.any(lengths_arr <= 0):
            raise ValueError(f"box lengths must be positive, got {lengths_arr}")
        object.__setattr__(self, "lengths", lengths_arr)
        object.__setattr__(self, "periodic", periodic_arr)

    # --- derived geometry ---------------------------------------------------

    @property
    def volume(self) -> float:
        """Box volume in Å^3."""
        return float(np.prod(self.lengths))

    def min_length(self) -> float:
        """Shortest edge, the binding constraint for cutoffs and subdomains."""
        return float(np.min(self.lengths))

    # --- core primitives ------------------------------------------------------

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into the primary cell along periodic axes.

        Non-periodic axes are left untouched.  Returns a new array.
        """
        wrapped = np.asarray(positions, dtype=np.float64).copy()
        self.wrap_in_place(wrapped)
        return wrapped

    def wrap_in_place(self, positions: np.ndarray) -> None:
        """:meth:`wrap` writing into ``positions`` (a float64 array)."""
        for axis in range(3):
            if self.periodic[axis]:
                length = self.lengths[axis]
                component = positions[..., axis]
                np.remainder(component, length, out=component)
                # float modulo of a tiny negative value rounds to exactly
                # `length`; fold that onto 0 so wrap stays idempotent and
                # wrapped points satisfy 0 <= x < length
                component[component >= length] = 0.0

    def minimum_image(self, displacement: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors.

        For each periodic axis, folds components into ``[-L/2, L/2)``.
        Works on any ``(..., 3)`` array; returns a new array.
        """
        displacement = np.asarray(displacement, dtype=np.float64)
        out = displacement.copy()
        for axis in range(3):
            if self.periodic[axis]:
                length = self.lengths[axis]
                # floor-based fold maps into [-L/2, L/2) and, unlike
                # np.round's banker's rounding, resolves the exact-L/2 tie
                # the same way for every lattice image of a displacement
                out[..., axis] -= length * np.floor(
                    out[..., axis] / length + 0.5
                )
        return out

    def max_displacement(self, positions: np.ndarray, reference: np.ndarray) -> float:
        """Largest minimum-image distance between matching rows of two
        ``(n, 3)`` arrays; NaN when any coordinate is NaN or inf."""
        # the fold maps every lattice image of a difference to the same
        # value, so wrapping ``positions`` first would change nothing
        delta = self.minimum_image(positions - reference)
        if len(delta) == 0:
            return 0.0
        # x^2 + y^2, then + z^2: the order a compiled twin can match on
        # every NumPy (einsum's is its own and changes between versions)
        squared = delta[:, 0] * delta[:, 0]
        for axis in (1, 2):
            squared += delta[:, axis] * delta[:, axis]
        return float(np.sqrt(np.max(squared)))

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimum-image distances between position arrays ``a`` and ``b``."""
        delta = self.minimum_image(np.asarray(a) - np.asarray(b))
        return np.sqrt(np.sum(delta * delta, axis=-1))

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask: is each position inside the primary cell?"""
        positions = np.asarray(positions, dtype=np.float64)
        inside = np.ones(positions.shape[:-1], dtype=bool)
        for axis in range(3):
            inside &= (positions[..., axis] >= 0.0) & (
                positions[..., axis] < self.lengths[axis]
            )
        return inside

    def max_cutoff(self) -> float:
        """Largest pair cutoff the minimum-image convention supports.

        A cutoff must be < L/2 along every periodic axis, otherwise an atom
        would interact with two images of the same neighbor.
        """
        limits = [
            self.lengths[axis] / 2.0 for axis in range(3) if self.periodic[axis]
        ]
        return min(limits) if limits else float("inf")

    def scaled(self, factor: float) -> "Box":
        """Return a copy with all edges multiplied by ``factor`` (strain)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return Box(self.lengths * factor, tuple(self.periodic))

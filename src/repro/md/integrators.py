"""Time integrators.

The engine's default is velocity Verlet — the standard symplectic
integrator classical MD codes (including XMD) use.  Integrators operate on
:class:`~repro.md.atoms.Atoms` in place and know nothing about forces; the
:class:`~repro.md.simulation.Simulation` driver interleaves them with the
force strategy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro import kernels, units
from repro.md.atoms import Atoms


class Moments(NamedTuple):
    """What the closing kick learns about the step from the pass it makes.

    The thermostat, the health monitor and the driver's sample read these
    instead of reducing over the atoms again.
    """

    #: kinetic energy (eV)
    kinetic: float
    #: total momentum ``sum m v`` (amu Å/ps), per axis
    momentum: Tuple[float, float, float]
    #: ``sum f`` (eV/Å), per axis: ~0 by Newton's third law
    force_sum: Tuple[float, float, float]
    #: kinetic energy a thermostat moved in or out this step (eV); 0 from
    #: an integrator
    exchanged: float = 0.0

    def rescaled(self, factor: float) -> "Moments":
        """The moments once every velocity is multiplied by ``factor``; the
        kinetic energy that moved joins ``exchanged``."""
        px, py, pz = self.momentum
        return Moments(
            self.kinetic * factor * factor,
            (px * factor, py * factor, pz * factor),
            self.force_sum,
            self.exchanged + self.kinetic * (factor * factor - 1.0),
        )


#: a step ring's answer (``verlet_ring``) once its kick-drift moved an atom
#: past half the skin: the driver rebuilds and rings without the kick-drift
REBUILD = "rebuild"


class Integrator(ABC):
    """Two-half-step integrator interface (velocity-Verlet style).

    A step is ``first_half`` (uses current forces, advances positions) ->
    force evaluation -> ``second_half`` (finishes the velocity update).
    Either half may return a by-product the driver would otherwise compute
    again — the displacement from ``reference`` and the step's
    :class:`Moments` — or None, and the driver computes it itself.
    """

    def __init__(self, timestep: float) -> None:
        if timestep <= 0:
            raise ValueError(f"timestep must be positive, got {timestep}")
        self.timestep = timestep

    @abstractmethod
    def first_half(
        self, atoms: Atoms, reference: Optional[np.ndarray] = None
    ) -> Optional[float]:
        """Advance velocities half a step and positions a full step; may
        return the largest minimum-image displacement of the new positions
        from ``reference`` (the neighbour list's build positions)."""

    @abstractmethod
    def second_half(self, atoms: Atoms) -> Optional[Moments]:
        """Finish the velocity update with the new forces; may return the
        :class:`Moments` it leaves."""


class VelocityVerlet(Integrator):
    """Velocity Verlet in metal units (Å, ps, eV, amu).

    ``v(t+dt/2) = v(t) + (dt/2) F(t)/m``;
    ``x(t+dt)   = x(t) + dt v(t+dt/2)``;
    ``v(t+dt)   = v(t+dt/2) + (dt/2) F(t+dt)/m``.

    Each half is one kernel-tier call over the atom rows
    (:meth:`~repro.kernels.numpy_tier.NumpyKernelTier.kick_drift`,
    :meth:`~repro.kernels.numpy_tier.NumpyKernelTier.kick`), which updates
    ``positions`` and ``velocities`` in place: the arrays stay the same
    objects from step to step.  A calculator with a ``verlet_ring`` may run
    both halves itself, with :meth:`kicks`, bit for bit.
    """

    @staticmethod
    def _scale(atoms: Atoms) -> np.ndarray:
        """``F -> a`` per species: ``(1/m) * EVA_TO_AMU_APS2``."""
        return (1.0 / atoms.masses) * units.EVA_TO_AMU_APS2

    def first_half(
        self, atoms: Atoms, reference: Optional[np.ndarray] = None
    ) -> Optional[float]:
        return kernels.active_tier().kick_drift(
            atoms.positions, atoms.velocities, atoms.forces, atoms.types,
            self._scale(atoms), 0.5 * self.timestep, self.timestep, atoms.box,
            reference,
        )

    def second_half(self, atoms: Atoms) -> Moments:
        return self.moments(*kernels.active_tier().kick(
            atoms.velocities, atoms.forces, atoms.types, self._scale(atoms),
            atoms.masses, 0.5 * self.timestep,
        ))

    def kicks(self, atoms: Atoms):
        """``(scale, half_dt, dt)``, the two halves' terms for a calculator
        that runs them itself; None where a subclass changed a half."""
        halves = type(self).first_half, type(self).second_half
        if halves != (VelocityVerlet.first_half, VelocityVerlet.second_half):
            return None
        return self._scale(atoms), 0.5 * self.timestep, self.timestep

    @staticmethod
    def moments(mv2: float, momentum, force_sum) -> Moments:
        """The :class:`Moments` of the closing kick's sums."""
        return Moments(0.5 * units.MVV_TO_EV * mv2, momentum, force_sum)


class Euler(Integrator):
    """Forward Euler — intentionally crude, used in tests to show the
    driver is integrator-agnostic and in docs to contrast energy drift."""

    def first_half(
        self, atoms: Atoms, reference: Optional[np.ndarray] = None
    ) -> None:
        inv_mass = 1.0 / atoms.mass_per_atom()
        accel = atoms.forces * (inv_mass[:, None] * units.EVA_TO_AMU_APS2)
        atoms.positions += self.timestep * atoms.velocities
        atoms.velocities += self.timestep * accel
        atoms.wrap()

    def second_half(self, atoms: Atoms) -> None:
        # Euler does everything in the first half
        return None


def remove_drift(atoms: Atoms) -> None:
    """Zero the center-of-mass momentum (mass-weighted)."""
    masses = atoms.mass_per_atom()
    total = float(masses.sum())
    if total == 0.0 or len(atoms) == 0:
        return
    momentum = (masses[:, None] * atoms.velocities).sum(axis=0)
    atoms.velocities -= momentum[None, :] / total

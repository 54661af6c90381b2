"""Thermostats for temperature control.

The paper's micro-deformation workloads start from a lattice with assigned
initial energy; the example applications use these thermostats to
equilibrate before measurement.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

from repro import units
from repro.md.atoms import Atoms
from repro.md.observables import temperature


class Thermostat(ABC):
    """Velocity-modifying temperature controller, applied once per step.

    :meth:`apply` may be handed the kinetic energy the closing kick already
    summed, and returns the factor it multiplied every velocity by, so the
    driver carries the step's moments across it by scalar algebra; None
    when it did anything else, and the driver sums them again.
    """

    def __init__(self, target_temperature: float) -> None:
        if target_temperature < 0:
            raise ValueError("target temperature must be >= 0")
        self.target_temperature = target_temperature

    @abstractmethod
    def apply(
        self, atoms: Atoms, timestep: float, kinetic: Optional[float] = None
    ) -> Optional[float]:
        """Rescale/adjust velocities toward the target temperature;
        ``kinetic`` is the atoms' kinetic energy (eV) when known."""

    @staticmethod
    def _temperature(atoms: Atoms, kinetic: Optional[float]) -> float:
        if kinetic is None or len(atoms) == 0:
            return temperature(atoms)
        return units.kinetic_energy_to_temperature(kinetic, len(atoms))


class VelocityRescaleThermostat(Thermostat):
    """Hard rescale: sets the instantaneous temperature to the target.

    Simple and aggressive; fine for initial equilibration.
    """

    def apply(
        self, atoms: Atoms, timestep: float, kinetic: Optional[float] = None
    ) -> float:
        current = self._temperature(atoms, kinetic)
        if current <= 0.0:
            return 1.0
        factor = math.sqrt(self.target_temperature / current)
        atoms.velocities *= factor
        return factor


class BerendsenThermostat(Thermostat):
    """Berendsen weak-coupling thermostat.

    Velocities are scaled by ``sqrt(1 + (dt/tau)(T0/T - 1))`` each step,
    relaxing the temperature exponentially with time constant ``tau`` (ps).
    """

    def __init__(self, target_temperature: float, tau: float = 0.1) -> None:
        super().__init__(target_temperature)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau

    def apply(
        self, atoms: Atoms, timestep: float, kinetic: Optional[float] = None
    ) -> float:
        current = self._temperature(atoms, kinetic)
        if current <= 0.0:
            return 1.0
        arg = 1.0 + (timestep / self.tau) * (
            self.target_temperature / current - 1.0
        )
        factor = math.sqrt(max(arg, 0.0))
        atoms.velocities *= factor
        return factor

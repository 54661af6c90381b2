"""Molecular-dynamics substrate: atoms, neighbor lists, integration, driver."""

from repro.md.analysis import (
    mean_squared_displacement,
    radial_distribution,
)
from repro.md.atoms import Atoms
from repro.md.neighbor import CellList, NeighborList, build_neighbor_list
from repro.md.integrators import VelocityVerlet
from repro.md.minimize import fire, steepest_descent
from repro.md.observables import (
    kinetic_energy,
    temperature,
    total_momentum,
    virial_pressure,
)
from repro.md.simulation import Simulation, SimulationReport
from repro.md.thermostats import BerendsenThermostat, VelocityRescaleThermostat

__all__ = [
    "Atoms",
    "radial_distribution",
    "mean_squared_displacement",
    "fire",
    "steepest_descent",
    "CellList",
    "NeighborList",
    "build_neighbor_list",
    "VelocityVerlet",
    "Simulation",
    "SimulationReport",
    "BerendsenThermostat",
    "VelocityRescaleThermostat",
    "kinetic_energy",
    "temperature",
    "total_momentum",
    "virial_pressure",
]

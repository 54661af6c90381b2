"""The MD driver: stepping, neighbor management, reports."""

import numpy as np
import pytest

from repro import units
from repro.core.strategies import SDCStrategy
from repro.harness.cases import Case
from repro.md.integrators import VelocityVerlet
from repro.md.simulation import SerialCalculator, Simulation
from repro.md.thermostats import VelocityRescaleThermostat
from repro.potentials import fe_potential


@pytest.fixture()
def sim():
    case = Case(key="t", label="t", n_cells=4)
    atoms = case.build(perturbation=0.03, temperature=50.0, seed=2)
    return Simulation(
        atoms,
        fe_potential(),
        integrator=VelocityVerlet(timestep=1e-3),
        skin=0.4,
    )


class TestNeighborManagement:
    def test_list_built_on_demand(self, sim):
        assert sim.nlist is None
        nlist = sim.ensure_neighbor_list()
        assert nlist is not None
        assert nlist.half

    def test_list_reused_when_static(self, sim):
        first = sim.ensure_neighbor_list()
        second = sim.ensure_neighbor_list()
        assert first is second

    def test_list_rebuilt_after_large_motion(self, sim):
        first = sim.ensure_neighbor_list()
        sim.atoms.positions[0, 0] += 0.5
        second = sim.ensure_neighbor_list()
        assert second is not first

    def test_rebuild_every_cadence(self):
        case = Case(key="t", label="t", n_cells=4)
        atoms = case.build(perturbation=0.03, seed=2)
        sim = Simulation(
            atoms, fe_potential(), rebuild_every=2, skin=1.0
        )
        sim.run(5, sample_every=1)
        assert sim.n_neighbor_rebuilds >= 2

    def test_rejects_bad_cadence(self):
        case = Case(key="t", label="t", n_cells=4)
        atoms = case.build(seed=2)
        with pytest.raises(ValueError):
            Simulation(atoms, fe_potential(), rebuild_every=0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_position_stops_the_run(self, sim, bad):
        """A poisoned atom must end the run with its name, not a wrong list.

        On the parent commit ``nan > skin/2`` was False, so the stale list
        was kept forever and the run finished all three steps.
        """
        sim.run(1)
        sim.atoms.positions[17, 2] = bad
        with pytest.raises(ValueError, match=r"first at index \(17, 2\)"):
            sim.run(3)


class TestRun:
    def test_report_counts(self, sim):
        report = sim.run(10, sample_every=5)
        assert report.n_steps == 10
        assert len(report.records) >= 2
        assert report.force_seconds > 0.0

    def test_force_seconds_is_per_run(self, sim):
        """Each report carries its own run's force time, like its rebuilds.

        On the parent commit the second report also held the first run's
        seconds and a zero-step run reported the lifetime total.
        """
        first = sim.run(5)
        second = sim.run(5)
        empty = sim.run(0)
        assert empty.force_seconds == 0.0
        assert empty.n_neighbor_rebuilds == 0
        # run 1 pays the t=0 evaluation on top of its five steps
        assert 0.0 < second.force_seconds < first.force_seconds * 3
        assert first.force_seconds + second.force_seconds == pytest.approx(
            sim.force_seconds
        )

    def test_energy_conservation_nve(self, sim):
        report = sim.run(40, sample_every=1)
        energies = report.energies()
        drift = abs(energies[-1] - energies[0])
        scale = abs(energies[0])
        assert drift / scale < 1e-5

    def test_momentum_conserved(self, sim):
        masses = sim.atoms.mass_per_atom()
        before = (masses[:, None] * sim.atoms.velocities).sum(axis=0)
        sim.run(20)
        after = (masses[:, None] * sim.atoms.velocities).sum(axis=0)
        assert np.allclose(before, after, atol=1e-8)

    def test_thermostat_reaches_target(self):
        case = Case(key="t", label="t", n_cells=4)
        atoms = case.build(perturbation=0.03, temperature=500.0, seed=2)
        sim = Simulation(
            atoms,
            fe_potential(),
            thermostat=VelocityRescaleThermostat(100.0),
        )
        sim.run(3)
        from repro.md.observables import temperature

        assert temperature(sim.atoms) == pytest.approx(100.0, rel=1e-6)

    def test_zero_steps(self, sim):
        report = sim.run(0)
        assert report.n_steps == 0

    def test_rejects_negative_steps(self, sim):
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_rejects_bad_sampling(self, sim):
        with pytest.raises(ValueError):
            sim.run(5, sample_every=0)


class TestCalculatorPlugin:
    def test_sdc_calculator_matches_serial_trajectory(self):
        """Same initial state — identical trajectories under either calculator."""
        # 6 cells -> 17.2 Å box, large enough for a 2x2x2 SDC grid
        case = Case(key="t", label="t", n_cells=6)

        def run(calculator):
            atoms = case.build(perturbation=0.03, temperature=50.0, seed=2)
            sim = Simulation(
                atoms,
                fe_potential(),
                calculator=calculator,
                integrator=VelocityVerlet(timestep=1e-3),
            )
            sim.run(10)
            return atoms.positions

        serial = run(SerialCalculator())
        sdc = run(SDCStrategy(dims=3, n_threads=2))
        assert np.allclose(serial, sdc, atol=1e-10)

    def test_last_computation_exposed(self, sim):
        assert sim.last_computation is None
        sim.compute_forces()
        assert sim.last_computation is not None
        assert np.isfinite(sim.last_computation.potential_energy)

"""Thermostats."""

import numpy as np
import pytest

from repro import kernels, units
from repro.geometry.box import Box
from repro.md.atoms import Atoms
from repro.md.observables import kinetic_energy, temperature
from repro.md.thermostats import BerendsenThermostat, VelocityRescaleThermostat
from repro.utils.rng import default_rng, velocity_from_temperature


@pytest.fixture()
def hot_atoms(rng):
    atoms = Atoms(
        box=Box((20.0, 20.0, 20.0)),
        positions=rng.uniform(0, 20, size=(200, 3)),
    )
    atoms.velocities = velocity_from_temperature(
        default_rng(8), 200, units.FE_MASS_AMU, 600.0, units.MVV_TO_EV,
        units.KB_EV_PER_K,
    )
    return atoms


class TestVelocityRescale:
    def test_sets_exact_temperature(self, hot_atoms):
        VelocityRescaleThermostat(300.0).apply(hot_atoms, timestep=1e-3)
        assert temperature(hot_atoms) == pytest.approx(300.0)

    def test_zero_velocity_system_untouched(self):
        atoms = Atoms(box=Box((5, 5, 5)), positions=np.zeros((4, 3)))
        VelocityRescaleThermostat(300.0).apply(atoms, timestep=1e-3)
        assert np.all(atoms.velocities == 0.0)

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError):
            VelocityRescaleThermostat(-10.0)


class TestBerendsen:
    def test_moves_toward_target(self, hot_atoms):
        start = temperature(hot_atoms)
        BerendsenThermostat(300.0, tau=0.01).apply(hot_atoms, timestep=1e-3)
        after = temperature(hot_atoms)
        assert 300.0 < after < start

    def test_relaxation_rate_scales_with_tau(self, hot_atoms):
        fast = hot_atoms.copy()
        slow = hot_atoms.copy()
        BerendsenThermostat(300.0, tau=0.001).apply(fast, timestep=1e-3)
        BerendsenThermostat(300.0, tau=1.0).apply(slow, timestep=1e-3)
        assert temperature(fast) < temperature(slow)

    def test_converges_over_many_steps(self, hot_atoms):
        thermostat = BerendsenThermostat(300.0, tau=0.005)
        for _ in range(100):
            thermostat.apply(hot_atoms, timestep=1e-3)
        assert temperature(hot_atoms) == pytest.approx(300.0, rel=1e-3)

    def test_heats_cold_system(self, hot_atoms):
        VelocityRescaleThermostat(100.0).apply(hot_atoms, timestep=1e-3)
        BerendsenThermostat(300.0, tau=0.01).apply(hot_atoms, timestep=1e-3)
        assert temperature(hot_atoms) > 100.0

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            BerendsenThermostat(300.0, tau=0.0)


THERMOSTATS = [
    pytest.param(lambda: VelocityRescaleThermostat(300.0), id="rescale"),
    pytest.param(lambda: BerendsenThermostat(300.0, tau=0.01), id="berendsen"),
]


@pytest.mark.parametrize("make", THERMOSTATS)
class TestTheFactorHandOff:
    """``apply`` takes the kick's kinetic energy when given it and returns
    the factor it multiplied every velocity by."""

    def test_returns_the_factor_it_applied(self, make, hot_atoms):
        before = hot_atoms.velocities.copy()
        factor = make().apply(hot_atoms, timestep=1e-3)
        assert factor != 1.0
        assert np.array_equal(hot_atoms.velocities, before * factor)

    def test_the_given_kinetic_energy_is_the_summed_one(self, make, hot_atoms):
        summed = hot_atoms.copy()
        kinetic = kinetic_energy(hot_atoms)
        assert make().apply(hot_atoms, 1e-3, kinetic=kinetic) == make().apply(
            summed, 1e-3
        )
        assert np.array_equal(hot_atoms.velocities, summed.velocities)

    def test_the_given_kinetic_energy_is_read(self, make, hot_atoms, monkeypatch):
        import repro.md.thermostats as thermostats

        def forbidden(atoms):
            raise AssertionError("summed over the atoms")

        monkeypatch.setattr(thermostats, "temperature", forbidden)
        twice = make().apply(hot_atoms.copy(), 1e-3, kinetic=2.0 * kinetic_energy(hot_atoms))
        assert twice < make().apply(hot_atoms, 1e-3, kinetic=kinetic_energy(hot_atoms))

    def test_a_still_system_gets_the_unit_factor(self, make):
        atoms = Atoms(box=Box((5, 5, 5)), positions=np.zeros((4, 3)))
        assert make().apply(atoms, 1e-3) == 1.0
        assert make().apply(atoms, 1e-3, kinetic=0.0) == 1.0
        assert np.all(atoms.velocities == 0.0)


class _Recounting(BerendsenThermostat):
    """Applies Berendsen but returns None, as a thermostat written before
    the factor hand-off would."""

    def apply(self, atoms, timestep, kinetic=None):
        super().apply(atoms, timestep, kinetic)


class TestTheDriverHandOff:
    """The driver hands the kick's kinetic energy to the thermostat and
    carries the moments across the factor; a None factor makes the sample
    and the health monitor sum them again."""

    def run(self, thermostat, monkeypatch, n_steps=4):
        import repro.obs.health as health
        from repro.harness.cases import Case
        from repro.md.simulation import Simulation
        from repro.obs.health import HealthMonitor
        from repro.obs.recorder import FlightRecorder
        from repro.potentials import fe_potential

        summed = []
        real = health._moments_of

        def counting(atoms):
            summed.append(1)
            return real(atoms)

        monkeypatch.setattr(health, "_moments_of", counting)
        atoms = Case(key="t", label="t", n_cells=4).build(
            perturbation=0.03, temperature=500.0, seed=2
        )
        sim = Simulation(
            atoms, fe_potential(), thermostat=thermostat,
            health=HealthMonitor(recorder=FlightRecorder()),
        )
        report = sim.run(n_steps, sample_every=1)
        return sim, report, len(summed)

    @pytest.mark.parametrize("make", THERMOSTATS)
    def test_a_factor_carries_the_moments(self, make, monkeypatch):
        import repro.md.thermostats as thermostats

        def forbidden(atoms):
            raise AssertionError("summed over the atoms")

        monkeypatch.setattr(thermostats, "temperature", forbidden)
        sim, report, summed = self.run(make(), monkeypatch)
        assert summed == 0
        # lambda^2 K against a sum over the rescaled velocities
        assert report.records[-1].kinetic_energy == pytest.approx(
            kinetic_energy(sim.atoms), rel=1e-12
        )
        assert sim.health.exchanged != 0.0

    def test_a_none_factor_makes_the_sample_and_the_monitor_recompute(
        self, monkeypatch
    ):
        sim, report, summed = self.run(_Recounting(100.0, tau=0.01), monkeypatch)
        assert summed == 4
        assert report.records[-1].kinetic_energy == kinetic_energy(sim.atoms)
        assert sim.health.exchanged == 0.0

    def test_a_none_factor_is_the_same_trajectory(self, monkeypatch):
        handed, _, _ = self.run(BerendsenThermostat(100.0, tau=0.01), monkeypatch)
        recounted, _, _ = self.run(_Recounting(100.0, tau=0.01), monkeypatch)
        # the factor comes from the kick's sum or from a fresh one: the
        # same sum on the NumPy tier, atom by atom against pairwise on C
        for got, want in (
            (handed.atoms.velocities, recounted.atoms.velocities),
            (handed.atoms.positions, recounted.atoms.positions),
        ):
            if kernels.active_tier().name == "numpy":
                assert np.array_equal(got, want)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

"""Integrators: kinematics, drift removal, interface contracts.

The driver calls an integrator by name only: ``first_half(atoms,
reference)`` may return the displacement from ``reference`` and
``second_half(atoms)`` the step's moments, and an integrator returning
None for either gets the driver's own Verlet check and moments.
"""

import numpy as np
import pytest

from repro import kernels, units
from repro.geometry.box import Box
from repro.harness.cases import Case
from repro.md.atoms import Atoms
from repro.md.integrators import Euler, VelocityVerlet, remove_drift
from repro.md.neighbor.verlet import NeighborList
from repro.md.observables import kinetic_energy
from repro.md.simulation import Simulation
from repro.potentials import fe_potential

TIERS = kernels.available_tiers()


@pytest.fixture()
def free_atom():
    """One atom, no forces — pure kinematics."""
    atoms = Atoms(box=Box((100.0, 100.0, 100.0)), positions=np.array([[50.0, 50.0, 50.0]]))
    atoms.velocities[0] = [1.0, 0.0, 0.0]
    return atoms


class TestVelocityVerlet:
    def test_rejects_bad_timestep(self):
        with pytest.raises(ValueError):
            VelocityVerlet(timestep=0.0)

    def test_free_particle_moves_linearly(self, free_atom):
        vv = VelocityVerlet(timestep=0.5)
        vv.first_half(free_atom)
        vv.second_half(free_atom)
        assert free_atom.positions[0, 0] == pytest.approx(50.5)
        assert free_atom.velocities[0, 0] == pytest.approx(1.0)

    def test_constant_force_acceleration(self, free_atom):
        """One step under constant F matches x = x0 + v dt + F dt^2 / 2m."""
        dt = 0.1
        force = 2.0  # eV/Å
        mass = free_atom.mass_per_atom()[0]
        free_atom.velocities[0] = 0.0
        free_atom.forces[0] = [force, 0.0, 0.0]
        vv = VelocityVerlet(timestep=dt)
        vv.first_half(free_atom)
        free_atom.forces[0] = [force, 0.0, 0.0]  # force unchanged
        vv.second_half(free_atom)
        accel = force / mass * units.EVA_TO_AMU_APS2
        assert free_atom.positions[0, 0] == pytest.approx(50.0 + 0.5 * accel * dt**2)
        assert free_atom.velocities[0, 0] == pytest.approx(accel * dt)

    def test_positions_wrapped(self):
        atoms = Atoms(box=Box((10.0, 10.0, 10.0)), positions=np.array([[9.9, 5.0, 5.0]]))
        atoms.velocities[0] = [1.0, 0.0, 0.0]
        vv = VelocityVerlet(timestep=0.5)
        vv.first_half(atoms)
        assert atoms.box.contains(atoms.positions).all()

    def test_time_reversibility(self, small_atoms, potential, small_nlist):
        """Integrate forward then backward: positions return (symplectic)."""
        from repro.potentials.eam import compute_eam_forces_serial

        atoms = small_atoms.copy()
        rng = np.random.default_rng(3)
        atoms.velocities[:] = rng.normal(0, 5.0, size=atoms.velocities.shape)
        start = atoms.positions.copy()
        vv = VelocityVerlet(timestep=5e-4)
        compute_eam_forces_serial(potential, atoms, small_nlist)
        for _ in range(5):
            vv.first_half(atoms)
            compute_eam_forces_serial(potential, atoms, small_nlist)
            vv.second_half(atoms)
        atoms.velocities *= -1.0
        for _ in range(5):
            vv.first_half(atoms)
            compute_eam_forces_serial(potential, atoms, small_nlist)
            vv.second_half(atoms)
        delta = atoms.box.minimum_image(atoms.positions - start)
        assert np.max(np.abs(delta)) < 1e-8


class TestEuler:
    def test_free_particle(self, free_atom):
        eu = Euler(timestep=0.25)
        eu.first_half(free_atom)
        eu.second_half(free_atom)
        assert free_atom.positions[0, 0] == pytest.approx(50.25)

    def test_second_half_is_noop(self, free_atom):
        eu = Euler(timestep=0.25)
        before = free_atom.positions.copy()
        eu.second_half(free_atom)
        assert np.array_equal(free_atom.positions, before)


class TestRemoveDrift:
    def test_zeroes_total_momentum(self, rng):
        atoms = Atoms(
            box=Box((20.0, 20.0, 20.0)),
            positions=rng.uniform(0, 20, size=(40, 3)),
        )
        atoms.velocities[:] = rng.normal(2.0, 1.0, size=(40, 3))
        remove_drift(atoms)
        masses = atoms.mass_per_atom()
        momentum = (masses[:, None] * atoms.velocities).sum(axis=0)
        assert np.allclose(momentum, 0.0, atol=1e-10)

    def test_relative_velocities_preserved(self, rng):
        atoms = Atoms(
            box=Box((20.0, 20.0, 20.0)),
            positions=rng.uniform(0, 20, size=(10, 3)),
        )
        atoms.velocities[:] = rng.normal(size=(10, 3))
        before = atoms.velocities.copy()
        remove_drift(atoms)
        diff = atoms.velocities - before
        # uniform shift: all atoms shifted by the same vector
        assert np.allclose(diff, diff[0], atol=1e-12)

    def test_empty_system_noop(self):
        atoms = Atoms(box=Box((5, 5, 5)), positions=np.zeros((0, 3)))
        remove_drift(atoms)


@pytest.fixture()
def hot_atoms(small_atoms):
    """The small system with thermal velocities and non-zero forces."""
    atoms = small_atoms.copy()
    rng = np.random.default_rng(2)
    atoms.velocities[:] = rng.normal(0.0, 8.0, size=atoms.velocities.shape)
    atoms.forces[:] = rng.normal(0.0, 1.0, size=atoms.forces.shape)
    return atoms


@pytest.mark.parametrize("tier", TIERS)
class TestVerletHalvesReturnTheirByProducts:
    def test_first_half_returns_the_lists_displacement(
        self, tier, hot_atoms, small_nlist
    ):
        vv = VelocityVerlet(2e-3)
        with kernels.use_tier(tier):
            moved = vv.first_half(hot_atoms, small_nlist.reference_positions)
            assert moved == small_nlist.max_displacement(hot_atoms.positions)
            assert moved > 0.0
            assert vv.first_half(hot_atoms) is None  # nothing to measure from

    def test_second_half_returns_the_kinetic_energy(self, tier, hot_atoms):
        with kernels.use_tier(tier):
            energy = VelocityVerlet(2e-3).second_half(hot_atoms).kinetic
        # the C tier sums atom by atom, NumPy pairwise
        assert energy == pytest.approx(kinetic_energy(hot_atoms), rel=1e-12)

    def test_state_arrays_stay_the_same_objects(self, tier, hot_atoms):
        positions, velocities = hot_atoms.positions, hot_atoms.velocities
        vv = VelocityVerlet(1e-3)
        with kernels.use_tier(tier):
            for _ in range(3):
                vv.first_half(hot_atoms)
                vv.second_half(hot_atoms)
            Euler(1e-3).first_half(hot_atoms)
        assert hot_atoms.positions is positions
        assert hot_atoms.velocities is velocities


class Forwarding:
    """Forwards both halves to a :class:`VelocityVerlet` and returns None
    from each, as an integrator written before the by-products would."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.timestep = inner.timestep

    def first_half(self, atoms, reference=None):
        self.inner.first_half(atoms)

    def second_half(self, atoms):
        self.inner.second_half(atoms)


@pytest.mark.parametrize("tier", TIERS)
class TestDuckTypedIntegrators:
    """Integrators that return None keep the full Verlet check and the
    driver's own kinetic energy; VelocityVerlet hands both over."""

    @pytest.fixture()
    def checks(self, monkeypatch):
        calls = []
        real = NeighborList.needs_rebuild

        def counting(nlist, positions):
            calls.append(1)
            return real(nlist, positions)

        monkeypatch.setattr(NeighborList, "needs_rebuild", counting)
        return calls

    def run(self, tier, integrator, n_steps=12):
        atoms = Case(key="t", label="t", n_cells=4).build(
            perturbation=0.03, temperature=900.0, seed=2
        )
        positions = atoms.positions
        with kernels.use_tier(tier):
            sim = Simulation(atoms, fe_potential(), integrator=integrator, skin=0.1)
            report = sim.run(n_steps, sample_every=1)
        assert atoms.positions is positions
        return atoms, report

    def test_a_forwarding_proxy_is_the_same_trajectory(self, tier, checks):
        direct, direct_report = self.run(tier, VelocityVerlet(1e-3))
        assert checks == []  # every check handed over by first_half
        proxied, proxied_report = self.run(tier, Forwarding(VelocityVerlet(1e-3)))
        assert len(checks) == 12  # one full check per step
        assert np.array_equal(direct.positions, proxied.positions)
        assert np.array_equal(direct.velocities, proxied.velocities)
        assert direct_report.n_neighbor_rebuilds == proxied_report.n_neighbor_rebuilds > 1
        assert proxied_report.records[-1].kinetic_energy == kinetic_energy(proxied)
        assert direct_report.records[-1].kinetic_energy == pytest.approx(
            kinetic_energy(direct), rel=1e-12
        )

    def test_euler_integrates_through_the_full_check(self, tier, checks):
        atoms, report = self.run(tier, Euler(1e-4), n_steps=5)
        assert len(checks) == 5
        assert report.records[-1].kinetic_energy == kinetic_energy(atoms)
        energies = report.energies()
        assert np.all(np.isfinite(energies))
        assert abs(energies[-1] - energies[0]) < 1e-3 * abs(energies[0])

    def test_the_monitor_sums_its_own_moments_behind_a_proxy(self, tier, monkeypatch):
        import repro.obs.health as health
        from repro.obs.health import HealthMonitor
        from repro.obs.recorder import FlightRecorder

        summed = []
        real = health._moments_of

        def counting(atoms):
            summed.append(1)
            return real(atoms)

        monkeypatch.setattr(health, "_moments_of", counting)
        monitors = []
        for integrator in (VelocityVerlet(1e-3), Forwarding(VelocityVerlet(1e-3))):
            atoms = Case(key="t", label="t", n_cells=4).build(
                perturbation=0.03, temperature=900.0, seed=2
            )
            monitor = HealthMonitor(recorder=FlightRecorder())
            with kernels.use_tier(tier):
                Simulation(
                    atoms, fe_potential(), integrator=integrator, health=monitor
                ).run(6, sample_every=3)
            monitors.append(monitor)
            assert len(summed) == (0 if len(monitors) == 1 else 6)
        handed, own = (m.invariants for m in monitors)
        for name in ("energy_drift", "momentum", "force_sum"):
            assert handed[name].n_checks == own[name].n_checks == 6
            assert handed[name].status == own[name].status == "ok"
        # the same sums in another order
        assert handed["energy_drift"].value == pytest.approx(
            own["energy_drift"].value, rel=1e-6, abs=1e-12
        )

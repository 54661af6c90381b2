"""The MD driver: stepping, neighbor management, reports."""

import multiprocessing as mp

import numpy as np
import pytest

from repro import kernels, units
from repro.core.strategies import SDCStrategy
from repro.harness.cases import Case
from repro.md import build_neighbor_list
from repro.md.integrators import VelocityVerlet
from repro.md.observables import kinetic_energy
from repro.md.simulation import SerialCalculator, Simulation
from repro.md.thermostats import BerendsenThermostat, VelocityRescaleThermostat
from repro.parallel.backends import ThreadBackend
from repro.potentials import compute_eam_forces_serial, fe_potential

TIERS = kernels.available_tiers()


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

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize(
        "array, bad",
        [("forces", np.nan), ("forces", np.inf), ("velocities", np.nan),
         ("velocities", -np.inf)],
    )
    def test_non_finite_input_inside_a_step_stops_the_run(
        self, sim, tier, array, bad
    ):
        """The step's own pass writes the NaN/inf position: its displacement
        must fail the handed-over check, so the rebuild names the atom."""
        with kernels.use_tier(tier):
            sim.run(1)
            getattr(sim.atoms, array)[23, 1] = bad
            with pytest.raises(ValueError, match=r"first at index \(23, 1\)"):
                sim.run(3)

    def test_handed_over_displacement_is_consumed_once(self, sim):
        """A direct ensure_neighbor_list() after a run runs the full check."""
        sim.run(2)
        first = sim.nlist
        sim.atoms.positions[0, 0] += 0.5
        assert sim.ensure_neighbor_list() is not first


needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)


def _serial():
    return SerialCalculator(), None


def _thread_walker():
    backend = ThreadBackend(2)
    return SDCStrategy(dims=2, n_threads=2, backend=backend), backend


def _process_engine():
    from repro.parallel.backends.processes import ProcessSDCCalculator

    calculator = ProcessSDCCalculator(dims=2, n_workers=2)
    return calculator, calculator


class TestSkinViolationWithinOneStep:
    """An atom kicked more than ``skin/2`` in a single step must force a
    rebuild through the displacement ``first_half`` hands over, on every
    engine, and leave forces a fresh serial evaluation agrees with."""

    SKIN = 0.3
    DT = 1e-3

    def kick(self, sim, atom=40):
        # 0.2 Å in one step against a 0.15 Å half-skin
        sim.atoms.velocities[atom] = [0.2 / self.DT, 0.0, 0.0]

    @pytest.mark.parametrize(
        "engine",
        [_serial, _thread_walker, pytest.param(_process_engine, marks=needs_fork)],
    )
    def test_kick_forces_a_rebuild(self, engine):
        calculator, owner = engine()
        try:
            atoms = Case(key="t", label="t", n_cells=6).build(
                perturbation=0.03, temperature=50.0, seed=2
            )
            sim = Simulation(
                atoms, fe_potential(), calculator,
                VelocityVerlet(self.DT), skin=self.SKIN,
            )
            sim.run(2)
            assert sim.run(1).n_neighbor_rebuilds == 0  # cold: no rebuild
            self.kick(sim)
            assert sim.run(1).n_neighbor_rebuilds == 1
        finally:
            if owner is not None:
                owner.close()
        reference = atoms.copy()
        compute_eam_forces_serial(
            sim.potential, reference,
            build_neighbor_list(
                reference.positions, reference.box,
                cutoff=sim.potential.cutoff, skin=self.SKIN,
            ),
        )
        scale = float(np.max(np.abs(reference.forces)))
        assert np.max(np.abs(atoms.forces - reference.forces)) <= 1e-9 * scale

    def test_rebuild_every_composes_with_the_handover(self):
        atoms = Case(key="t", label="t", n_cells=6).build(
            perturbation=0.03, temperature=50.0, seed=2
        )
        sim = Simulation(
            atoms, fe_potential(), integrator=VelocityVerlet(self.DT),
            skin=self.SKIN, rebuild_every=4,
        )
        assert sim.run(2).n_neighbor_rebuilds == 1  # the t = 0 build
        self.kick(sim)
        assert sim.run(1).n_neighbor_rebuilds == 1  # displacement, count reset
        sim.atoms.velocities[40] = 0.0  # no second skin violation
        assert sim.run(3).n_neighbor_rebuilds == 0  # 3 < 4 steps since
        assert sim.run(1).n_neighbor_rebuilds == 1  # the cadence


class TestSampledObservables:
    @pytest.mark.parametrize("tier", TIERS)
    def test_kinetic_energy_comes_from_the_closing_kick(self, sim, tier):
        with kernels.use_tier(tier):
            record = sim.run(3, sample_every=1).records[-1]
        # the C tier sums atom by atom, NumPy pairwise
        assert record.kinetic_energy == pytest.approx(
            kinetic_energy(sim.atoms), rel=1e-12
        )
        assert record.temperature == units.kinetic_energy_to_temperature(
            record.kinetic_energy, sim.atoms.n_atoms
        )

    def test_a_thermostat_makes_the_sample_recompute_it(self):
        atoms = Case(key="t", label="t", n_cells=4).build(
            perturbation=0.03, temperature=500.0, seed=2
        )
        sim = Simulation(
            atoms, fe_potential(), thermostat=BerendsenThermostat(100.0, tau=0.01)
        )
        record = sim.run(2, sample_every=1).records[-1]
        # the driver carries the kick's kinetic energy across the rescale
        # as lambda^2 K, one rounding away from a sum over the rescaled
        # velocities; a thermostat returning None makes it recompute
        # (tests/md/test_thermostats.py)
        assert record.kinetic_energy == pytest.approx(
            kinetic_energy(sim.atoms), rel=1e-12
        )


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

    def test_serial_steps_are_its_three_calls_on_either_tier(self):
        """On the C tier a ``SerialCalculator`` step is one walk of one
        worker (``verlet_ring``), on the NumPy tier the three calls; either
        way the trajectory, the rebuilds and every sampled energy are the
        three calls' bit for bit."""

        class ThreeCalls:
            def __init__(self):
                self.compute = SerialCalculator().compute

        def run(calculator):
            case = Case(key="t", label="t", n_cells=6)
            atoms = case.build(perturbation=0.03, temperature=600.0, seed=2)
            sim = Simulation(
                atoms, fe_potential(), calculator, VelocityVerlet(1e-3), skin=0.1
            )
            report = sim.run(30, sample_every=1)
            return atoms, report

        calculator = SerialCalculator()
        got, got_report = run(calculator)
        want, want_report = run(ThreeCalls())
        assert calculator.caller_walks() == (kernels.active_tier().name == "c")
        assert got_report.n_neighbor_rebuilds == want_report.n_neighbor_rebuilds > 1
        for name in ("positions", "velocities", "forces", "rho"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got_report.energies(), want_report.energies())

    def test_last_computation_exposed(self, sim):
        assert sim.last_computation is None
        sim.compute_forces()
        assert sim.last_computation is not None
        assert np.isfinite(sim.last_computation.potential_energy)

"""End-to-end integration: full MD trajectories through every strategy,
physics conservation laws, and the complete reproduction pipeline."""

import numpy as np
import pytest

from repro.core.strategies import (
    ArrayPrivatizationStrategy,
    AtomicStrategy,
    CriticalSectionStrategy,
    RedundantComputationStrategy,
    SDCStrategy,
)
from repro.harness.cases import Case
from repro.md.dump import read_xyz, write_xyz
from repro.md.integrators import VelocityVerlet
from repro.md.observables import temperature, total_momentum
from repro.md.simulation import Simulation
from repro.potentials import fe_potential
from repro.potentials.tables import tabulate


@pytest.fixture(scope="module")
def case():
    return Case(key="int", label="integration", n_cells=6)


def fresh_sim(case, calculator=None, **kwargs):
    atoms = case.build(perturbation=0.02, temperature=80.0, seed=13)
    return Simulation(
        atoms,
        fe_potential(),
        calculator=calculator,
        integrator=VelocityVerlet(timestep=1e-3),
        **kwargs,
    )


class TestTrajectoryPhysics:
    def test_nve_energy_conserved_50_steps(self, case):
        sim = fresh_sim(case)
        report = sim.run(50, sample_every=1)
        energies = report.energies()
        drift = np.max(np.abs(energies - energies[0]))
        assert drift / abs(energies[0]) < 2e-5

    def test_momentum_conserved_through_rebuilds(self, case):
        sim = fresh_sim(case, skin=0.1)  # small skin forces rebuilds
        before = total_momentum(sim.atoms)
        report = sim.run(30)
        after = total_momentum(sim.atoms)
        assert np.allclose(before, after, atol=1e-7)

    def test_temperature_stays_physical(self, case):
        sim = fresh_sim(case)
        sim.run(30)
        t = temperature(sim.atoms)
        assert 0.0 < t < 500.0

    def test_atoms_stay_in_box(self, case):
        sim = fresh_sim(case)
        sim.run(30)
        assert sim.atoms.box.contains(sim.atoms.positions).all()


@pytest.mark.slow
class TestLongRunDrift:
    """1000 NVE steps, 1,024 atoms at 300 K with natural Verlet rebuilds:
    every conserved quantity stays under ``HealthMonitor``'s *warning*
    thresholds (relative energy drift 1e-5, per-atom momentum and force-sum
    residual 1e-8) at every step — the long-run guard for changes to how
    the kernels produce the same numbers."""

    @staticmethod
    def run(calculator):
        from repro.obs.health import HealthMonitor
        from repro.obs.recorder import FlightRecorder

        atoms = Case("drift", "1,024-atom bcc Fe", 8).build(
            perturbation=0.02, temperature=300.0, seed=29
        )
        monitor = HealthMonitor(recorder=FlightRecorder())
        sim = Simulation(
            atoms, fe_potential(), calculator, VelocityVerlet(1.0e-3),
            health=monitor,
        )
        try:
            report = sim.run(1000, sample_every=100)
        finally:
            sim.close()
        assert report.n_neighbor_rebuilds >= 1
        assert monitor.invariants["energy_drift"].n_checks >= 1000
        for invariant in monitor.invariants.values():
            assert invariant.n_warnings == invariant.n_criticals == 0, (
                monitor.status()
            )
        return report.records[-1].total_energy

    def test_serial(self):
        self.run(None)

    def test_thread_engine(self):
        """Same plan, same tasks as the process engine, on a thread pool —
        and the same trajectory as the serial kernels, to summation order."""
        from repro.parallel.backends.threads import ThreadBackend

        energy = self.run(
            SDCStrategy(dims=2, n_threads=2, backend=ThreadBackend(2))
        )
        assert energy == pytest.approx(self.run(None), rel=1e-9)

    def test_sharded_engine(self):
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        self.run(ShardedSDCCalculator(n_shards=2))

    @pytest.mark.linux
    def test_process_engine(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from repro.parallel.backends.processes import ProcessSDCCalculator

        self.run(ProcessSDCCalculator(dims=2, n_workers=2))


class TestStrategyTrajectories:
    """Whole trajectories (not single evaluations) agree across strategies."""

    @pytest.mark.parametrize(
        "calculator",
        [
            SDCStrategy(dims=1, n_threads=2),
            SDCStrategy(dims=3, n_threads=2),
            CriticalSectionStrategy(n_threads=2),
            ArrayPrivatizationStrategy(n_threads=2),
            RedundantComputationStrategy(n_threads=2),
            AtomicStrategy(n_threads=2),
        ],
        ids=["sdc1", "sdc3", "cs", "sap", "rc", "atomic"],
    )
    def test_trajectory_matches_serial(self, case, calculator):
        serial = fresh_sim(case)
        serial.run(15)
        parallel = fresh_sim(case, calculator=calculator)
        parallel.run(15)
        assert np.allclose(
            serial.atoms.positions, parallel.atoms.positions, atol=1e-9
        )
        assert np.allclose(
            serial.atoms.velocities, parallel.atoms.velocities, atol=1e-9
        )


class TestTabulatedPotentialTrajectory:
    def test_spline_tables_run_stable_dynamics(self, case):
        analytic = fe_potential()
        tables = tabulate(analytic, n_r=3000, n_rho=1500, rho_max=60.0)
        atoms = case.build(perturbation=0.02, temperature=80.0, seed=13)
        sim = Simulation(atoms, tables, integrator=VelocityVerlet(timestep=1e-3))
        report = sim.run(20, sample_every=1)
        energies = report.energies()
        assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-4


class TestTrajectoryIO:
    def test_dump_and_reload_trajectory(self, case, tmp_path):
        sim = fresh_sim(case)
        path = tmp_path / "run.xyz"
        for k in range(3):
            sim.run(5)
            write_xyz(sim.atoms, path, append=k > 0, comment=f"chunk={k}")
        frames = read_xyz(path)
        assert len(frames) == 3
        assert np.allclose(frames[-1][0], sim.atoms.positions, atol=1e-9)


class TestFullReproductionPipeline:
    def test_small_scale_measured_pipeline(self):
        """Materialized system -> measured workload -> simulated speedup.

        The measured path (real partition + real neighbor list) must feed
        the same machinery the analytic paper-scale path uses.
        """
        from repro.core.coloring import lattice_coloring
        from repro.core.domain import decompose_balanced
        from repro.core.partition import build_pair_partition, build_partition
        from repro.core.schedule import build_schedule
        from repro.core.strategies import SDCStrategy, SerialStrategy
        from repro.md.neighbor.verlet import build_neighbor_list
        from repro.parallel.machine import paper_machine
        from repro.parallel.sim_exec import simulate
        from repro.parallel.workload import flat_workload, measure_workload

        # 12 cells -> 34.4 Å box -> 4x4 grid in 2-D: 4 subdomains per color,
        # enough to keep 4 threads busy
        case = Case(key="p", label="p", n_cells=12)
        atoms = case.build(perturbation=0.05, seed=3)
        pot = fe_potential()
        nlist = build_neighbor_list(atoms.positions, atoms.box, pot.cutoff, 0.3)
        grid = decompose_balanced(atoms.box, 3.9, dims=2, n_threads=4)
        partition = build_partition(nlist.reference_positions, grid)
        pairs = build_pair_partition(partition, nlist)
        schedule = build_schedule(lattice_coloring(grid))
        stats = measure_workload(pairs, schedule, nlist)

        # the paper machine's calibrated fixed per-step overhead dwarfs a
        # 1024-atom workload; shrink it so the work term is visible
        machine = paper_machine().with_overrides(
            fork_join_base_cycles=5_000.0, fork_join_per_thread_cycles=1_000.0
        )
        serial_plan = SerialStrategy().plan(
            flat_workload(atoms.n_atoms, stats.n_half_pairs / atoms.n_atoms,
                          locality=stats.locality),
            machine,
            1,
        )
        sdc_plan = SDCStrategy(dims=2, n_threads=4).plan(stats, machine, 4)
        t1 = simulate(serial_plan, machine, 1)
        t4 = simulate(sdc_plan, machine, 4)
        speedup = t1.total_cycles / t4.total_cycles
        assert 1.0 < speedup <= 4.0

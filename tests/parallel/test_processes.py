"""Process-parallel SDC (forked workers + shared arena): the persistent engine."""

import gc
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.md.simulation import Simulation
from repro.parallel.backends.processes import ProcessSDCCalculator
from repro.potentials import compute_eam_forces_serial, fe_potential
from repro.potentials.base import EAMPotential
from repro.potentials.johnson_fe import JohnsonFePotential

fork_available = "fork" in mp.get_all_start_methods()
pytestmark = pytest.mark.skipif(
    not fork_available, reason="requires fork start method"
)


class _ExplodingDensity(JohnsonFePotential):
    """Fe whose density function raises inside the worker (reached through
    the composed ``pair_terms`` default)."""

    pair_terms = EAMPotential.pair_terms

    def density(self, r):
        raise RuntimeError("density exploded")


class TestCorrectness:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_matches_serial_reference(
        self, dims, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        calc = ProcessSDCCalculator(dims=dims, n_workers=2)
        result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert np.allclose(result.forces, reference_result.forces, atol=1e-12)
        assert np.allclose(result.rho, reference_result.rho, atol=1e-12)
        assert result.potential_energy == pytest.approx(
            reference_result.potential_energy
        )

    def test_atoms_updated_in_place(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        atoms = sdc_atoms.copy()
        ProcessSDCCalculator(dims=2, n_workers=2).compute(
            potential, atoms, sdc_nlist
        )
        assert np.allclose(atoms.forces, reference_result.forces, atol=1e-12)

    def test_single_worker_degenerate(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        calc = ProcessSDCCalculator(dims=2, n_workers=1)
        result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert np.allclose(result.forces, reference_result.forces, atol=1e-12)

    def test_repeated_computes_stable(self, potential, sdc_atoms, sdc_nlist):
        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        a = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        b = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert np.array_equal(a.forces, b.forces)


class TestValidation:
    def test_rejects_full_list(self, potential, sdc_atoms, sdc_nlist):
        from repro.md.neighbor.verlet import full_from_half

        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        with pytest.raises(ValueError, match="half"):
            calc.compute(potential, sdc_atoms.copy(), full_from_half(sdc_nlist))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ProcessSDCCalculator(dims=0)
        with pytest.raises(ValueError):
            ProcessSDCCalculator(n_workers=0)


class TestDriverIntegration:
    def test_short_trajectory_matches_serial(self, potential):
        from repro.harness.cases import Case

        case = Case(key="pt", label="pt", n_cells=6)

        def run(calculator):
            atoms = case.build(perturbation=0.03, temperature=60.0, seed=2)
            sim = Simulation(atoms, potential, calculator=calculator)
            sim.run(5)
            return atoms.positions

        serial = run(None)
        processes = run(ProcessSDCCalculator(dims=2, n_workers=2))
        assert np.allclose(serial, processes, atol=1e-10)


class TestPersistence:
    def test_pool_survives_across_computes(
        self, potential, sdc_atoms, sdc_nlist
    ):
        """Steady-state steps reuse the forked workers — no re-fork."""
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            pids = calc.worker_pids()
            assert len(pids) == 2
            for _ in range(3):
                calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert calc.worker_pids() == pids

    def test_arena_segments_reused_across_computes(
        self, potential, sdc_atoms, sdc_nlist
    ):
        """Steady-state steps reuse the arena and the published epoch."""
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            before = calc.health_snapshot()
            assert before["arena_bytes"] == calc.arena_bytes() > 0
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            after = calc.health_snapshot()
            for key in ("epoch", "arena_bytes", "n_pool_spawns", "worker_pids"):
                assert after[key] == before[key], key
            assert after["n_pool_spawns"] == 1

    @pytest.mark.parametrize("engine", ["processes", "sharded"])
    def test_workers_survive_verlet_rebuilds(self, potential, engine):
        """A neighbor rebuild is a new epoch on the same workers: the CSR
        is rewritten in place, nothing is re-forked."""
        from repro.harness.cases import Case
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        calc = (
            ProcessSDCCalculator(dims=2, n_workers=2)
            if engine == "processes"
            else ShardedSDCCalculator(n_shards=2)
        )
        atoms = Case(key="rb", label="rb", n_cells=6).build(
            perturbation=0.03, temperature=60.0, seed=2
        )
        with Simulation(atoms, potential, calculator=calc, skin=0.05) as sim:
            sim.compute_forces()
            pids = calc.worker_pids()
            assert len(pids) == 2
            report = sim.run(20)
            assert report.n_neighbor_rebuilds >= 2
            snapshot = calc.health_snapshot()
            assert calc.worker_pids() == pids
            assert snapshot["n_pool_spawns"] == 1
            assert snapshot["epoch"] >= 1 + report.n_neighbor_rebuilds
        assert calc.worker_pids() == []

    def test_capacity_overflow_respawns_over_a_larger_arena(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        """An epoch within the arena's fixed headroom keeps the mapping; one
        beyond it goes through the spawn path (the only way to grow)."""
        from repro.harness.cases import Case
        from repro.md import build_neighbor_list
        from repro.parallel.backends.workers import ARENA_HEADROOM, SharedArena

        arena = SharedArena([(100, 700, 4)])
        assert arena.fits([(100, 700, 4)])
        assert arena.fits([(int(100 * ARENA_HEADROOM), 700, 4)])
        assert not arena.fits([(100, int(700 * ARENA_HEADROOM) + 1, 4)])
        assert arena.region(0, (90, 650, 4))["positions"].shape == (90, 3)
        with pytest.raises(ValueError, match="capacity"):
            arena.region(0, (200, 700, 4))

        small = Case(key="ov", label="ov", n_cells=6).build(seed=5)
        small_nlist = build_neighbor_list(
            small.positions, small.box, cutoff=potential.cutoff, half=True
        )
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.compute(potential, small, small_nlist)
            small_bytes = calc.arena_bytes()
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-12
            )
            assert calc.health_snapshot()["n_pool_spawns"] == 2
            assert calc.arena_bytes() > small_bytes

    def test_interleaved_calculators_do_not_clobber(self, potential):
        """Regression for the old `_FORK_STATE` module global: two live
        calculators on *different* systems, computes interleaved — each
        must keep answering for its own system."""
        from repro.geometry import bcc_lattice
        from repro.geometry.lattice import perturb_positions
        from repro.md import Atoms, build_neighbor_list
        from repro.utils.rng import default_rng

        def system(n_cells, seed):
            positions, box = bcc_lattice(2.8665, (n_cells,) * 3)
            positions = perturb_positions(
                positions, box, 0.05, default_rng(seed)
            )
            atoms = Atoms(box=box, positions=positions)
            nlist = build_neighbor_list(
                positions, box, cutoff=potential.cutoff, skin=0.3, half=True
            )
            reference = compute_eam_forces_serial(
                potential, atoms.copy(), nlist
            )
            return atoms, nlist, reference

        atoms_a, nlist_a, ref_a = system(8, seed=3)
        atoms_b, nlist_b, ref_b = system(6, seed=4)
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc_a:
            with ProcessSDCCalculator(dims=2, n_workers=2) as calc_b:
                for _ in range(2):
                    result_a = calc_a.compute(
                        potential, atoms_a.copy(), nlist_a
                    )
                    result_b = calc_b.compute(
                        potential, atoms_b.copy(), nlist_b
                    )
                    assert np.allclose(
                        result_a.forces, ref_a.forces, atol=1e-12
                    )
                    assert np.allclose(
                        result_b.forces, ref_b.forces, atol=1e-12
                    )

    def test_close_is_idempotent_and_revivable(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        calc.close()
        calc.close()
        assert calc.worker_pids() == []
        # a closed calculator revives lazily on the next compute
        result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert np.allclose(
            result.forces, reference_result.forces, atol=1e-12
        )
        calc.close()

    def test_simulation_close_releases_calculator(self, potential):
        from repro.harness.cases import Case

        atoms = Case(key="cl", label="cl", n_cells=6).build(seed=3)
        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        with Simulation(atoms, potential, calculator=calc) as sim:
            sim.run(2)
            assert len(calc.worker_pids()) == 2
        assert calc.worker_pids() == []
        assert calc.arena_bytes() == 0


class TestDecompositionCache:
    def test_schedule_reused_while_nlist_stable_and_rebuilt_after(
        self, potential, sdc_atoms
    ):
        """Property sweep: displacements within skin/2 keep the neighbor
        list (and therefore the cached schedule) valid and reused; a
        rebuild invalidates it — and the conflict checker stays green in
        both regimes."""
        from repro.core.conflict import check_schedule_conflicts
        from repro.md import build_neighbor_list
        from repro.utils.rng import default_rng

        skin = 0.3
        nlist = build_neighbor_list(
            sdc_atoms.positions,
            sdc_atoms.box,
            cutoff=potential.cutoff,
            skin=skin,
            half=True,
        )
        rng = default_rng(42)
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.compute(potential, sdc_atoms.copy(), nlist)
            schedule0, pairs0 = calc.schedule, calc.pair_partition
            assert check_schedule_conflicts(pairs0, schedule0).ok
            for amplitude in (0.01, 0.05, 0.1):
                atoms = sdc_atoms.copy()
                step = rng.normal(size=atoms.positions.shape)
                step *= amplitude / np.abs(step).max()
                atoms.positions += step  # well within skin/2
                assert not nlist.needs_rebuild(atoms.positions)
                result = calc.compute(potential, atoms, nlist)
                # same list object -> the cached schedule is reused as-is
                assert calc.schedule is schedule0
                assert calc.pair_partition is pairs0
                reference = compute_eam_forces_serial(
                    potential, atoms.copy(), nlist
                )
                assert np.allclose(
                    result.forces, reference.forces, atol=1e-12
                )
            # a rebuilt list invalidates the cache: fresh schedule, still
            # conflict-free
            atoms = sdc_atoms.copy()
            atoms.positions += rng.normal(size=atoms.positions.shape) * 0.2
            rebuilt = build_neighbor_list(
                atoms.positions,
                atoms.box,
                cutoff=potential.cutoff,
                skin=skin,
                half=True,
            )
            calc.compute(potential, atoms, rebuilt)
            assert calc.schedule is not schedule0
            assert check_schedule_conflicts(
                calc.pair_partition, calc.schedule
            ).ok


def _shm_entries():
    return set(os.listdir("/dev/shm"))


def _leaked(before):
    """``/dev/shm`` entries created since ``before``: the arena is an
    anonymous mapping, so the engine must never create any."""
    return _shm_entries() - before


def _alive(pids):
    return [pid for pid in pids if os.path.exists(f"/proc/{pid}")]


@pytest.mark.linux
class TestSharedMemoryHygiene:
    def test_no_leak_after_close(self, potential, sdc_atoms, sdc_nlist):
        before = _shm_entries()
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert calc.arena_bytes() > 0  # the arena did exist
        assert _leaked(before) == set()

    def test_no_leak_after_exception_in_compute(
        self, potential, sdc_atoms, sdc_nlist
    ):
        before = _shm_entries()
        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        try:
            with pytest.raises(RuntimeError, match="exploded"):
                calc.compute(
                    _ExplodingDensity(), sdc_atoms.copy(), sdc_nlist
                )
            # the engine survives the task failure...
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.isfinite(result.potential_energy)
        finally:
            calc.close()
        # ...and nothing is left behind once released
        assert _leaked(before) == set()

    def test_no_leak_after_gc_without_close(
        self, potential, sdc_atoms, sdc_nlist
    ):
        import time

        before = _shm_entries()
        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        pids = calc.worker_pids()
        del calc  # no close(): the weakref finalizer must stop the workers
        # transient references (frames in flight) can delay collection by
        # a beat — retry the collect briefly rather than flake on GC
        # scheduling
        deadline = time.monotonic() + 10.0
        while _alive(pids) and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.05)
        assert not _alive(pids)
        assert _leaked(before) == set()

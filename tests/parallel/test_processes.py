"""Process-parallel SDC (forked workers + shared arena): the persistent engine."""

import gc
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.md import Atoms, build_neighbor_list
from repro.md.simulation import Simulation
from repro.obs.tracer import CAT_BARRIER, CAT_PHASE, CAT_TASK, Tracer
from repro.core.sdc_plan import color_task_layout
from repro.geometry.box import Box
from repro.parallel.backends.processes import ProcessSDCCalculator
from repro.parallel.backends.sharded import ShardedSDCCalculator
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


class _ParentCallsFe(JohnsonFePotential):
    """Fe that logs every potential call made in *this* process (a forked
    worker appends to its own copy of the list)."""

    calls = []

    def pair_terms(self, r):
        self.calls.append("pair_terms")
        return super().pair_terms(r)

    def embed(self, rho):
        self.calls.append("embed")
        return super().embed(rho)

    def embed_deriv(self, rho):
        self.calls.append("embed_deriv")
        return super().embed_deriv(rho)


class _ExplodesInOneWorker(JohnsonFePotential):
    """Fe whose ``pair_terms`` raises in the first process to create
    ``trigger`` and nowhere else: a one-sided task failure."""

    trigger = None

    def pair_terms(self, r):
        try:
            os.close(os.open(self.trigger, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return super().pair_terms(r)
        raise RuntimeError("potential exploded")


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

    @pytest.mark.parametrize("n_workers", [3, 4])
    def test_more_workers_than_cpus_or_subdomains(
        self, n_workers, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        """2x2 subdomains, one per color: workers 1.. have only empty
        tasks but attend every barrier — unbound, on the yield branch,
        wherever the host has fewer CPUs than workers."""
        with ProcessSDCCalculator(dims=2, n_workers=n_workers) as calc:
            for _ in range(3):
                result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert len(calc.worker_pids()) == n_workers
        assert np.allclose(result.forces, reference_result.forces, atol=1e-12)
        assert np.allclose(result.rho, reference_result.rho, atol=1e-12)
        assert result.potential_energy == pytest.approx(
            reference_result.potential_energy, rel=1e-12
        )

    def test_result_is_independent_of_the_arena(
        self, potential, sdc_atoms, sdc_nlist
    ):
        """One copy out of the arena: the result's arrays are the atoms'
        own, and survive the next evaluation's zero fill."""
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            atoms = sdc_atoms.copy()
            result = calc.compute(potential, atoms, sdc_nlist)
            assert result.forces is atoms.forces and result.rho is atoms.rho
            kept = result.forces.copy()
            moved = sdc_atoms.copy()
            moved.positions += 0.01
            calc.compute(potential, moved, sdc_nlist)
            calc._live.views[0]["forces"][:] = 0.0
            assert np.array_equal(result.forces, kept)


#: both calculators, the sharded one on both of its engines
ENGINES = {
    "processes": lambda: ProcessSDCCalculator(dims=2, n_workers=2),
    "sharded-inline": lambda: ShardedSDCCalculator(n_shards=2, engine="inline"),
    "sharded-processes": lambda: ShardedSDCCalculator(
        n_shards=2, engine="processes"
    ),
}


def _count_commands(calc):
    """Wrap the live group's ``run``: the list of commands it is sent."""
    group, commands = calc._live.group, []
    run = group.run

    def counting_run(command, payloads=None):
        commands.append(command)
        return run(command, payloads)

    group.run = counting_run
    return commands


class TestOneCommandPerEvaluation:
    """The protocol: one ``evaluate`` command, ``2 * n_colors + 1``
    in-arena barriers, no potential call in the parent."""

    @pytest.mark.parametrize("dims,n_workers", [(1, 2), (2, 2), (3, 3), (2, 1)])
    def test_one_run_and_two_barriers_per_color(
        self, dims, n_workers, sdc_atoms, sdc_nlist, reference_result
    ):
        potential = _ParentCallsFe()
        with ProcessSDCCalculator(dims=dims, n_workers=n_workers) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)  # spawn, epoch
            commands = _count_commands(calc)
            base = calc._generation
            del potential.calls[:]
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert commands == ["evaluate"]
            assert potential.calls == []
            # two per color, and the final one before the force pull
            n_barriers = 2 * calc.schedule.n_colors + 1
            assert calc._generation == base + n_barriers + 1  # + the reply
            # every worker's arrival word: the command's last generation
            arrived = calc._live.arena.barrier[1:, 0]
            assert arrived.tolist() == [base + n_barriers - 1] * n_workers
        assert np.allclose(result.forces, reference_result.forces, atol=1e-12)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_steady_computes_send_one_command_each(
        self, engine, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        """No list change: N computes are N ``evaluate`` commands — the
        halo exchange happens inside them, at the workers' barriers."""
        n_computes = 4
        with ENGINES[engine]() as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            commands = _count_commands(calc)
            for _ in range(n_computes):
                result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert commands == ["evaluate"] * n_computes
        scale = np.max(np.abs(reference_result.forces))
        assert np.max(np.abs(result.forces - reference_result.forces)) < 1e-12 * scale

    def test_inline_threads_under_a_tiny_switch_interval(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        """Eight shard threads on fewer cores, switching every microsecond:
        a pull racing its barrier would lose or double a ghost row."""
        import sys
        import threading

        results = []

        def run():
            with ShardedSDCCalculator(n_shards=8, engine="inline") as calc:
                for _ in range(3):
                    atoms = sdc_atoms.copy()
                    results.append(calc.compute(potential, atoms, sdc_nlist))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver = threading.Thread(target=run, daemon=True)
            driver.start()
            driver.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not driver.is_alive() and len(results) == 3
        for name in ("rho", "forces"):
            want = getattr(reference_result, name)
            for result in results:
                got = getattr(result, name)
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_rejects_a_list_over_other_atoms(self, potential, sdc_atoms, small_nlist):
        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        with pytest.raises(ValueError, match="neighbor list covers 250 atoms, system has 1024"):
            calc.compute(potential, sdc_atoms.copy(), small_nlist)
        assert calc.worker_pids() == []  # rejected before anything was forked


def _edge_just_above_twice_the_reach(atoms, cutoff):
    """The skin that leaves two subdomains per axis barely legal."""
    edge = float(atoms.box.lengths.min()) / 2
    return edge / 2.0 - cutoff - 1e-9


class TestTaskLayout:
    """ROADMAP aim 3, "checked, not assumed": the arena order is the pair
    partition regrouped into one contiguous range per (color, worker), and
    same-color ranges write disjoint atoms — on the plan the process
    calculator holds (the plan's own property suite, Hypothesis cases
    included, is ``tests/core/test_sdc_plan.py``)."""

    @pytest.fixture(scope="class")
    def systems(self, potential, sdc_atoms, sdc_nlist):
        from repro.harness.cases import Case

        tiny = Case(key="tiny", label="tiny", n_cells=6).build(seed=1)
        assert tiny.n_atoms == 432
        tight = _edge_just_above_twice_the_reach(tiny, potential.cutoff)

        def listed(atoms, skin):
            return atoms, build_neighbor_list(
                atoms.positions, atoms.box, cutoff=potential.cutoff,
                skin=skin, half=True,
            )

        return {
            "tiny": listed(tiny, 0.3),
            "tight-edge": listed(tiny, tight),
            "sdc": (sdc_atoms, sdc_nlist),
        }

    @pytest.mark.parametrize("name", ["tiny", "tight-edge", "sdc"])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 5])
    def test_layout_is_the_partition_regrouped(self, systems, name, dims, n_workers):
        atoms, nlist = systems[name]
        calc = ProcessSDCCalculator(dims=dims, n_workers=n_workers)
        calc._prepare(atoms, nlist)
        pairs, schedule, grid = calc.pair_partition, calc.schedule, calc.grid
        if name == "tight-edge":
            edge = grid.edge_lengths()[list(grid.decomposed_axes)].min()
            assert 0.0 < edge - 2.0 * grid.reach < 1e-8
        layout, tasks = color_task_layout(pairs, schedule, n_workers)
        # what the workers are sent and what the arena is filled with
        assert tasks == calc._plan.tasks
        assert np.array_equal(pairs.i_idx[layout], calc._plan.pair_i)
        assert np.array_equal(pairs.j_idx[layout], calc._plan.pair_j)
        assert np.array_equal(np.sort(layout), np.arange(pairs.n_pairs))
        assert [len(ranges) for ranges in tasks] == [schedule.n_colors] * n_workers
        filled = 0
        for color in range(schedule.n_colors):
            chunks = schedule.thread_assignment(color, n_workers)
            written = []
            for k, members in enumerate(chunks):
                lo, hi = tasks[k][color]
                assert lo == filled  # color-major, worker-major, no gaps
                rows = [
                    np.arange(pairs.offsets[s], pairs.offsets[s + 1])
                    for s in members
                ]
                expected = np.concatenate(rows) if rows else np.empty(0, int)
                assert np.array_equal(layout[lo:hi], expected)
                filled = hi
                sets = [pairs.write_set(s) for s in members]
                written.append(np.unique(np.concatenate(sets)) if sets else sets)
            for a in range(n_workers):
                for b in range(a + 1, n_workers):
                    assert not len(np.intersect1d(written[a], written[b]))
        assert filled == pairs.n_pairs

    def test_tiny_box_gives_later_workers_only_empty_tasks(self, systems):
        atoms, nlist = systems["tiny"]
        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        calc._prepare(atoms, nlist)
        _, tasks = color_task_layout(calc.pair_partition, calc.schedule, 2)
        assert all(hi > lo for lo, hi in tasks[0])
        assert all(hi == lo for lo, hi in tasks[1])

    @pytest.mark.parametrize("name", ["tiny", "tight-edge"])
    def test_write_record_keeps_its_shape_and_is_race_free(
        self, systems, name, potential
    ):
        """One ``(kind, per-worker write sets)`` entry per color phase,
        density colors then force colors — what ``repro racecheck`` reads."""
        from repro.potentials import compute_eam_forces_serial

        atoms, nlist = systems[name]
        with ProcessSDCCalculator(
            dims=2, n_workers=2, record_writes=True
        ) as calc:
            result = calc.compute(potential, atoms.copy(), nlist)
            record = calc.last_write_record
            n_colors = calc.schedule.n_colors
        assert [kind for kind, _ in record] == (
            ["density"] * n_colors + ["force"] * n_colors
        )
        for kind, per_worker in record:
            assert len(per_worker) == 2
            flat = np.concatenate([np.asarray(w, int) for w in per_worker])
            assert len(np.unique(flat)) == len(flat), kind
        reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)
        assert np.allclose(result.forces, reference.forces, atol=1e-12)


class TestOneSidedFailure:
    """One worker's task raises while its sibling is at (or on its way
    to) the barrier: the parent gets the task's own error, never
    ``PhaseAborted``, and the same workers serve the next compute."""

    @staticmethod
    def assert_same_workers_still_right(calc, pids, potential, atoms, nlist, reference):
        result = calc.compute(potential, atoms.copy(), nlist)
        assert np.allclose(result.forces, reference.forces, atol=1e-12)
        snapshot = calc.health_snapshot()
        assert calc.worker_pids() == pids
        assert snapshot["n_pool_spawns"] == 1
        assert snapshot["n_restarts"] == 0
        assert snapshot["n_worker_deaths"] == 0

    def test_overlap_inside_one_subdomain(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        positions = sdc_atoms.positions.copy()
        positions[1] = positions[0] + (0.0, 0.0, 1e-9)
        overlapping = Atoms(box=sdc_atoms.box, positions=positions)
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            pids = calc.worker_pids()
            # both atoms, hence the pair, belong to one subdomain
            owner = calc.pair_partition.partition.subdomain_of_atom
            assert owner[0] == owner[1]
            nlist = build_neighbor_list(
                positions, overlapping.box, cutoff=potential.cutoff,
                skin=0.3, half=True,
            )
            with pytest.raises(ValueError, match="overlapping atoms: atoms 0 and 1"):
                calc.compute(potential, overlapping, nlist)
            self.assert_same_workers_still_right(
                calc, pids, potential, sdc_atoms, sdc_nlist, reference_result
            )

    def test_potential_raises_in_one_worker_only(
        self, tmp_path, sdc_atoms, sdc_nlist, reference_result
    ):
        potential = _ExplodesInOneWorker()
        type(potential).trigger = str(tmp_path / "first")
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            with pytest.raises(RuntimeError, match="potential exploded"):
                calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            pids = calc.worker_pids()
            assert len(pids) == 2
            # the trigger exists now: nobody raises any more
            self.assert_same_workers_still_right(
                calc, pids, potential, sdc_atoms, sdc_nlist, reference_result
            )


class TestSpansFromMarks:
    """With a tracer attached the parent rebuilds worker tracks, barrier
    waits and phase rows from the clock marks in the replies."""

    def test_worker_tracks_and_phase_rows(self, potential, sdc_atoms, sdc_nlist):
        from repro.utils.profiler import phase_samples

        tracer = Tracer()
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.attach_tracer(tracer)
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            pids, n_colors = calc.worker_pids(), calc.schedule.n_colors
        # density colors, the embedding, force colors, the force pull
        n_phases = 2 * n_colors + 2
        tasks = tracer.by_category(CAT_TASK)
        assert len(tasks) == 2 * n_phases
        assert {s.track for s in tasks} == {f"worker-{pid}" for pid in pids}
        phases = {s.args["phase"]: s for s in tracer.by_category(CAT_PHASE)}
        assert sorted(phases) == list(range(n_phases))
        assert phases[0].name == "density:color0/phase0"
        assert phases[n_colors].name == f"embedding/phase{n_colors}"
        for task in tasks:
            phase = phases[task.args["phase"]]
            assert task.start_s >= phase.start_s - 1e-9
            assert task.end_s <= phase.end_s + 1e-9
        for wait in tracer.by_category(CAT_BARRIER):
            assert wait.name == "barrier-wait"
            assert wait.track.startswith("worker-")
            assert wait.end_s == pytest.approx(phases[wait.args["phase"]].end_s)
        # the phases tile the command: back to back, no overlap
        ordered = [phases[p] for p in range(n_phases)]
        for before, after in zip(ordered, ordered[1:]):
            assert after.start_s == pytest.approx(before.end_s)
        samples = phase_samples(tracer.spans)
        assert {"density", "embedding", "force", "sync", "color-barrier"} <= set(samples)
        kernels = sum(samples[p][0] for p in ("density", "embedding", "force"))
        assert kernels == pytest.approx(ordered[-1].end_s - ordered[0].start_s)


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

        arena = SharedArena([(100, 700)], n_workers=4)
        assert arena.barrier.shape == (5, 8)  # abort word + one per worker
        assert arena.fits([(100, 700)])
        assert arena.fits([(int(100 * ARENA_HEADROOM), 700)])
        assert not arena.fits([(100, int(700 * ARENA_HEADROOM) + 1)])
        assert arena.region(0, (90, 650))["positions"].shape == (90, 3)
        with pytest.raises(ValueError, match="capacity"):
            arena.region(0, (200, 700))

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
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_box_change_under_the_same_list_is_a_new_epoch(
        self, engine, potential, sdc_atoms, sdc_nlist
    ):
        """Box and positions scaled by 1.01 on the same list: the workers
        must take the new box's minimum image, not the epoch's old one."""
        atoms = sdc_atoms.copy()
        with ENGINES[engine]() as calc:
            calc.compute(potential, atoms, sdc_nlist)
            epoch = calc.health_snapshot()["epoch"]
            atoms.box = Box(tuple(atoms.box.lengths * 1.01), atoms.box.periodic)
            atoms.positions = atoms.positions * 1.01
            result = calc.compute(potential, atoms, sdc_nlist)
            republished = calc.health_snapshot()["epoch"] == epoch + 1
        reference = compute_eam_forces_serial(potential, atoms.copy(), sdc_nlist)
        scale = np.max(np.abs(reference.forces))
        assert np.max(np.abs(result.forces - reference.forces)) < 1e-12 * scale
        assert republished

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

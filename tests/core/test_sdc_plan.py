"""The SDC plan: one builder, one colour-major worker-major layout.

ROADMAP aim 3, "checked, not assumed" — for every plan ``build_sdc_plan``
returns:

* the layout is a permutation of the pair partition, and a worker's range
  is its static chunk's CSR rows in order;
* the ranges tile ``[0, n_pairs)`` colour by colour, worker by worker;
* within a colour, the unions of the workers' write sets are disjoint;
* the embedding rows tile ``[0, n_atoms)``;

over box edges on both sides of every count change (subdomain edge at
``2·reach``, lengths whose maximal count would be odd), 1-/2-/3-D, more
workers than a colour has subdomains (empty ranges) and atoms exactly on
subdomain faces.  Then the consequence: every executor of the plan agrees
with the serial reference on a configuration with atoms on the faces.

Beside it, the row-block layout of the comparison strategies
(``row_block_layout``): ranges tile ``[0, n_pairs)`` in order, a range is
exactly its block's CSR rows, the blocks tile ``[0, n_atoms)`` — empty and
ragged rows, empty blocks, half and full lists.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import DecompositionError
from repro.core.sdc_plan import SDCPlanner, build_sdc_plan, row_block_layout
from repro.core.strategies.pairwise import SDCPairCalculator, SerialPairCalculator
from repro.core.strategies.sdc import SDCStrategy
from repro.geometry.box import Box
from repro.geometry.lattice import bcc_lattice, perturb_positions
from repro.md import Atoms, build_neighbor_list
from repro.md.neighbor.verlet import NeighborList, full_from_half
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.threads import ThreadBackend
from repro.potentials import compute_eam_forces_serial
from repro.potentials.lj import LennardJones
from repro.utils.arrays import CSR
from repro.utils.rng import default_rng

REACH = 1.2


def check_plan(plan, n_workers: int) -> None:
    """Every property the executors rely on, against a scalar re-derivation
    from the plan's own pair partition and schedule."""
    pairs, schedule = plan.pairs, plan.schedule
    assert len(plan.tasks) == len(plan.rows) == n_workers
    assert [len(ranges) for ranges in plan.tasks] == [schedule.n_colors] * n_workers
    filled = 0
    for color in range(schedule.n_colors):
        written = []
        for k, members in enumerate(schedule.thread_assignment(color, n_workers)):
            lo, hi = plan.tasks[k][color]
            assert lo == filled  # colour-major, worker-major, no gaps
            chunk_i = [pairs.pairs_of(s)[0] for s in members]
            chunk_j = [pairs.pairs_of(s)[1] for s in members]
            empty = np.empty(0, dtype=np.int64)
            assert np.array_equal(
                plan.pair_i[lo:hi], np.concatenate([empty, *chunk_i])
            )
            assert np.array_equal(
                plan.pair_j[lo:hi], np.concatenate([empty, *chunk_j])
            )
            filled = hi
            sets = [pairs.write_set(int(s)) for s in members]
            written.append(np.unique(np.concatenate([empty, *sets])))
        for a in range(n_workers):
            for b in range(a + 1, n_workers):
                assert not len(np.intersect1d(written[a], written[b]))
    # every partition slot exactly once: the layout is a permutation
    assert filled == pairs.n_pairs == len(plan.pair_i) == len(plan.pair_j)
    # embedding rows: contiguous, in order, covering every atom once
    n_atoms = pairs.partition.n_atoms
    assert plan.rows[0][0] == 0 and plan.rows[-1][1] == n_atoms
    assert all(lo <= hi for lo, hi in plan.rows)
    assert all(
        plan.rows[k][1] == plan.rows[k + 1][0] for k in range(n_workers - 1)
    )


#: box length per axis in units of ``2·reach``: just below and above every
#: integer from 2 (two subdomains barely legal) to 6, i.e. on both sides of
#: each count change and of each odd maximal count that must round down
EDGE_FACTORS = st.one_of(
    st.floats(2.0, 6.6),
    st.builds(
        lambda k, side: k * (1.0 + side * 1e-9),
        st.integers(2, 6),
        st.sampled_from([-1, 1]),
    ),
)


def gas_on_faces(lengths, n_atoms: int, seed: int):
    """Random gas with a third of its coordinates snapped onto multiples of
    ``L/12`` — every face of a 2-, 4- or 6-subdomain axis, the box faces
    included."""
    rng = default_rng(seed)
    box = Box(lengths)
    positions = rng.uniform(0, 1, size=(n_atoms, 3)) * box.lengths
    snap = rng.uniform(size=positions.shape) < 1 / 3
    faces = np.round(positions / box.lengths * 12) / 12 * box.lengths
    return np.where(snap, faces, positions), box


class TestPlanProperties:
    @given(
        seed=st.integers(0, 10**6),
        factors=st.tuples(EDGE_FACTORS, EDGE_FACTORS, EDGE_FACTORS),
        dims=st.sampled_from([1, 2, 3]),
        n_workers=st.sampled_from([1, 2, 3, 5]),
        adaptive=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_plan_is_the_partition_regrouped(
        self, color_task_layout, seed, factors, dims, n_workers, adaptive
    ):
        lengths = [2.0 * REACH * f for f in factors]
        positions, box = gas_on_faces(lengths, 150, seed)
        nlist = build_neighbor_list(
            positions, box, cutoff=1.0, skin=REACH - 1.0, half=True
        )
        axes = list(np.argsort(box.lengths)[::-1][:dims])
        if not min(box.lengths[a] / 2 for a in axes) > 2.0 * REACH:
            with pytest.raises(DecompositionError):
                build_sdc_plan(box, nlist, dims, n_workers, adaptive=adaptive)
            return
        plan = build_sdc_plan(box, nlist, dims, n_workers, adaptive=adaptive)
        grid = plan.grid
        assert grid.dimensionality == dims
        for axis in grid.decomposed_axes:
            assert grid.counts[axis] % 2 == 0
            assert grid.edge_lengths()[axis] > 2.0 * REACH
            if not adaptive:  # constraint-maximal: two more would not fit
                assert box.lengths[axis] / (grid.counts[axis] + 2) <= 2.0 * REACH
        check_plan(plan, n_workers)
        layout, tasks = color_task_layout(plan.pairs, plan.schedule, n_workers)
        assert np.array_equal(np.sort(layout), np.arange(plan.pairs.n_pairs))
        assert tasks == plan.tasks

    def test_more_workers_than_a_colour_has_subdomains(self, sdc_atoms, sdc_nlist):
        """A 2 × 2 grid has one subdomain per colour: workers 1.. idle."""
        plan = build_sdc_plan(sdc_atoms.box, sdc_nlist, 2, 5)
        check_plan(plan, 5)
        assert all(hi > lo for lo, hi in plan.tasks[0])
        assert all(hi == lo for ranges in plan.tasks[1:] for lo, hi in ranges)

    def test_odd_chunk_sizes(self):
        """Six subdomains along x: three per colour over two workers."""
        positions, box = gas_on_faces([6.5 * 2.0 * REACH, 6.0, 6.0], 200, seed=5)
        nlist = build_neighbor_list(
            positions, box, cutoff=1.0, skin=REACH - 1.0, half=True
        )
        plan = build_sdc_plan(box, nlist, 1, 2, adaptive=False)
        assert plan.grid.counts == (6, 1, 1)
        assert [len(c) for c in plan.schedule.thread_assignment(0, 2)] == [2, 1]
        check_plan(plan, 2)

    def test_rejects_a_full_list(self, sdc_atoms, potential):
        full = build_neighbor_list(
            sdc_atoms.positions, sdc_atoms.box, potential.cutoff, half=False
        )
        with pytest.raises(ValueError, match="half"):
            build_sdc_plan(sdc_atoms.box, full, 2, 2)


def random_list(n_atoms: int, density: float, seed: int) -> NeighborList:
    """A half list over ``n_atoms`` atoms with each ``i < j`` pair present
    with probability ``density`` — ragged rows, empty ones at both ends."""
    rng = default_rng(seed)
    i_idx, j_idx = np.nonzero(
        np.triu(rng.uniform(size=(n_atoms, n_atoms)) < density, 1)
    )
    offsets = np.concatenate([[0], np.cumsum(np.bincount(i_idx, minlength=n_atoms))])
    return NeighborList(
        csr=CSR(offsets=offsets, values=j_idx),
        cutoff=1.0,
        skin=0.2,
        half=True,
        reference_positions=np.zeros((n_atoms, 3)),
        box=Box([10.0, 10.0, 10.0]),
    )


class TestRowBlockLayout:
    """The comparison strategies' layout: the list as it is, split by rows."""

    @given(
        n_atoms=st.integers(0, 200),
        density=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
        seed=st.integers(0, 10**6),
        workers=st.sampled_from([1, 2, 3, 5, None]),
        half=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_ranges_are_the_blocks_csr_rows(
        self, n_atoms, density, seed, workers, half
    ):
        n_workers = n_atoms + 1 if workers is None else workers
        nlist = random_list(n_atoms, density, seed)
        if not half:
            nlist = full_from_half(nlist)
        layout = row_block_layout(nlist, n_workers)
        assert len(layout.tasks) == len(layout.rows) == n_workers
        assert len(layout.pair_i) == len(layout.pair_j) == nlist.n_pairs
        next_pair = next_row = 0
        for ranges, (row_lo, row_hi) in zip(layout.tasks, layout.rows):
            ((lo, hi),) = ranges  # one phase
            # ranges tile [0, n_pairs) and rows tile [0, n_atoms), in order
            assert lo == next_pair and lo <= hi
            assert row_lo == next_row and row_lo <= row_hi
            next_pair, next_row = hi, row_hi
            # a range is exactly its block's CSR rows
            empty = np.empty(0, dtype=np.int64)
            rows = range(row_lo, row_hi)
            want_j = [nlist.neighbors_of(i) for i in rows]
            want_i = [np.full(len(nlist.neighbors_of(i)), i) for i in rows]
            assert np.array_equal(
                layout.pair_j[lo:hi], np.concatenate([empty, *want_j])
            )
            assert np.array_equal(
                layout.pair_i[lo:hi], np.concatenate([empty, *want_i])
            )
        assert next_pair == nlist.n_pairs and next_row == n_atoms


@pytest.fixture(scope="module")
def face_atoms():
    """1,024-atom bcc Fe, perturbed, except that every coordinate whose
    lattice site lies on a face of the 2 × 2 × 2 grid (0 and L/2) stays
    exactly there."""
    sites, box = bcc_lattice(2.8665, (8, 8, 8))
    positions = perturb_positions(sites, box, 0.08, default_rng(7))
    half = box.lengths / 2.0
    on_face = (sites == 0.0) | (sites == half)
    assert on_face.any(axis=1).sum() > 200
    positions = np.where(on_face, sites, positions)
    return Atoms(box=box, positions=positions)


def _assert_matches(result, reference, atol=1e-9):
    for name in ("rho", "fp", "forces"):
        got, want = getattr(result, name), getattr(reference, name)
        assert np.max(np.abs(got - want)) <= atol, name
    assert result.potential_energy == pytest.approx(
        reference.potential_energy, rel=1e-9
    )


class TestExecutorsAgreeOnFaceAtoms:
    @pytest.fixture(scope="class")
    def listed(self, face_atoms, potential):
        nlist = build_neighbor_list(
            face_atoms.positions, face_atoms.box, potential.cutoff,
            skin=0.3, half=True,
        )
        reference = compute_eam_forces_serial(potential, face_atoms.copy(), nlist)
        return nlist, reference

    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("n_threads", [2, 3])
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_sdc_strategy(self, face_atoms, potential, listed, dims, n_threads, backend):
        nlist, reference = listed
        pool = SerialBackend() if backend == "serial" else ThreadBackend(n_threads)
        with pool:
            strategy = SDCStrategy(
                dims=dims, n_threads=n_threads, backend=pool,
                validate_conflicts=True,
            )
            result = strategy.compute(potential, face_atoms.copy(), nlist)
        # the face atoms really sit on faces of the grid that was used
        edges = strategy.grid.edge_lengths()
        axis = strategy.grid.decomposed_axes[0]
        assert np.any(face_atoms.positions[:, axis] == edges[axis])
        _assert_matches(result, reference)

    @pytest.mark.linux
    def test_process_engine(self, face_atoms, potential, listed):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from repro.parallel.backends.processes import ProcessSDCCalculator

        nlist, reference = listed
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            result = calc.compute(potential, face_atoms.copy(), nlist)
        _assert_matches(result, reference)

    def test_pair_calculator(self, face_atoms):
        lj = LennardJones(epsilon=0.3, sigma=2.27, r_cut=3.6, r_switch=3.2)
        nlist = build_neighbor_list(
            face_atoms.positions, face_atoms.box, lj.cutoff, skin=0.3
        )
        reference = SerialPairCalculator().compute(lj, face_atoms.copy(), nlist)
        with ThreadBackend(2) as pool:
            result = SDCPairCalculator(dims=2, n_threads=2, backend=pool).compute(
                lj, face_atoms.copy(), nlist
            )
        _assert_matches(result, reference)


# --------------------------------------------------------------------------
# the planner: grid work once per grid, the layout once per list
# --------------------------------------------------------------------------


@pytest.fixture()
def checks(monkeypatch):
    """Every ``validate_coloring`` call a planner makes, by grid counts."""
    import repro.core.sdc_plan as sdc_plan

    calls = []
    real = sdc_plan.validate_coloring

    def counting(grid, coloring):
        calls.append(grid.counts)
        return real(grid, coloring)

    monkeypatch.setattr(sdc_plan, "validate_coloring", counting)
    return calls


def gas_list(lengths, n_atoms=300, seed=0, skin=0.2):
    positions, box = gas_on_faces(lengths, n_atoms, seed)
    return box, build_neighbor_list(positions, box, cutoff=1.0, skin=skin, half=True)


def assert_same_plan(got, want):
    for name in ("pair_i", "pair_j"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()
    assert got.tasks == want.tasks and got.rows == want.rows
    assert got.grid.counts == want.grid.counts


class TestPlanner:
    def test_one_grid_is_checked_once(self, checks):
        planner = SDCPlanner()
        box, first = gas_list([12.0, 12.0, 12.0], seed=1)
        for seed in (1, 2, 3):
            _, nlist = gas_list([12.0, 12.0, 12.0], seed=seed)
            assert_same_plan(planner(box, nlist, 2, 2), build_sdc_plan(box, nlist, 2, 2))
        # one check by the planner, one per fresh plan
        assert len(checks) == 1 + 3

    @pytest.mark.parametrize("change", ["box", "reach", "workers"])
    def test_a_new_grid_is_checked_again(self, checks, change):
        planner = SDCPlanner()
        box, nlist = gas_list([12.0, 12.0, 12.0])
        planner(box, nlist, 2, 2)
        planner(box, nlist, 2, 2)
        assert len(checks) == 1
        if change == "box":
            box, nlist = gas_list([13.0, 12.0, 12.0])
        elif change == "reach":
            box, nlist = gas_list([12.0, 12.0, 12.0], skin=0.3)
        workers = 3 if change == "workers" else 2
        plan = planner(box, nlist, 2, workers)
        assert len(checks) == 2
        planner(box, nlist, 2, workers)  # and the new grid is kept
        assert len(checks) == 2
        assert_same_plan(plan, build_sdc_plan(box, nlist, 2, workers))

    def test_hooks_run_on_every_plan(self, checks):
        """A fault-injection hook is never skipped by the cache: the
        merged-colour schedule fails the conflict check every time, and
        the grid factory is called for every plan."""
        from repro.analysis.racecheck import merge_color_phases
        from repro.core.domain import decompose

        planner, made = SDCPlanner(), []

        def factory(box, reach):
            made.append(reach)
            return decompose(box, reach, 2)

        box, nlist = gas_list([12.0, 12.0, 12.0])
        for _ in range(2):
            with pytest.raises(RuntimeError, match="write conflicts"):
                planner(
                    box, nlist, 2, 2, schedule_transform=merge_color_phases,
                    validate_conflicts=True,
                )
            planner(box, nlist, 2, 2, grid_factory=factory)
        assert len(made) == 2 and len(checks) == 4

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_a_running_simulation_gets_the_fresh_plan(self, potential, dims):
        """Three rebuilds of a hot 432-atom crystal: each cached plan is,
        array for array, the plan a new planner builds, and its pair
        partition the stable-sort grouping of the list."""
        from repro.harness.cases import Case
        from repro.md.integrators import VelocityVerlet
        from repro.md.simulation import Simulation

        atoms = Case("t", "t", 6).build(temperature=1500.0, seed=dims)
        strategy = SDCStrategy(dims=dims, n_threads=2)
        sim = Simulation(atoms, potential, strategy, VelocityVerlet(0.002), skin=0.1)
        plans = []
        while len(plans) < 4:
            sim.run(1)
            if not plans or strategy._plan is not plans[-1]:
                plans.append(strategy._plan)
                plan, nlist = strategy._plan, sim.nlist
                assert plan.nlist is nlist
                assert_same_plan(plan, build_sdc_plan(atoms.box, nlist, dims, 2))
                i_idx, j_idx = nlist.pair_arrays()
                order = np.argsort(plan.partition.subdomain_of_atom[i_idx], kind="stable")
                assert plan.pairs.i_idx.tobytes() == i_idx[order].tobytes()
                assert plan.pairs.j_idx.tobytes() == j_idx[order].tobytes()
        assert len({id(p.grid) for p in plans}) == 1

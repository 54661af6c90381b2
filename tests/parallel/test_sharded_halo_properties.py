"""Properties of the sharded pair partition and its halo exchange.

An epoch of the sharded engine is a partition of the global half list it
was handed (``partition_pairs``); the exchange protocol rests on:

* **the partition is exact** — every global pair lands on exactly one
  shard that owns at least one of its endpoints, none is invented, and a
  shard's ghost rows are precisely the non-owned endpoints of its pairs,
  each global id once (Hypothesis, against a scalar oracle);
* **force accumulation is globally Newton-correct** — owner + ghost
  reductions leave the total force at zero and reproduce the serial
  kernels on random gas configurations;
* **migration is a permutation** — ownership after random drift still
  assigns every atom to exactly one shard (no atom lost or duplicated);
* **boundary cases** (deterministic, inline and forked) — atoms exactly
  on shard and box faces, a mid-epoch drift across a periodic and a shard
  face on a stale-but-valid list, unwrapped input, an empty shard — all
  within 1e-9 of the serial kernels on the same list.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.box import Box
from repro.harness.workloads import crystal_slab, uniform_crystal
from repro.md import Atoms, build_neighbor_list
from repro.md.neighbor import cells, verlet
from repro.parallel.backends.sharded import (
    ShardedSDCCalculator,
    make_shard_grid,
    partition_pairs,
)
from repro.potentials import compute_eam_forces_serial, fe_potential
from repro.utils.rng import default_rng

ATOL = 1e-9


def random_gas(n_atoms, lengths, seed, periodic=(True, True, True)):
    rng = default_rng(seed)
    box = Box(lengths, periodic=periodic)
    positions = rng.uniform(0, 1, size=(n_atoms, 3)) * box.lengths
    return positions, box


class TestGhostSelectionExact:
    @given(
        seed=st.integers(0, 10**6),
        n_atoms=st.integers(20, 120),
        n_shards=st.sampled_from([1, 2, 3, 4, 6, 8]),
        reach=st.floats(1.0, 5.5),  # shard edges go down to 4: both sides
        lengths=st.tuples(*[st.floats(12.0, 30.0)] * 3),
        periodic=st.tuples(*[st.booleans()] * 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_halo_matches_scalar_oracle(
        self, seed, n_atoms, n_shards, reach, lengths, periodic
    ):
        """The shards' pair slices partition the global list, and their
        ghost rows are the scalar re-derivation from those slices."""
        positions, box = random_gas(n_atoms, lengths, seed, periodic)
        nlist = build_neighbor_list(
            positions, box, cutoff=0.8 * reach, skin=0.2 * reach, half=True
        )
        grid = make_shard_grid(box, n_shards)
        shard_of = grid.shard_of_positions(nlist.reference_positions)
        i_idx, j_idx = nlist.pair_arrays()
        plans = partition_pairs(shard_of, grid.n_shards, i_idx, j_idx)
        assert [plan.shard for plan in plans] == list(range(grid.n_shards))

        seen = []
        for plan in plans:
            assert np.array_equal(
                plan.owned, np.flatnonzero(shard_of == plan.shard)
            )
            pairs = list(
                zip(plan.src[plan.pair_i].tolist(), plan.src[plan.pair_j].tolist())
            )
            seen += pairs
            ghosts = set()
            for i, j in pairs:
                ends = {i, j}
                remote = {a for a in ends if shard_of[a] != plan.shard}
                assert len(remote) < 2  # at least one endpoint is owned
                ghosts |= remote
            # exactly the non-owned endpoints, each global id on one row
            assert sorted(ghosts) == sorted(plan.ghosts.tolist())
            assert len(set(plan.src.tolist())) == plan.n_local
        # every global pair exactly once, none invented
        assert sorted(seen) == sorted(zip(i_idx.tolist(), j_idx.tolist()))
        if grid.n_shards == 1:
            assert plans[0].n_ghosts == 0

    def test_cross_shard_pairs_split_between_both_sides(
        self, sdc_atoms, sdc_nlist
    ):
        """The parity rule: a half list has ``i < j``, so giving a pair
        across a face to its row atom's shard would load one side only."""
        grid = make_shard_grid(sdc_atoms.box, 2)
        shard_of = grid.shard_of_positions(sdc_nlist.reference_positions)
        i_idx, j_idx = sdc_nlist.pair_arrays()
        plans = partition_pairs(shard_of, 2, i_idx, j_idx)
        cross = shard_of[i_idx] != shard_of[j_idx]
        to_row_atom = 0
        for plan in plans:
            gi = plan.src[plan.pair_i]
            gj = plan.src[plan.pair_j]
            to_row_atom += np.count_nonzero(
                (shard_of[gi] == plan.shard) & (shard_of[gj] != plan.shard)
            )
        assert 0.4 < to_row_atom / np.count_nonzero(cross) < 0.6
        counts = [plan.n_pairs for plan in plans]
        assert max(counts) / np.mean(counts) < 1.02


class TestForceAccumulationNewton:
    @given(
        seed=st.integers(0, 10**6),
        n_shards=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=10, deadline=None)
    def test_global_newton_third_law_and_serial_match(self, seed, n_shards):
        """Owner+ghost force reduction sums to zero and matches serial."""
        potential = fe_potential()
        rng = default_rng(seed)
        box = Box((14.0, 14.0, 14.0))
        positions = rng.uniform(0, 1, size=(80, 3)) * box.lengths
        atoms = Atoms(box=box, positions=positions)
        nlist = build_neighbor_list(
            positions, box, cutoff=potential.cutoff, skin=0.3, half=True
        )
        reference = compute_eam_forces_serial(
            potential, atoms.copy(), nlist
        )
        calc = ShardedSDCCalculator(n_shards=n_shards, engine="inline")
        try:
            result = calc.compute(potential, atoms, nlist)
        finally:
            calc.close()
        # Newton's third law globally: pair forces cancel in the sum
        assert np.max(np.abs(result.forces.sum(axis=0))) < 1e-9
        assert np.allclose(result.forces, reference.forces, atol=1e-9)
        assert np.allclose(result.rho, reference.rho, atol=1e-9)


class TestMigrationPermutation:
    @given(
        seed=st.integers(0, 10**6),
        n_shards=st.sampled_from([1, 2, 4, 6, 8]),
        n_atoms=st.integers(10, 200),
        drift=st.floats(0.0, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_ownership_is_a_partition_under_drift(
        self, seed, n_shards, n_atoms, drift
    ):
        """After random drift (including across periodic faces and shard
        boundaries), every atom is owned by exactly one shard."""
        rng = default_rng(seed)
        positions, box = random_gas(n_atoms, (17.0, 13.0, 19.0), seed)
        grid = make_shard_grid(box, n_shards)

        def owned_sets(p):
            shard_of = grid.shard_of_positions(p)
            owned = [
                np.flatnonzero(shard_of == s) for s in range(grid.n_shards)
            ]
            combined = np.sort(np.concatenate(owned))
            return owned, combined

        _, before = owned_sets(positions)
        assert np.array_equal(before, np.arange(n_atoms))

        moved = positions + rng.normal(0.0, drift, size=positions.shape)
        owned_after, after = owned_sets(moved)
        # migration re-homed atoms but neither lost nor duplicated any
        assert np.array_equal(after, np.arange(n_atoms))
        assert sum(len(o) for o in owned_after) == n_atoms

    def test_migration_counter_tracks_rehoming(self):
        """The engine's migration accounting sees exactly the atoms whose
        shard changed between two neighbor lists."""
        potential = fe_potential()
        positions, box = random_gas(100, (16.0, 16.0, 16.0), seed=3)
        atoms = Atoms(box=box, positions=positions)
        nlist = build_neighbor_list(
            positions, box, cutoff=potential.cutoff, skin=0.3, half=True
        )
        calc = ShardedSDCCalculator(n_shards=4, engine="inline")
        try:
            calc.compute(potential, atoms, nlist)
            grid = calc.shard_grid
            before = grid.shard_of_positions(nlist.reference_positions)
            rng = default_rng(9)
            atoms.positions = box.wrap(
                atoms.positions + rng.normal(0.0, 1.2, size=(100, 3))
            )
            nlist2 = build_neighbor_list(
                atoms.positions, box, cutoff=potential.cutoff, skin=0.3,
                half=True,
            )
            calc.on_neighbor_rebuild(atoms, nlist2)
            after = grid.shard_of_positions(nlist2.reference_positions)
            expected = int(np.count_nonzero(before != after))
            assert calc.health_snapshot()["n_migrated_total"] == expected
        finally:
            calc.close()


SKIN = 0.3


def half_list(potential, atoms):
    return build_neighbor_list(
        atoms.positions, atoms.box, cutoff=potential.cutoff, skin=SKIN, half=True
    )


def assert_matches_serial(potential, atoms, nlist, n_shards, engine):
    """One sharded evaluation against the serial kernels on the same list;
    returns the epoch's ``halo_stats()``."""
    reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)
    with ShardedSDCCalculator(n_shards=n_shards, engine=engine) as calc:
        result = calc.compute(potential, atoms, nlist)
        stats = calc.halo_stats()
    for name in ("rho", "fp", "forces", "pair_energy", "embedding_energy"):
        got, want = getattr(result, name), getattr(reference, name)
        assert np.max(np.abs(got - want)) <= ATOL, name
    return stats


@pytest.fixture(
    params=[
        "inline",
        pytest.param(
            "processes",
            marks=pytest.mark.skipif(
                "fork" not in mp.get_all_start_methods(), reason="requires fork"
            ),
        ),
    ]
)
def engine(request):
    return request.param


class TestBoundaryCases:
    """The inputs ROADMAP item 5 lists for shard grids."""

    def test_atoms_exactly_on_shard_and_box_faces(self, potential, engine):
        atoms = uniform_crystal(6, perturbation=0.05, seed=3)
        lengths = atoms.box.lengths
        x = atoms.positions[:, 0]
        half = lengths[0] / 2.0
        on_low = np.minimum(x, lengths[0] - x) < 0.2
        on_mid = np.abs(x - half) < 0.2
        assert on_low.sum() >= 36 and on_mid.sum() >= 36
        x[on_low] = 0.0  # box face and face of shard 0
        x[on_mid] = half  # the face between the two shards
        x[np.flatnonzero(on_low)[::3]] = lengths[0]  # the same face, unwrapped
        y = atoms.positions[:, 1]
        y[np.flatnonzero(y < 0.2)[::2]] = lengths[1]  # a face no shard splits
        nlist = half_list(potential, atoms)
        stats = assert_matches_serial(potential, atoms, nlist, 2, engine)
        assert sum(stats["n_owned"]) == atoms.n_atoms

    def test_drift_across_periodic_and_shard_face_mid_epoch(
        self, potential, engine
    ):
        """A rigid translation below ``skin/2`` leaves the list valid but
        carries atoms out of the shard (and the box image) that owns them."""
        atoms = uniform_crystal(6, perturbation=0.03, seed=5)
        nlist = half_list(potential, atoms)
        half = atoms.box.lengths[0] / 2.0
        shift = np.array([-0.13, 0.05, -0.02])
        before = atoms.positions[:, 0].copy()
        atoms.positions = atoms.box.wrap(atoms.positions + shift)
        after = atoms.positions[:, 0]
        assert np.any(after > before + half)  # wrapped through x = 0
        assert np.any((before >= half) & (after < half))  # left shard 1
        assert not nlist.needs_rebuild(atoms.positions)
        assert_matches_serial(potential, atoms, nlist, 2, engine)

    def test_unwrapped_input(self, potential, engine):
        """Positions offset by whole lattice vectors are the same system."""
        atoms = uniform_crystal(6, perturbation=0.05, seed=7)
        rng = default_rng(17)
        images = rng.integers(-3, 4, size=atoms.positions.shape)
        atoms.positions = atoms.positions + images * atoms.box.lengths
        nlist = half_list(potential, atoms)
        assert_matches_serial(potential, atoms, nlist, 4, engine)

    def test_shard_left_empty_by_a_vacuum(self, potential, engine):
        atoms = crystal_slab(5, 3, vacuum_factor=3.0, seed=4)
        nlist = half_list(potential, atoms)
        # five shards along z, the slab in the middle third of the box
        stats = assert_matches_serial(potential, atoms, nlist, 5, engine)
        assert 0 in stats["n_owned"] and max(stats["n_owned"]) > 0


class TestEpochIsAPartition:
    def test_no_neighbor_or_cell_build_and_one_command(
        self, potential, monkeypatch
    ):
        """After the driver's own builds an epoch never builds a neighbor
        or cell list, and an evaluation is one ``evaluate`` command."""
        atoms = uniform_crystal(6, perturbation=0.05, seed=9)
        first = half_list(potential, atoms)
        moved = atoms.copy()
        moved.positions = atoms.box.wrap(atoms.positions + 0.4)
        second = half_list(potential, moved)

        def forbidden(*args, **kwargs):
            raise AssertionError("the sharded engine built a list of its own")

        monkeypatch.setattr(verlet, "build_neighbor_list", forbidden)
        monkeypatch.setattr(verlet, "build_cell_list", forbidden)
        monkeypatch.setattr(cells, "build_cell_list", forbidden)
        with ShardedSDCCalculator(n_shards=2, engine="inline") as calc:
            calc.compute(potential, atoms, first)
            commands = []
            run = calc._live.group.run
            monkeypatch.setattr(
                calc._live.group,
                "run",
                lambda command, *rest: commands.append(command)
                or run(command, *rest),
            )
            calc.compute(potential, atoms, first)
            assert commands == ["evaluate"]
            calc.on_neighbor_rebuild(moved, second)
            calc.compute(potential, moved, second)  # a second epoch
            assert commands[1:] == ["epoch", "evaluate"]
            assert calc.health_snapshot()["n_epochs"] == 2

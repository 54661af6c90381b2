"""Verlet neighbor lists: cell-built vs brute force, half/full semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.box import Box
from repro.md.neighbor.verlet import (
    brute_force_neighbor_list,
    build_neighbor_list,
    full_from_half,
    half_from_full,
)
from repro.utils.rng import default_rng


def random_system(n, box_len, seed):
    rng = default_rng(seed)
    box = Box((box_len, box_len, box_len))
    return rng.uniform(0, box_len, size=(n, 3)), box


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("half", [True, False])
    def test_random_gas_matches(self, seed, half):
        positions, box = random_system(150, 11.0, seed)
        fast = build_neighbor_list(positions, box, cutoff=2.8, skin=0.2, half=half)
        slow = brute_force_neighbor_list(
            positions, box, cutoff=2.8, skin=0.2, half=half
        )
        assert fast.csr == slow.csr

    def test_small_periodic_grid_matches(self):
        """Cells wrap onto each other (2 cells per axis) — the dedup path."""
        positions, box = random_system(60, 7.0, 5)
        fast = build_neighbor_list(positions, box, cutoff=3.0, skin=0.2)
        slow = brute_force_neighbor_list(positions, box, cutoff=3.0, skin=0.2)
        assert fast.csr == slow.csr

    def test_bcc_lattice_matches(self, perfect_system):
        positions, box = perfect_system
        fast = build_neighbor_list(positions, box, cutoff=3.6, skin=0.3)
        slow = brute_force_neighbor_list(positions, box, cutoff=3.6, skin=0.3)
        assert fast.csr == slow.csr


class TestSemantics:
    @pytest.fixture()
    def nlist(self, perfect_system):
        positions, box = perfect_system
        return build_neighbor_list(positions, box, cutoff=3.6, skin=0.3, half=True)

    def test_half_list_orientation(self, nlist):
        i_idx, j_idx = nlist.pair_arrays()
        assert np.all(i_idx < j_idx)

    def test_rows_sorted(self, nlist):
        for r in range(nlist.n_atoms):
            row = nlist.neighbors_of(r)
            assert np.all(np.diff(row) > 0)

    def test_all_pairs_within_reach(self, nlist, perfect_system):
        positions, box = perfect_system
        i_idx, j_idx = nlist.pair_arrays()
        d = box.distance(positions[i_idx], positions[j_idx])
        assert np.all(d <= 3.9 + 1e-9)

    def test_no_self_pairs(self, nlist):
        i_idx, j_idx = nlist.pair_arrays()
        assert np.all(i_idx != j_idx)

    def test_perfect_bcc_half_count(self, nlist):
        # 14 neighbors within 3.9 Å, each pair stored once
        assert nlist.n_pairs == nlist.n_atoms * 14 // 2

    def test_cutoff_too_large_rejected(self, perfect_system):
        positions, box = perfect_system
        with pytest.raises(ValueError, match="minimum-image"):
            build_neighbor_list(positions, box, cutoff=8.0, skin=0.0)

    def test_bad_cutoff_rejected(self, perfect_system):
        positions, box = perfect_system
        with pytest.raises(ValueError):
            build_neighbor_list(positions, box, cutoff=-1.0)

    def test_bad_skin_rejected(self, perfect_system):
        positions, box = perfect_system
        with pytest.raises(ValueError):
            build_neighbor_list(positions, box, cutoff=3.0, skin=-0.1)


class TestRowIndex:
    """``pair_arrays()`` builds its row index once per list."""

    @pytest.fixture()
    def nlist(self, perfect_system):
        positions, box = perfect_system
        return build_neighbor_list(positions, box, cutoff=3.6, skin=0.3)

    def test_repeated_calls_share_one_read_only_index(self, nlist):
        i_idx, j_idx = nlist.pair_arrays()
        again, _ = nlist.pair_arrays()
        assert again is i_idx
        np.testing.assert_array_equal(i_idx, nlist.csr.row_of_value())
        assert j_idx is nlist.csr.values
        with pytest.raises(ValueError, match="read-only"):
            i_idx[0] = 1

    def test_a_rebuilt_list_gets_its_own_index(self, nlist, perfect_system):
        positions, box = perfect_system
        rebuilt = build_neighbor_list(positions, box, cutoff=3.6, skin=0.3)
        old, new = nlist.pair_arrays()[0], rebuilt.pair_arrays()[0]
        assert new is not old
        np.testing.assert_array_equal(new, old)
        full = full_from_half(nlist)
        assert len(full.pair_arrays()[0]) == 2 * len(old)


class TestHalfFullConversion:
    @pytest.fixture()
    def half(self, perfect_system):
        positions, box = perfect_system
        return build_neighbor_list(positions, box, cutoff=3.6, skin=0.3, half=True)

    def test_full_doubles_pairs(self, half):
        full = full_from_half(half)
        assert full.n_pairs == 2 * half.n_pairs
        assert not full.half

    def test_full_is_symmetric(self, half):
        full = full_from_half(half)
        i_idx, j_idx = full.pair_arrays()
        forward = set(zip(i_idx.tolist(), j_idx.tolist()))
        assert all((j, i) in forward for i, j in forward)

    def test_round_trip(self, half):
        assert half_from_full(full_from_half(half)).csr == half.csr

    def test_full_matches_direct_build(self, perfect_system, half):
        positions, box = perfect_system
        direct = build_neighbor_list(
            positions, box, cutoff=3.6, skin=0.3, half=False
        )
        assert full_from_half(half).csr == direct.csr

    def test_idempotent_conversions(self, half):
        assert full_from_half(full_from_half(half)).n_pairs == 2 * half.n_pairs
        assert half_from_full(half) is half


class TestRebuildCriterion:
    def test_fresh_list_valid(self, perfect_system):
        positions, box = perfect_system
        nlist = build_neighbor_list(positions, box, cutoff=3.6, skin=0.3)
        assert not nlist.needs_rebuild(positions)

    def test_small_motion_tolerated(self, perfect_system):
        positions, box = perfect_system
        nlist = build_neighbor_list(positions, box, cutoff=3.6, skin=0.4)
        moved = positions.copy()
        moved[0, 0] += 0.19
        assert not nlist.needs_rebuild(moved)

    def test_large_motion_triggers(self, perfect_system):
        positions, box = perfect_system
        nlist = build_neighbor_list(positions, box, cutoff=3.6, skin=0.4)
        moved = positions.copy()
        moved[0, 0] += 0.21
        assert nlist.needs_rebuild(moved)

    def test_displacement_uses_minimum_image(self, perfect_system):
        positions, box = perfect_system
        nlist = build_neighbor_list(positions, box, cutoff=3.6, skin=0.4)
        moved = positions.copy()
        moved[0, 0] += box.lengths[0]  # full period = no real motion
        assert nlist.max_displacement(moved) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "periodic",
        [(True, True, True), (True, False, True), (False, False, True), (False,) * 3],
    )
    def test_displacement_equals_wrap_then_fold(self, periodic):
        """The single-fold check returns what wrap + subtract + fold did."""
        rng = default_rng(3)
        box = Box((9.0, 11.0, 13.0), periodic=periodic)
        built_from = rng.uniform(0.0, 1.0, size=(200, 3)) * box.lengths
        nlist = build_neighbor_list(built_from, box, cutoff=2.0, skin=0.4)
        # thermal-size motion, then whole box lengths added so the positions
        # are unwrapped by up to three periods (an open axis keeps them)
        moved = built_from + rng.normal(0.0, 0.1, size=built_from.shape)
        moved[:, np.array(periodic)] += (
            rng.integers(-3, 4, size=(200, sum(periodic)))
            * box.lengths[np.array(periodic)]
        )
        moved[0] = built_from[0] + box.lengths / 2.0  # the fold's tie
        delta = box.minimum_image(box.wrap(moved) - nlist.reference_positions)
        expected = float(np.sqrt(np.max(np.sum(delta * delta, axis=1))))
        assert nlist.max_displacement(moved) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_asks_for_rebuild(self, perfect_system, bad):
        positions, box = perfect_system
        nlist = build_neighbor_list(positions, box, cutoff=3.6, skin=0.4)
        moved = positions.copy()
        moved[7, 1] = bad
        assert nlist.needs_rebuild(moved)


@given(st.integers(0, 10**6), st.floats(2.0, 3.5))
@settings(max_examples=15, deadline=None)
def test_cell_list_equals_brute_force_property(seed, cutoff):
    positions, box = random_system(80, 10.5, seed)
    fast = build_neighbor_list(positions, box, cutoff=cutoff, skin=0.1)
    slow = brute_force_neighbor_list(positions, box, cutoff=cutoff, skin=0.1)
    assert fast.csr == slow.csr

"""The three-phase EAM computation: correctness of the reference kernels."""

import numpy as np
import pytest

from repro.md.neighbor.verlet import build_neighbor_list, full_from_half
from repro.potentials.eam import (
    compute_eam_energy,
    compute_eam_forces_serial,
    eam_density_and_pair_energy_phase,
    eam_density_phase,
    eam_embedding_phase,
    eam_force_phase,
    force_pair_coefficients,
    pair_geometry,
    scatter_rho_owned,
)
from repro.utils.timers import Counter


class TestDensityPhase:
    def test_perfect_crystal_uniform_density(self, perfect_system, potential):
        positions, box = perfect_system
        nlist = build_neighbor_list(positions, box, potential.cutoff, 0.3)
        rho = eam_density_phase(potential, positions, box, nlist)
        assert np.allclose(rho, rho[0])
        assert rho[0] > 0.0

    def test_half_and_full_lists_agree(self, small_atoms, potential, small_nlist):
        full = full_from_half(small_nlist)
        rho_half = eam_density_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist
        )
        rho_full = eam_density_phase(
            potential, small_atoms.positions, small_atoms.box, full
        )
        assert np.allclose(rho_half, rho_full, atol=1e-12)

    def test_crystal_density_matches_shell_sum(self, perfect_system, potential):
        positions, box = perfect_system
        nlist = build_neighbor_list(positions, box, potential.cutoff, 0.3)
        rho = eam_density_phase(potential, positions, box, nlist)
        expected = 8 * potential.density(np.array([2.8665 * np.sqrt(3) / 2]))[
            0
        ] + 6 * potential.density(np.array([2.8665]))[0]
        assert rho[0] == pytest.approx(expected, rel=1e-10)

    def test_counter_accounting(self, small_atoms, potential, small_nlist):
        counter = Counter()
        eam_density_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist, counter
        )
        assert counter.get("density_pairs") == small_nlist.n_pairs
        assert counter.get("rho_updates") == 2 * small_nlist.n_pairs


class TestEmbeddingPhase:
    def test_energy_is_sum_of_embeds(self, potential):
        rho = np.array([1.0, 4.0, 9.0])
        energy, fp = eam_embedding_phase(potential, rho)
        assert energy == pytest.approx(float(np.sum(potential.embed(rho))))
        assert np.allclose(fp, potential.embed_deriv(rho))


class TestForcePhase:
    def test_perfect_crystal_zero_forces(self, perfect_system, potential):
        positions, box = perfect_system
        nlist = build_neighbor_list(positions, box, potential.cutoff, 0.3)
        rho = eam_density_phase(potential, positions, box, nlist)
        _, fp = eam_embedding_phase(potential, rho)
        forces = eam_force_phase(potential, positions, box, nlist, fp)
        assert np.max(np.abs(forces)) < 1e-10

    def test_newtons_third_law_total(self, small_atoms, potential, small_nlist):
        result = compute_eam_forces_serial(
            potential, small_atoms.copy(), small_nlist
        )
        assert np.allclose(result.forces.sum(axis=0), 0.0, atol=1e-12)

    def test_half_and_full_lists_agree(self, small_atoms, potential, small_nlist):
        full = full_from_half(small_nlist)
        rho = eam_density_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist
        )
        _, fp = eam_embedding_phase(potential, rho)
        f_half = eam_force_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist, fp
        )
        f_full = eam_force_phase(
            potential, small_atoms.positions, small_atoms.box, full, fp
        )
        assert np.allclose(f_half, f_full, atol=1e-12)


class TestForcesAreEnergyGradient:
    @pytest.mark.parametrize("atom,axis", [(0, 0), (7, 1), (42, 2)])
    def test_finite_difference(self, small_atoms, potential, atom, axis):
        atoms = small_atoms.copy()
        nlist = build_neighbor_list(
            atoms.positions, atoms.box, potential.cutoff, skin=0.3
        )
        result = compute_eam_forces_serial(potential, atoms, nlist)
        eps = 1e-6

        def energy_at(offset):
            shifted = atoms.copy()
            shifted.positions[atom, axis] += offset
            nl = build_neighbor_list(
                shifted.positions, shifted.box, potential.cutoff, skin=0.3
            )
            return compute_eam_energy(potential, shifted, nl)

        fd = -(energy_at(eps) - energy_at(-eps)) / (2 * eps)
        assert result.forces[atom, axis] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestEnergies:
    def test_energy_matches_force_computation(self, small_atoms, potential, small_nlist):
        atoms = small_atoms.copy()
        result = compute_eam_forces_serial(potential, atoms, small_nlist)
        assert compute_eam_energy(potential, atoms, small_nlist) == pytest.approx(
            result.potential_energy
        )

    def test_crystal_cohesion_negative(self, perfect_system, potential):
        from repro.md.atoms import Atoms

        positions, box = perfect_system
        atoms = Atoms(box=box, positions=positions)
        nlist = build_neighbor_list(positions, box, potential.cutoff, 0.3)
        energy = compute_eam_energy(potential, atoms, nlist)
        assert energy / len(atoms) < 0.0

    def test_atoms_state_updated(self, small_atoms, potential, small_nlist):
        atoms = small_atoms.copy()
        result = compute_eam_forces_serial(potential, atoms, small_nlist)
        assert np.array_equal(atoms.forces, result.forces)
        assert np.array_equal(atoms.rho, result.rho)
        assert np.array_equal(atoms.fp, result.fp)


class TestPairGeometry:
    def test_minimum_image_applied(self):
        from repro.geometry.box import Box

        box = Box((10.0, 10.0, 10.0))
        positions = np.array([[0.5, 0.0, 0.0], [9.5, 0.0, 0.0]])
        delta, r = pair_geometry(
            positions, box, np.array([0]), np.array([1])
        )
        assert r[0] == pytest.approx(1.0)
        assert delta[0, 0] == pytest.approx(1.0)

    def test_force_coefficient_symmetry(self, potential):
        """coeff(i,j) must equal coeff(j,i) — the half-list invariant."""
        r = np.array([2.5, 3.0])
        fp_a = np.array([-0.3, -0.2])
        fp_b = np.array([-0.1, -0.4])
        ab = force_pair_coefficients(potential, r, fp_a, fp_b)
        ba = force_pair_coefficients(potential, r, fp_b, fp_a)
        assert np.allclose(ab, ba)


class TestScatterRhoOwnedValidation:
    """Regression: out-of-range indices used to be silently truncated."""

    def test_valid_scatter_accumulates_every_row(self):
        rho = np.ones(4)
        scatter_rho_owned(
            rho, np.array([0, 3, 3]), np.array([1.0, 2.0, 3.0]), 4
        )
        assert rho.tolist() == [2.0, 1.0, 1.0, 6.0]

    def test_out_of_range_index_raises(self):
        rho = np.zeros(4)
        with pytest.raises(IndexError, match=r"index 4"):
            scatter_rho_owned(rho, np.array([0, 4]), np.array([1.0, 1.0]), 4)
        # nothing written before the failure was detected
        assert np.all(rho == 0.0)

    def test_negative_index_raises(self):
        with pytest.raises(IndexError, match=r"-1"):
            scatter_rho_owned(
                np.zeros(4), np.array([-1]), np.array([1.0]), 4
            )

    def test_short_accumulator_raises(self):
        """The old code truncated bincount output to len(rho) silently."""
        with pytest.raises(IndexError, match=r"accumulator"):
            scatter_rho_owned(np.zeros(3), np.array([0]), np.array([1.0]), 4)

    @pytest.mark.parametrize("entry", ["scatter_rho_half", "density_slice"])
    def test_half_list_index_raises_before_any_write(self, potential, entry):
        """The half-list entry points name the bad index and write
        nothing — neither ``rho`` nor a slice's hand-over arrays."""
        from repro import kernels
        from repro.geometry.box import Box

        tier = kernels.active_tier()
        rho = np.zeros(4)
        i_idx, j_idx = np.array([0, 7]), np.array([1, 2])
        handover = [np.full((2, 3), 7.0)] + [np.full(2, 7.0) for _ in range(3)]
        with pytest.raises(
            IndexError, match=r"atom index 7, outside the valid range \[0, 4\)"
        ):
            if entry == "scatter_rho_half":
                tier.scatter_rho_half(rho, i_idx, j_idx, np.ones(2))
            else:
                tier.density_slice(
                    potential, np.zeros((4, 3)), Box((10.0, 10.0, 10.0)),
                    i_idx, j_idx, rho, handover,
                )
        assert not rho.any() and all(np.all(a == 7.0) for a in handover)


class TestOverlappingAtomsDiagnostic:
    """Regression: r used to be clamped to 1e-12, yielding garbage forces."""

    def test_two_overlapping_atoms_raise_named_error(self, potential):
        from repro.geometry.box import Box
        from repro.md.atoms import Atoms

        box = Box((10.0, 10.0, 10.0))
        positions = np.array(
            [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + 1e-9], [5.0, 5.0, 5.0]]
        )
        atoms = Atoms(box=box, positions=positions)
        nlist = build_neighbor_list(positions, box, potential.cutoff, 0.3)
        with pytest.raises(ValueError, match=r"atoms 0 and 1"):
            compute_eam_forces_serial(potential, atoms, nlist)

    def test_error_reports_separation(self, potential):
        r = np.array([2.5, 1e-9])
        fp = np.array([-0.1, -0.1])
        with pytest.raises(ValueError, match=r"1\.000e-09"):
            force_pair_coefficients(
                potential, r, fp, fp, pair_ids=(np.array([3, 7]), np.array([5, 9]))
            )

    def test_without_pair_ids_names_slot(self, potential):
        with pytest.raises(ValueError, match=r"pair slot 0"):
            force_pair_coefficients(
                potential,
                np.array([1e-9]),
                np.array([-0.1]),
                np.array([-0.1]),
            )

    def test_well_separated_pairs_unaffected(self, potential):
        r = np.array([2.0, 3.5])
        fp = np.array([-0.1, -0.2])
        coeff = force_pair_coefficients(potential, r, fp, fp)
        assert np.all(np.isfinite(coeff))


class TestFusedPairEnergy:
    """Regression: the pair energy used to cost a third pass over all pairs."""

    def test_fused_matches_separate_passes(
        self, small_atoms, potential, small_nlist
    ):
        positions, box = small_atoms.positions, small_atoms.box
        rho, pair_energy = eam_density_and_pair_energy_phase(
            potential, positions, box, small_nlist
        )
        assert np.allclose(
            rho, eam_density_phase(potential, positions, box, small_nlist)
        )
        i_idx, j_idx = small_nlist.pair_arrays()
        _, r = pair_geometry(positions, box, i_idx, j_idx)
        assert pair_energy == pytest.approx(
            float(np.sum(potential.pair_energy(r))), rel=1e-14
        )

    def test_serial_result_carries_fused_energy(
        self, small_atoms, potential, small_nlist
    ):
        atoms = small_atoms.copy()
        result = compute_eam_forces_serial(potential, atoms, small_nlist)
        i_idx, j_idx = small_nlist.pair_arrays()
        _, r = pair_geometry(atoms.positions, atoms.box, i_idx, j_idx)
        assert result.pair_energy == pytest.approx(
            float(np.sum(potential.pair_energy(r))), rel=1e-14
        )

    def test_full_list_halves_pair_energy(self, small_atoms, potential, small_nlist):
        full = full_from_half(small_nlist)
        _, e_half = eam_density_and_pair_energy_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist
        )
        _, e_full = eam_density_and_pair_energy_phase(
            potential, small_atoms.positions, small_atoms.box, full
        )
        assert e_full == pytest.approx(e_half, rel=1e-12)

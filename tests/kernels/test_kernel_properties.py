"""Property-based kernel invariants (hypothesis), checked on every tier.

Physics the kernels must preserve regardless of implementation:

* Newton's third law — the half-list force scatter writes equal and
  opposite contributions, so total force is zero on any closed system;
* translation invariance — forces depend on minimum-image separations
  only, never on absolute coordinates;
* half-list / owned-list duality — one undirected pair scattered to both
  endpoints equals two directed pairs scattered to their owners;
* agreement with the reference — every hot entry point a tier may
  override matches the NumPy tier to 1e-12 of each output's scale, for a
  potential the C tier lowers analytically, one it lowers to splines and
  one it cannot lower.

Each property is parametrized over :data:`TIERS`, so a tier added to the
registry is held to the same physics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.geometry import bcc_lattice
from repro.geometry.lattice import perturb_positions
from repro.kernels.base import handover_arrays
from repro.kernels.numpy_tier import NumpyKernelTier
from repro.md.neighbor.verlet import build_neighbor_list
from repro.potentials import fe_potential
from repro.potentials.johnson_fe import JohnsonFePotential
from repro.potentials.tables import tabulate
from repro.utils.rng import default_rng

POTENTIAL = fe_potential()

TIERS = kernels.available_tiers()

#: hypothesis drives many examples through one test invocation, past the
#: per-test registry fixture
PROPERTY_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def perturbed_system(amplitude: float, seed: int):
    """A 4x4x4 bcc iron cell (128 atoms) with bounded thermal disorder."""
    positions, box = bcc_lattice(2.8665, (4, 4, 4))
    rng = default_rng(seed)
    positions = perturb_positions(positions, box, amplitude, rng)
    return positions, box


def full_forces(tier, positions, box, nlist):
    rho, _ = tier.density_and_pair_energy_phase(
        POTENTIAL, positions, box, nlist
    )
    fp = POTENTIAL.embed_deriv(rho)
    return tier.force_phase(POTENTIAL, positions, box, nlist, fp)


class TestNewtonThirdLaw:
    @pytest.mark.parametrize("tier_name", TIERS)
    @given(seed=st.integers(0, 10**6), amplitude=st.floats(0.0, 0.12))
    @settings(max_examples=10, **PROPERTY_SETTINGS)
    def test_total_force_is_zero(self, tier_name, seed, amplitude):
        positions, box = perturbed_system(amplitude, seed)
        nlist = build_neighbor_list(
            positions, box, cutoff=POTENTIAL.cutoff, skin=0.3, half=True
        )
        tier = kernels.get(tier_name)
        forces = full_forces(tier, positions, box, nlist)
        np.testing.assert_allclose(
            forces.sum(axis=0), np.zeros(3), atol=1e-9
        )

    @pytest.mark.parametrize("tier_name", TIERS)
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, **PROPERTY_SETTINGS)
    def test_pair_scatter_antisymmetry(self, tier_name, seed):
        """The half-list force scatter alone must conserve momentum."""
        rng = default_rng(seed)
        n = 40
        n_pairs = 120
        i_idx = rng.integers(0, n, n_pairs)
        j_idx = rng.integers(0, n, n_pairs)
        pair_forces = rng.normal(size=(n_pairs, 3))
        forces = np.zeros((n, 3))
        tier = kernels.get(tier_name)
        tier.scatter_force_half(forces, i_idx, j_idx, pair_forces)
        np.testing.assert_allclose(
            forces.sum(axis=0), np.zeros(3), atol=1e-10
        )


class TestTranslationInvariance:
    @pytest.mark.parametrize("tier_name", TIERS)
    @given(
        seed=st.integers(0, 10**6),
        sx=st.floats(-20.0, 20.0),
        sy=st.floats(-20.0, 20.0),
        sz=st.floats(-20.0, 20.0),
    )
    @settings(max_examples=10, **PROPERTY_SETTINGS)
    def test_uniform_shift_leaves_forces_unchanged(
        self, tier_name, seed, sx, sy, sz
    ):
        positions, box = perturbed_system(0.05, seed)
        nlist = build_neighbor_list(
            positions, box, cutoff=POTENTIAL.cutoff, skin=0.3, half=True
        )
        shift = np.array([sx, sy, sz])
        tier = kernels.get(tier_name)
        reference = full_forces(tier, positions, box, nlist)
        shifted = full_forces(tier, positions + shift, box, nlist)
        np.testing.assert_allclose(shifted, reference, rtol=1e-12, atol=1e-12)


class TestHalfOwnedDuality:
    @pytest.mark.parametrize("tier_name", TIERS)
    @given(
        seed=st.integers(0, 10**6),
        n_atoms=st.integers(2, 60),
        n_pairs=st.integers(0, 200),
    )
    @settings(max_examples=15, **PROPERTY_SETTINGS)
    def test_rho_half_equals_owned_on_doubled_list(
        self, tier_name, seed, n_atoms, n_pairs
    ):
        rng = default_rng(seed)
        i_idx = rng.integers(0, n_atoms, n_pairs)
        j_idx = rng.integers(0, n_atoms, n_pairs)
        phi = rng.uniform(0.1, 2.0, n_pairs)
        half = np.zeros(n_atoms)
        owned = np.zeros(n_atoms)
        tier = kernels.get(tier_name)
        tier.scatter_rho_half(half, i_idx, j_idx, phi)
        tier.scatter_rho_owned(
            owned,
            np.concatenate([i_idx, j_idx]),
            np.concatenate([phi, phi]),
            n_atoms,
        )
        np.testing.assert_allclose(owned, half, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("tier_name", TIERS)
    @given(
        seed=st.integers(0, 10**6),
        n_atoms=st.integers(2, 60),
        n_pairs=st.integers(0, 200),
    )
    @settings(max_examples=15, **PROPERTY_SETTINGS)
    def test_force_half_equals_owned_on_doubled_list(
        self, tier_name, seed, n_atoms, n_pairs
    ):
        rng = default_rng(seed)
        i_idx = rng.integers(0, n_atoms, n_pairs)
        j_idx = rng.integers(0, n_atoms, n_pairs)
        pair_forces = rng.normal(size=(n_pairs, 3))
        half = np.zeros((n_atoms, 3))
        owned = np.zeros((n_atoms, 3))
        tier = kernels.get(tier_name)
        tier.scatter_force_half(half, i_idx, j_idx, pair_forces)
        tier.scatter_force_owned(
            owned,
            np.concatenate([i_idx, j_idx]),
            np.concatenate([pair_forces, -pair_forces]),
            n_atoms,
        )
        np.testing.assert_allclose(owned, half, rtol=1e-12, atol=1e-12)


class UnloweredFe(JohnsonFePotential):
    """Fe under another class: no lowering matches it, so a compiled tier
    evaluates its terms through NumPy between its own passes."""


REFERENCE_POTENTIALS = {
    "johnson": fe_potential,
    "tabulated": lambda: tabulate(fe_potential()),
    "unlowered": UnloweredFe,
}


def assert_close(got, want, what):
    """``got`` within 1e-12 of ``want``'s scale."""
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300) if want.size else 1.0
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, what


class TestEntryPointsMatchNumpy:
    """``evaluate``, ``density_slice``, ``force_slice``, ``pair_pass`` and
    ``pair_forces`` on a 128-atom crystal perturbed into the switching
    region, on a slice from the middle of its pair list."""

    @pytest.fixture(scope="class")
    def system(self):
        positions, box = perturbed_system(0.3, seed=5)
        nlist = build_neighbor_list(
            positions, box, cutoff=POTENTIAL.cutoff, skin=0.3, half=True
        )
        i_idx, j_idx = nlist.pair_arrays()
        third = len(i_idx) // 3
        pairs = slice(third, 2 * third)
        rng = default_rng(9)
        seed = {
            "rho": rng.uniform(0.5, 2.0, len(positions)),
            "forces": rng.normal(size=(len(positions), 3)),
            "fp": rng.uniform(-1.0, -0.1, len(positions)),
        }
        return positions, box, nlist, i_idx[pairs], j_idx[pairs], seed

    @pytest.mark.parametrize("name", sorted(REFERENCE_POTENTIALS))
    @pytest.mark.parametrize("tier_name", TIERS)
    def test_every_entry_point(self, system, tier_name, name):
        positions, box, nlist, i_idx, j_idx, seed = system
        potential = REFERENCE_POTENTIALS[name]()
        tier, numpy = kernels.get(tier_name), NumpyKernelTier()
        n_pairs = len(i_idx)

        got = tier.evaluate(potential, positions, box, nlist)
        want = numpy.evaluate(potential, positions, box, nlist)
        for label, a, b in zip(("rho", "pair", "embedding", "fp", "forces"), got, want):
            assert_close(a, b, f"evaluate {label}")

        outputs = {}
        for impl in (tier, numpy):
            rho, forces = seed["rho"].copy(), seed["forces"].copy()
            passed, sliced = handover_arrays(n_pairs), handover_arrays(n_pairs)
            phi, energy = impl.pair_pass(
                potential, positions, box, i_idx, j_idx, passed
            )
            slice_energy = impl.density_slice(
                potential, positions, box, i_idx, j_idx, rho, sliced
            )
            pair_forces = impl.pair_forces(i_idx, j_idx, seed["fp"], passed)
            impl.force_slice(i_idx, j_idx, seed["fp"], sliced, forces)
            outputs[impl] = [
                phi, energy, *passed, slice_energy, rho, *sliced,
                pair_forces, forces,
            ]
        for k, (a, b) in enumerate(zip(outputs[tier], outputs[numpy])):
            assert_close(a, b, f"slice output {k}")
        # delta and r: the same arithmetic in the same order, no fused
        # multiply-add, so bit for bit
        for k in (2, 3):
            np.testing.assert_array_equal(outputs[tier][k], outputs[numpy][k])

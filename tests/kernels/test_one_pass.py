"""One pair-geometry pass and one potential call per force evaluation, and
what they return.

* the contract, by count: a serial evaluation, an SDC evaluation and an
  evaluation by each comparison strategy push every stored pair through
  ``pair_geometry`` exactly once (they used to push ``2P`` and ``3P``) and
  through ``pair_terms`` exactly once, in the density pass — the force
  pass calls no potential function at all;
* the layout: the component-major ``pair_geometry`` is *exactly* the
  row-major ``Box.minimum_image`` formulation it replaced — ties, far
  images, dtypes, strides, empty slices;
* the consequence: an overlap is found at the head of the evaluation,
  before anything is scattered;
* the trajectory: with the composed ``pair_terms`` default, 60 steps are
  bit-identical to the kernels of two commits ago (so the hand-over
  plumbing is bit-neutral); the one-pass Johnson override stays within a
  stated tolerance of that.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp

import numpy as np
import pytest

from repro import kernels
from repro.analysis.racecheck import make_strategy
from repro.core.strategies.sdc import SDCStrategy
from repro.core.strategies.serial import SerialStrategy
from repro.geometry.box import Box
from repro.harness.cases import Case
from repro.harness.workloads import (
    crystal_slab,
    crystal_with_void,
    uniform_crystal,
)
from repro.kernels.numpy_tier import NumpyKernelTier
from repro.md import Atoms, build_neighbor_list
from repro.md.integrators import VelocityVerlet
from repro.md.simulation import SerialCalculator, Simulation
from repro.parallel.backends.base import BackendError
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.threads import ThreadBackend
from repro.potentials import compute_eam_forces_serial, fe_potential
from repro.potentials.base import EAMPotential
from repro.potentials.johnson_fe import JohnsonFePotential


def _separate_call(self, r):
    raise AssertionError("a radial function was called outside pair_terms")


class OnePassOnlyFe(JohnsonFePotential):
    """Fe whose radial functions are reachable through ``pair_terms`` only:
    a kernel that still calls one of the four on its own fails the test."""

    density = density_deriv = _separate_call
    pair_energy = pair_energy_deriv = _separate_call


#: the Fig. 9 rivals of SDC, on the shared three-region body (LOCALWRITE on
#: the tier's pair halves)
COMPARISON_STRATEGIES = [
    "atomic",
    "critical-section",
    "array-privatization",
    "redundant-computation",
    "localwrite",
]


class TestOnePassByCount:
    def test_serial_evaluation_is_one_whole_list_pass(
        self, counting_tier, sdc_atoms, sdc_nlist
    ):
        tier = counting_tier
        with kernels.use_tier(tier):
            SerialStrategy().compute(OnePassOnlyFe(), sdc_atoms.copy(), sdc_nlist)
        assert tier.passes == [sdc_nlist.n_pairs]
        assert tier.terms == [sdc_nlist.n_pairs]

    def test_standalone_phases_each_pay_their_own_pass(
        self, counting_tier, potential, sdc_atoms, sdc_nlist
    ):
        """The probes time the phases alone."""
        tier = counting_tier
        positions, box = sdc_atoms.positions, sdc_atoms.box
        rho, _ = tier.density_and_pair_energy_phase(
            potential, positions, box, sdc_nlist
        )
        tier.force_phase(
            potential, positions, box, sdc_nlist, potential.embed_deriv(rho)
        )
        assert tier.passes == [sdc_nlist.n_pairs] * 2
        # ... and, with nothing handed over, its own potential call
        assert tier.terms == [sdc_nlist.n_pairs] * 2

    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize(
        "backend", [SerialBackend, lambda: ThreadBackend(2)], ids=["serial", "threads"]
    )
    def test_sdc_evaluation_geometry_totals_one_pass(
        self, counting_tier, sdc_atoms, sdc_nlist, reference_result, dims, backend
    ):
        tier = counting_tier
        with backend() as pool, kernels.use_tier(tier):
            strategy = SDCStrategy(dims=dims, n_threads=2, backend=pool)
            result = strategy.compute(
                OnePassOnlyFe(), sdc_atoms.copy(), sdc_nlist
            )
        assert sum(tier.passes) == sdc_nlist.n_pairs
        # one potential call per subdomain slice, all of them density tasks
        assert sorted(tier.terms) == sorted(tier.passes)
        # the density tasks' partial sums replace the third, serial pass
        assert result.pair_energy == pytest.approx(
            reference_result.pair_energy, rel=1e-12
        )

    @pytest.mark.parametrize("name", COMPARISON_STRATEGIES)
    @pytest.mark.parametrize(
        "backend", [SerialBackend, lambda: ThreadBackend(2)], ids=["serial", "threads"]
    )
    def test_comparison_strategy_is_one_pass_per_stored_pair(
        self, counting_tier, sdc_atoms, sdc_nlist, reference_result, name, backend
    ):
        tier = counting_tier
        with backend() as pool, kernels.use_tier(tier):
            strategy = make_strategy(name, n_threads=2, backend=pool, dims=2)
            result = strategy.compute(
                OnePassOnlyFe(), sdc_atoms.copy(), sdc_nlist
            )
        stored = sdc_nlist.n_pairs
        if name == "redundant-computation":  # the doubled list
            stored *= 2
        if name == "localwrite":  # a boundary pair is listed under both owners
            stored += strategy._tables.n_boundary_pairs
            assert strategy._tables.n_boundary_pairs > 0
        assert sum(tier.passes) == stored
        # one potential call per geometry pass: none in the force region
        assert sorted(tier.terms) == sorted(tier.passes)
        assert result.pair_energy == pytest.approx(
            reference_result.pair_energy, rel=1e-12
        )

    def test_shard_workers_call_the_potential_in_the_density_command_only(
        self, counting_tier, sdc_atoms, sdc_nlist, reference_result
    ):
        """``ChunkWorker`` — the evaluation body of both process
        calculators — counted through the sharded calculator's in-process
        engine (one thread per shard, so the two logs interleave)."""
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        tier = counting_tier
        with kernels.use_tier(tier), ShardedSDCCalculator(
            n_shards=2, engine="inline"
        ) as calc:
            result = calc.compute(OnePassOnlyFe(), sdc_atoms.copy(), sdc_nlist)
        assert sorted(tier.terms) == sorted(tier.passes)
        assert sum(tier.terms) >= sdc_nlist.n_pairs
        scale = np.max(np.abs(reference_result.forces))
        assert np.max(np.abs(result.forces - reference_result.forces)) < 1e-12 * scale

    @pytest.mark.linux
    def test_forked_workers_never_call_a_radial_function_on_its_own(
        self, sdc_atoms, sdc_nlist, reference_result
    ):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            result = calc.compute(OnePassOnlyFe(), sdc_atoms.copy(), sdc_nlist)
        scale = np.max(np.abs(reference_result.forces))
        assert np.max(np.abs(result.forces - reference_result.forces)) < 1e-12 * scale


def reference_geometry(positions, box, i_idx, j_idx):
    """The row-major formulation ``pair_geometry`` replaced."""
    delta = box.minimum_image(positions[i_idx] - positions[j_idx])
    return delta, np.sqrt(np.sum(delta * delta, axis=1))


class TestPairGeometryLayout:
    LENGTHS = (10.0, 12.0, 9.0)

    def assert_exact(self, positions, box, i_idx, j_idx):
        delta, r = NumpyKernelTier().pair_geometry(positions, box, i_idx, j_idx)
        want_delta, want_r = reference_geometry(positions, box, i_idx, j_idx)
        assert delta.shape == want_delta.shape and r.shape == want_r.shape
        assert delta.dtype == np.float64 and r.dtype == np.float64
        assert np.array_equal(delta, want_delta)
        assert np.array_equal(r, want_r)

    @pytest.mark.parametrize(
        "periodic", list(itertools.product([True, False], repeat=3))
    )
    def test_every_periodicity_mask_far_images_and_ties(self, periodic, rng):
        box = Box(self.LENGTHS, periodic)
        # unwrapped positions several boxes out on every side ...
        positions = rng.uniform(-4.0, 5.0, size=(40, 3)) * box.lengths
        # ... and, per axis, a pair whose displacement is exactly +-L/2
        for axis in range(3):
            positions[2 * axis] = 1.0
            positions[2 * axis + 1] = 1.0
            positions[2 * axis + 1, axis] += box.lengths[axis] / 2
        i_idx, j_idx = (a.ravel() for a in np.indices((40, 40)))
        self.assert_exact(positions, box, i_idx, j_idx)
        delta, _ = NumpyKernelTier().pair_geometry(positions, box, i_idx, j_idx)
        delta = delta.reshape(40, 40, 3)
        for axis in np.flatnonzero(periodic):
            # the floor rule folds +L/2 and -L/2 alike onto -L/2
            a, b = 2 * axis, 2 * axis + 1
            assert delta[a, b, axis] == delta[b, a, axis] == -box.lengths[axis] / 2

    def test_float32_and_non_contiguous_positions(self, rng):
        box = Box(self.LENGTHS)
        wide = rng.uniform(0.0, 9.0, size=(30, 6))
        i_idx = rng.integers(0, 30, size=200)
        j_idx = rng.integers(0, 30, size=200)
        self.assert_exact(wide.astype(np.float32)[:, :3], box, i_idx, j_idx)
        self.assert_exact(wide[:, ::2], box, i_idx, j_idx)
        self.assert_exact(np.asfortranarray(wide[:, :3]), box, i_idx, j_idx)

    def test_empty_slice(self):
        empty = np.empty(0, dtype=np.int64)
        delta, r = NumpyKernelTier().pair_geometry(
            np.ones((4, 3)), Box(self.LENGTHS), empty, empty
        )
        assert delta.shape == (0, 3) and r.shape == (0,)

    def test_consumers_see_rows_of_three(self, sdc_atoms, sdc_nlist):
        """Only the strides differ: ``(P, 3)``, components contiguous."""
        i_idx, j_idx = sdc_nlist.pair_arrays()
        delta, _ = NumpyKernelTier().pair_geometry(
            sdc_atoms.positions, sdc_atoms.box, i_idx, j_idx
        )
        assert delta.shape == (len(i_idx), 3)
        assert delta.T.flags.c_contiguous
        assert (delta[:, None, 0] * delta).T.flags.c_contiguous


@pytest.fixture()
def overlapping(sdc_atoms, potential):
    """The SDC-capable system with atom 1 moved 1e-9 Å from atom 0."""
    positions = sdc_atoms.positions.copy()
    positions[1] = positions[0] + (0.0, 0.0, 1e-9)
    atoms = Atoms(box=sdc_atoms.box, positions=positions)
    for array in (atoms.rho, atoms.fp, atoms.forces):
        array[...] = 7.0
    nlist = build_neighbor_list(
        positions, atoms.box, cutoff=potential.cutoff, skin=0.3, half=True
    )
    return atoms, nlist


class ScatterSpy(NumpyKernelTier):
    """Fails the test if phase 1 goes on for a slice holding the overlap."""

    def pair_terms(self, potential, r):
        assert r.min() > 1e-6, "potential evaluated for an overlapping pair"
        return super().pair_terms(potential, r)


class NoEmbedding(JohnsonFePotential):
    """Fails the test if an evaluation gets as far as phase 2."""

    def embed(self, rho):
        raise AssertionError("embedding ran after an overlap")


class TestOverlapStopsBeforeAnyScatter:
    MESSAGE = r"overlapping atoms: atoms 0 and 1 are separated by 1\.000e-09"

    @staticmethod
    def assert_untouched(atoms):
        for array in (atoms.rho, atoms.fp, atoms.forces):
            assert np.all(array == 7.0)

    def test_serial(self, potential, overlapping):
        atoms, nlist = overlapping
        with kernels.use_tier(ScatterSpy()):
            with pytest.raises(ValueError, match=self.MESSAGE):
                compute_eam_forces_serial(potential, atoms, nlist)
        self.assert_untouched(atoms)

    @pytest.mark.parametrize(
        "backend", [SerialBackend, lambda: ThreadBackend(2)], ids=["serial", "threads"]
    )
    def test_sdc(self, potential, overlapping, backend):
        atoms, nlist = overlapping
        with backend() as pool, kernels.use_tier(ScatterSpy()):
            strategy = SDCStrategy(dims=2, n_threads=2, backend=pool)
            with pytest.raises(ValueError, match=self.MESSAGE):
                strategy.compute(potential, atoms, nlist)
        self.assert_untouched(atoms)

    @pytest.mark.parametrize("name", COMPARISON_STRATEGIES)
    @pytest.mark.parametrize(
        "backend", [SerialBackend, lambda: ThreadBackend(2)], ids=["serial", "threads"]
    )
    def test_comparison_strategies(self, potential, overlapping, name, backend):
        atoms, nlist = overlapping
        with backend() as pool, kernels.use_tier(ScatterSpy()):
            strategy = make_strategy(name, n_threads=2, backend=pool, dims=2)
            with pytest.raises(ValueError, match=self.MESSAGE):
                strategy.compute(potential, atoms, nlist)
        self.assert_untouched(atoms)

    @pytest.mark.linux
    def test_process_engine(self, overlapping):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from repro.parallel.backends.processes import ProcessSDCCalculator

        atoms, nlist = overlapping
        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            with pytest.raises((ValueError, BackendError), match=self.MESSAGE):
                calc.compute(NoEmbedding(), atoms, nlist)
        self.assert_untouched(atoms)


# --------------------------------------------------------------------------
# bit-identity of the plumbing, tolerance of the one-pass override
# --------------------------------------------------------------------------

#: sha256 over float64 bytes, produced by this file's ``trajectory`` on the
#: commit before the one-pass geometry (row-major geometry twice per
#: evaluation, ``np.add.at`` force scatter, four potential calls) — x86-64,
#: Python 3.11.7, NumPy 2.4.6, glibc 2.36.  They pin the NumPy tier's
#: plumbing, so those runs are wholly on the NumPy tier, builds included
PARENT_DIGESTS = {
    "serial state": "11cb9c36c6e0aff2420546f1dbc97cc1a0a5f31048ddee3af71f1e31d4897a0e",
    "serial energies": "e0cc0676c19bfe4ab2c0cac64d30e8399c4a549fa22016d74f44094a7626c423",
    "sdc state": "10bd7d6c1575210ca79a7bfeec161d278ed55f1884d90aa95f3a04f90c139e0e",
}
#: the same hash over ``exp`` and the four potential functions on a fixed
#: grid: the only host-dependent arithmetic in a step (NumPy's SIMD
#: transcendentals differ in the last place between CPU families), so a
#: mismatch here means "other host", not "other kernels"
HOST_CANARY = "7463d19e59f68c285ec23a10276e570703302fe56ce0ff494afff6d41f7757f7"


class ComposedFe(JohnsonFePotential):
    """Fe with the composed ``pair_terms`` default restored: the arithmetic
    of the four separate calls, routed through the one-call plumbing."""

    pair_terms = EAMPotential.pair_terms


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()


def trajectory(calculator, potential):
    """1,024-atom bcc Fe at 900 K, skin 0.1: 60 steps, 13 rebuilds."""
    atoms = Case("bit-identity", "1,024-atom bcc Fe", 8).build(
        perturbation=0.05, temperature=900.0, seed=7
    )
    sim = Simulation(
        atoms, potential, calculator, VelocityVerlet(1.0e-3), skin=0.1
    )
    report = sim.run(60, sample_every=1)
    assert report.n_neighbor_rebuilds == 13
    energies = np.array([record.total_energy for record in report.records])
    return (atoms.positions, atoms.forces, atoms.rho), energies


class TestTrajectoryBitIdenticalToParent:
    @pytest.fixture(autouse=True)
    def same_host_arithmetic(self):
        potential = fe_potential()
        r = np.linspace(1.5, potential.cutoff, 4001)
        canary = digest(
            np.exp(-r),
            potential.density(r),
            potential.pair_energy(r),
            potential.density_deriv(r),
            potential.pair_energy_deriv(r),
        )
        if canary != HOST_CANARY:
            pytest.skip("transcendentals differ from the digest host's")

    @pytest.fixture(autouse=True)
    def numpy_tier(self):
        with kernels.use_tier("numpy"):
            yield

    def test_serial_state_and_every_step_energy(self):
        state, energies = trajectory(SerialCalculator(), ComposedFe())
        assert digest(*state) == PARENT_DIGESTS["serial state"]
        assert digest(energies) == PARENT_DIGESTS["serial energies"]

    def test_sdc_state_and_energy_up_to_summation_order(self):
        state, energies = trajectory(
            SDCStrategy(dims=2, n_threads=2), ComposedFe()
        )
        assert digest(*state) == PARENT_DIGESTS["sdc state"]
        # per-subdomain partials instead of one whole-list sum
        _, serial_energies = trajectory(SerialCalculator(), ComposedFe())
        assert np.max(np.abs(energies - serial_energies)) < 1e-10


class TestOnePassOverrideWithinTolerance:
    """The Johnson override is a few ulp per function from the composition:
    forces and energies of one evaluation within 1e-12 relative, the state
    after 60 steps within 1e-9 absolute (Å, eV/Å, density units)."""

    #: perturbed hard enough (0.3 Å) that second- and third-shell pairs
    #: land between ``r_switch`` and ``r_cut`` — a cold crystal has none
    GEOMETRIES = {
        "uniform": lambda: uniform_crystal(8, perturbation=0.3, seed=3),
        "void": lambda: crystal_with_void(8, 0.2, perturbation=0.3, seed=3),
        "slab": lambda: crystal_slab(8, 4, perturbation=0.3, seed=3),
    }

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_one_evaluation(self, geometry):
        atoms = self.GEOMETRIES[geometry]()
        fused, composed = fe_potential(), ComposedFe()
        nlist = build_neighbor_list(
            atoms.positions, atoms.box, cutoff=fused.cutoff, skin=0.3, half=True
        )
        # the switching region must be exercised, not only the two shells
        i_idx, j_idx = nlist.pair_arrays()
        _, r = NumpyKernelTier().pair_geometry(
            atoms.positions, atoms.box, i_idx, j_idx
        )
        assert np.any((r > fused.r_switch) & (r < fused.r_cut))
        got = compute_eam_forces_serial(fused, atoms.copy(), nlist)
        want = compute_eam_forces_serial(composed, atoms.copy(), nlist)
        for name in ("forces", "rho", "fp"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
        for name in ("pair_energy", "embedding_energy"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-12
            )

    def test_sixty_steps(self):
        state, energies = trajectory(SerialCalculator(), fe_potential())
        want_state, want_energies = trajectory(SerialCalculator(), ComposedFe())
        for got, want in zip(state, want_state):
            assert np.max(np.abs(got - want)) < 1e-9
        assert np.max(np.abs(energies - want_energies)) < 1e-9

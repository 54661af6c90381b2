"""Cross-tier differential suite: the numba tier must reproduce numpy.

Every entry point is compared between the NumPy reference tier and the
numba tier running under the ``stub_numba`` fixture — the same Python
source ``@njit`` would compile, executed without Numba.  The
``TestRealNumba`` class repeats the highest-value comparisons against an
actually-installed Numba (the CI kernel-tier matrix cell) and skips
cleanly everywhere else.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro import kernels
from repro.analysis.shadow import TaskWriteLog, wrap_array
from repro.md import EAMCalculator, Simulation

REAL_NUMBA = importlib.util.find_spec("numba") is not None


@pytest.fixture(params=["numba", "numba-parallel"])
def tiers(request, stub_numba):
    """(numpy tier, stub-compiled numba variant tier) pair.

    Parametrized over the plain and the ``parallel=True`` variants so the
    whole differential suite runs against both kernel sets.
    """
    numpy_tier = kernels.get("numpy")
    numba_tier = kernels.get(request.param)
    assert numba_tier.name == request.param
    return numpy_tier, numba_tier


@pytest.fixture()
def pair_slice(small_atoms, small_nlist, potential):
    """Geometry and spline inputs shared by the per-entry-point tests."""
    i_idx, j_idx = small_nlist.pair_arrays()
    delta, r = kernels.get("numpy").pair_geometry(
        small_atoms.positions, small_atoms.box, i_idx, j_idx
    )
    rho, _ = kernels.get("numpy").density_and_pair_energy_phase(
        potential, small_atoms.positions, small_atoms.box, small_nlist
    )
    fp = potential.embed_deriv(rho)
    return {
        "i_idx": i_idx,
        "j_idx": j_idx,
        "delta": delta,
        "r": r,
        "fp": fp,
    }


class TestEntryPoints:
    def test_pair_geometry(self, tiers, small_atoms, pair_slice):
        numpy_tier, numba_tier = tiers
        delta, r = numba_tier.pair_geometry(
            small_atoms.positions,
            small_atoms.box,
            pair_slice["i_idx"],
            pair_slice["j_idx"],
        )
        np.testing.assert_allclose(delta, pair_slice["delta"], atol=1e-12)
        np.testing.assert_allclose(r, pair_slice["r"], atol=1e-12)

    def test_pair_terms(self, tiers, potential, pair_slice):
        """The fused per-slice primitive: all four radial functions."""
        numpy_tier, numba_tier = tiers
        expected = numpy_tier.pair_terms(potential, pair_slice["r"])
        got = numba_tier.pair_terms(potential, pair_slice["r"])
        assert len(got) == len(expected) == 4
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_scatter_rho_half(self, tiers, small_atoms, pair_slice, potential):
        numpy_tier, numba_tier = tiers
        phi = numpy_tier.pair_terms(potential, pair_slice["r"])[0]
        expected = np.zeros(small_atoms.n_atoms)
        got = np.zeros(small_atoms.n_atoms)
        numpy_tier.scatter_rho_half(
            expected, pair_slice["i_idx"], pair_slice["j_idx"], phi
        )
        numba_tier.scatter_rho_half(
            got, pair_slice["i_idx"], pair_slice["j_idx"], phi
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_scatter_rho_owned(self, tiers, small_atoms, pair_slice, potential):
        numpy_tier, numba_tier = tiers
        n = small_atoms.n_atoms
        phi = numpy_tier.pair_terms(potential, pair_slice["r"])[0]
        expected = np.zeros(n)
        got = np.zeros(n)
        numpy_tier.scatter_rho_owned(expected, pair_slice["i_idx"], phi, n)
        numba_tier.scatter_rho_owned(got, pair_slice["i_idx"], phi, n)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_force_pair_coefficients(self, tiers, potential, pair_slice):
        numpy_tier, numba_tier = tiers
        fp = pair_slice["fp"]
        fp_i = fp[pair_slice["i_idx"]]
        fp_j = fp[pair_slice["j_idx"]]
        expected = numpy_tier.force_pair_coefficients(
            potential, pair_slice["r"], fp_i, fp_j
        )
        got = numba_tier.force_pair_coefficients(
            potential, pair_slice["r"], fp_i, fp_j
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_scatter_force_half(self, tiers, small_atoms, pair_slice):
        numpy_tier, numba_tier = tiers
        n = small_atoms.n_atoms
        pair_forces = pair_slice["delta"] * pair_slice["r"][:, None]
        expected = np.zeros((n, 3))
        got = np.zeros((n, 3))
        numpy_tier.scatter_force_half(
            expected, pair_slice["i_idx"], pair_slice["j_idx"], pair_forces
        )
        numba_tier.scatter_force_half(
            got, pair_slice["i_idx"], pair_slice["j_idx"], pair_forces
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_scatter_force_owned(self, tiers, small_atoms, pair_slice):
        numpy_tier, numba_tier = tiers
        n = small_atoms.n_atoms
        pair_forces = pair_slice["delta"] * pair_slice["r"][:, None]
        expected = np.zeros((n, 3))
        got = np.zeros((n, 3))
        numpy_tier.scatter_force_owned(
            expected, pair_slice["i_idx"], pair_forces, n
        )
        numba_tier.scatter_force_owned(got, pair_slice["i_idx"], pair_forces, n)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_density_and_pair_energy_phase(
        self, tiers, potential, small_atoms, small_nlist
    ):
        numpy_tier, numba_tier = tiers
        rho_np, e_np = numpy_tier.density_and_pair_energy_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist
        )
        rho_nb, e_nb = numba_tier.density_and_pair_energy_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist
        )
        np.testing.assert_allclose(rho_nb, rho_np, rtol=1e-12, atol=1e-12)
        assert e_nb == pytest.approx(e_np, rel=1e-12)

    def test_force_phase(
        self, tiers, potential, small_atoms, small_nlist, pair_slice
    ):
        numpy_tier, numba_tier = tiers
        args = (
            potential,
            small_atoms.positions,
            small_atoms.box,
            small_nlist,
            pair_slice["fp"],
        )
        expected = numpy_tier.force_phase(*args)
        got = numba_tier.force_phase(*args)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_density_and_force_slice(
        self, tiers, potential, small_atoms, pair_slice
    ):
        """The two entry points every SDC task runs through: each output —
        ``rho``, the four hand-over arrays, the pair-energy partial, the
        forces — within 1e-12 of the NumPy tier."""
        i_idx, j_idx = pair_slice["i_idx"], pair_slice["j_idx"]
        n, n_pairs = small_atoms.n_atoms, len(i_idx)
        outputs = []
        for tier in tiers:
            rho, forces = np.zeros(n), np.zeros((n, 3))
            handover = [np.empty((n_pairs, 3))] + [
                np.empty(n_pairs) for _ in range(3)
            ]
            energy = tier.density_slice(
                potential, small_atoms.positions, small_atoms.box,
                i_idx, j_idx, rho, handover,
            )
            tier.force_slice(i_idx, j_idx, pair_slice["fp"], handover, forces)
            outputs.append([rho, *handover, np.array(energy), forces])
        np.testing.assert_array_equal(outputs[0][1], pair_slice["delta"])
        for expected, got in zip(*outputs):
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


class TestDiagnosticsMatch:
    """Bad input must produce the *same* error text on every tier."""

    def _message(self, exc_type, fn, *args, **kwargs):
        with pytest.raises(exc_type) as info:
            fn(*args, **kwargs)
        return str(info.value)

    def test_scatter_bounds_error_identical(self, tiers):
        numpy_tier, numba_tier = tiers
        rho = np.zeros(4)
        i_idx = np.array([0, 7], dtype=np.int64)
        j_idx = np.array([1, 2], dtype=np.int64)
        phi = np.ones(2)
        messages = {
            self._message(
                IndexError, tier.scatter_rho_half, rho.copy(), i_idx, j_idx, phi
            )
            for tier in tiers
        }
        assert len(messages) == 1
        assert "outside the valid range [0, 4)" in messages.pop()

    def test_slice_bounds_error_identical_and_before_any_write(
        self, tiers, potential, small_atoms
    ):
        rho = np.zeros(small_atoms.n_atoms)
        i_idx = np.array([0, small_atoms.n_atoms + 5], dtype=np.int64)
        j_idx = np.array([1, 2], dtype=np.int64)
        handover = [np.full((2, 3), 7.0)] + [np.full(2, 7.0) for _ in range(3)]
        messages = {
            self._message(
                IndexError, tier.density_slice, potential,
                small_atoms.positions, small_atoms.box, i_idx, j_idx,
                rho, handover,
            )
            for tier in tiers
        }
        assert len(messages) == 1
        assert f"outside the valid range [0, {small_atoms.n_atoms})" in messages.pop()
        assert not rho.any() and all(np.all(a == 7.0) for a in handover)

    def test_owned_accumulator_error_identical(self, tiers):
        rho = np.zeros(3)
        i_idx = np.array([0, 1], dtype=np.int64)
        phi = np.ones(2)
        messages = {
            self._message(
                IndexError, tier.scatter_rho_owned, rho.copy(), i_idx, phi, 5
            )
            for tier in tiers
        }
        assert len(messages) == 1
        assert "5-row accumulator" in messages.pop()

    def test_overlap_error_identical(self, tiers, potential):
        r = np.array([2.5, 1e-9, 2.7])
        fp = np.zeros(3)
        pair_ids = (
            np.array([0, 1, 2], dtype=np.int64),
            np.array([3, 4, 5], dtype=np.int64),
        )
        messages = {
            self._message(
                ValueError,
                tier.force_pair_coefficients,
                potential,
                r,
                fp,
                fp,
                pair_ids,
            )
            for tier in tiers
        }
        assert len(messages) == 1
        assert "atoms 1 and 4" in messages.pop()


class TestShadowRouting:
    """Instrumented arrays must take the NumPy path so writes are seen."""

    def test_shadow_rho_writes_recorded(
        self, tiers, small_atoms, pair_slice, potential
    ):
        _, numba_tier = tiers
        n = small_atoms.n_atoms
        phi = kernels.get("numpy").pair_terms(potential, pair_slice["r"])[0]
        plain = np.zeros(n)
        numba_tier.scatter_rho_half(
            plain, pair_slice["i_idx"], pair_slice["j_idx"], phi
        )
        log = TaskWriteLog()
        root = np.zeros(n)
        shadow = wrap_array(root, "rho", log)
        numba_tier.scatter_rho_half(
            shadow, pair_slice["i_idx"], pair_slice["j_idx"], phi
        )
        np.testing.assert_allclose(root, plain, rtol=1e-12, atol=1e-14)
        written = log.flat("rho")
        expected = np.unique(
            np.concatenate([pair_slice["i_idx"], pair_slice["j_idx"]])
        )
        np.testing.assert_array_equal(written, expected)

    def test_shadow_force_writes_recorded(self, tiers, small_atoms, pair_slice):
        _, numba_tier = tiers
        n = small_atoms.n_atoms
        pair_forces = pair_slice["delta"]
        log = TaskWriteLog()
        root = np.zeros((n, 3))
        shadow = wrap_array(root, "forces", log)
        numba_tier.scatter_force_half(
            shadow, pair_slice["i_idx"], pair_slice["j_idx"], pair_forces
        )
        plain = np.zeros((n, 3))
        numba_tier.scatter_force_half(
            plain, pair_slice["i_idx"], pair_slice["j_idx"], pair_forces
        )
        np.testing.assert_allclose(root, plain, rtol=1e-12, atol=1e-14)
        assert len(log.flat("forces")) > 0


def _run_trajectory(atoms, potential, calculator, steps=20):
    sim = Simulation(atoms, potential, calculator=calculator)
    try:
        sim.run(steps, sample_every=5)
    finally:
        sim.close()
    return atoms


class TestTrajectories:
    @pytest.mark.parametrize("variant", ["numba", "numba-parallel"])
    def test_serial_trajectory_matches(
        self, stub_numba, small_atoms, potential, variant
    ):
        reference = _run_trajectory(
            small_atoms.copy(), potential, EAMCalculator(kernel_tier="numpy")
        )
        stubbed = _run_trajectory(
            small_atoms.copy(), potential, EAMCalculator(kernel_tier=variant)
        )
        np.testing.assert_allclose(
            stubbed.positions, reference.positions, atol=1e-8
        )
        np.testing.assert_allclose(
            stubbed.velocities, reference.velocities, atol=1e-8
        )

    @pytest.mark.parametrize("variant", ["numba", "numba-parallel"])
    def test_threaded_sdc_cell_matches_reference(
        self,
        stub_numba,
        sdc_atoms,
        sdc_nlist,
        potential,
        reference_result,
        variant,
    ):
        from repro.core.strategies import STRATEGY_REGISTRY
        from repro.parallel.backends.threads import ThreadBackend

        backend = ThreadBackend(2)
        strategy = STRATEGY_REGISTRY["sdc"](
            dims=2, n_threads=2, backend=backend
        )
        calc = EAMCalculator(strategy, kernel_tier=variant)
        assert calc.kernel_tier == variant
        try:
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        finally:
            backend.close()
        np.testing.assert_allclose(
            result.forces, reference_result.forces, rtol=1e-10, atol=1e-10
        )
        np.testing.assert_allclose(
            result.rho, reference_result.rho, rtol=1e-10, atol=1e-12
        )


@pytest.mark.skipif(not REAL_NUMBA, reason="Numba not installed")
class TestRealNumba:
    """The same comparisons against an actually-compiled tier (CI cell)."""

    @pytest.mark.parametrize("variant", ["numba", "numba-parallel"])
    def test_fused_phases_match(
        self, potential, small_atoms, small_nlist, variant
    ):
        numba_tier = kernels.get(variant)
        assert numba_tier.name == variant and numba_tier.compiled
        numpy_tier = kernels.get("numpy")
        rho_np, e_np = numpy_tier.density_and_pair_energy_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist
        )
        rho_nb, e_nb = numba_tier.density_and_pair_energy_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist
        )
        np.testing.assert_allclose(rho_nb, rho_np, rtol=1e-10, atol=1e-12)
        assert e_nb == pytest.approx(e_np, rel=1e-10)
        fp = potential.embed_deriv(rho_np)
        f_np = numpy_tier.force_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist, fp
        )
        f_nb = numba_tier.force_phase(
            potential, small_atoms.positions, small_atoms.box, small_nlist, fp
        )
        np.testing.assert_allclose(f_nb, f_np, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("variant", ["numba", "numba-parallel"])
    def test_pair_terms_kernel_compiles_and_matches(
        self, potential, small_atoms, small_nlist, variant
    ):
        i_idx, j_idx = small_nlist.pair_arrays()
        numpy_tier = kernels.get("numpy")
        _, r = numpy_tier.pair_geometry(
            small_atoms.positions, small_atoms.box, i_idx, j_idx
        )
        got = kernels.get(variant).pair_terms(potential, r)
        for a, b in zip(got, numpy_tier.pair_terms(potential, r)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("variant", ["numba", "numba-parallel"])
    def test_compiled_trajectory_matches(self, potential, small_atoms, variant):
        reference = _run_trajectory(
            small_atoms.copy(), potential, EAMCalculator(kernel_tier="numpy")
        )
        compiled = _run_trajectory(
            small_atoms.copy(), potential, EAMCalculator(kernel_tier=variant)
        )
        np.testing.assert_allclose(
            compiled.positions, reference.positions, atol=1e-7
        )

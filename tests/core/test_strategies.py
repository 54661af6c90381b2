"""Strategy equivalence and strategy-specific behaviour.

The central contract: every strategy computes the same physics as the
serial reference kernels, bit-close, regardless of decomposition,
thread count, or backend.
"""

import numpy as np
import pytest

from repro.core.strategies import (
    STRATEGY_REGISTRY,
    ArrayPrivatizationStrategy,
    AtomicStrategy,
    CriticalSectionStrategy,
    RedundantComputationStrategy,
    SDCStrategy,
    SerialStrategy,
)
from repro.geometry.box import Box
from repro.md import Atoms
from repro.md.neighbor.verlet import build_neighbor_list, full_from_half
from repro.parallel.backends import SerialBackend, ThreadBackend
from repro.potentials import compute_eam_forces_serial

FORCE_TOL = 1e-12
RHO_TOL = 1e-12


def assert_matches_reference(result, reference):
    assert np.allclose(result.forces, reference.forces, atol=FORCE_TOL)
    assert np.allclose(result.rho, reference.rho, atol=RHO_TOL)
    assert np.allclose(result.fp, reference.fp, atol=RHO_TOL)
    assert result.pair_energy == pytest.approx(reference.pair_energy)
    assert result.embedding_energy == pytest.approx(reference.embedding_energy)


ALL_STRATEGIES = [
    SerialStrategy(),
    SDCStrategy(dims=1, n_threads=2),
    SDCStrategy(dims=2, n_threads=3),
    SDCStrategy(dims=3, n_threads=4),
    SDCStrategy(dims=2, n_threads=2, adaptive=False),
    CriticalSectionStrategy(n_threads=3),
    ArrayPrivatizationStrategy(n_threads=3),
    RedundantComputationStrategy(n_threads=3),
    AtomicStrategy(n_threads=3),
]


@pytest.mark.parametrize(
    "strategy", ALL_STRATEGIES, ids=lambda s: f"{s.name}-{getattr(s, 'dims', '')}{getattr(s, 'n_threads', '')}"
)
def test_strategy_matches_serial_reference(
    strategy, potential, sdc_atoms, sdc_nlist, reference_result
):
    atoms = sdc_atoms.copy()
    result = strategy.compute(potential, atoms, sdc_nlist)
    assert_matches_reference(result, reference_result)
    # atoms were updated in place too
    assert np.allclose(atoms.forces, reference_result.forces, atol=FORCE_TOL)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_sdc_with_thread_backend_matches(
    dims, potential, sdc_atoms, sdc_nlist, reference_result
):
    with ThreadBackend(2) as backend:
        strategy = SDCStrategy(
            dims=dims, n_threads=2, backend=backend, validate_conflicts=True
        )
        result = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
    assert_matches_reference(result, reference_result)


@pytest.mark.parametrize(
    "factory",
    [
        lambda b: CriticalSectionStrategy(n_threads=2, backend=b),
        lambda b: ArrayPrivatizationStrategy(n_threads=2, backend=b),
        lambda b: RedundantComputationStrategy(n_threads=2, backend=b),
        lambda b: AtomicStrategy(n_threads=2, backend=b),
    ],
    ids=["cs", "sap", "rc", "atomic"],
)
def test_other_strategies_with_thread_backend(
    factory, potential, sdc_atoms, sdc_nlist, reference_result
):
    with ThreadBackend(2) as backend:
        result = factory(backend).compute(potential, sdc_atoms.copy(), sdc_nlist)
    assert_matches_reference(result, reference_result)


@pytest.mark.parametrize("n_threads", [1, 2, 3, 5])
@pytest.mark.parametrize("system", ["crystal", "dimer"])
@pytest.mark.parametrize(
    "cls",
    [
        CriticalSectionStrategy,
        ArrayPrivatizationStrategy,
        RedundantComputationStrategy,
        AtomicStrategy,
    ],
    ids=["cs", "sap", "rc", "atomic"],
)
def test_other_strategies_at_any_width(
    cls, system, n_threads, potential, sdc_atoms, sdc_nlist
):
    """Row blocks that do not divide the atoms, and — on the dimer — more
    workers than atoms: empty blocks, empty pair ranges."""
    atoms, nlist = sdc_atoms, sdc_nlist
    if system == "dimer":
        atoms = Atoms(
            box=Box([20.0, 20.0, 20.0]),
            positions=np.array([[5.0, 5.0, 5.0], [7.5, 5.0, 5.0]]),
        )
        nlist = build_neighbor_list(
            atoms.positions, atoms.box, potential.cutoff, skin=0.3
        )
        assert nlist.n_pairs == 1
    reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)
    with ThreadBackend(n_threads) as backend:
        result = cls(n_threads=n_threads, backend=backend).compute(
            potential, atoms.copy(), nlist
        )
    assert np.max(np.abs(result.forces - reference.forces)) <= 1e-9
    assert abs(result.pair_energy - reference.pair_energy) <= 1e-9
    assert abs(result.embedding_energy - reference.embedding_energy) <= 1e-9


class TestSDCSpecifics:
    def test_grid_cached_per_neighbor_list(self, potential, sdc_atoms, sdc_nlist):
        strategy = SDCStrategy(dims=2, n_threads=2)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        grid_first = strategy.grid
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert strategy.grid is grid_first

    def test_new_list_on_the_same_grid_keeps_the_grid(
        self, potential, sdc_atoms, sdc_nlist
    ):
        """A new list gets a new plan; the grid work of an unchanged box,
        reach and worker count is kept."""
        strategy = SDCStrategy(dims=2, n_threads=2)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        plan_first, grid_first = strategy._plan, strategy.grid
        fresh = build_neighbor_list(
            sdc_atoms.positions, sdc_atoms.box, potential.cutoff, skin=0.3
        )
        strategy.compute(potential, sdc_atoms.copy(), fresh)
        assert strategy._plan is not plan_first and strategy._plan.nlist is fresh
        assert strategy.grid is grid_first

    def test_rejects_full_list(self, potential, sdc_atoms, sdc_nlist):
        strategy = SDCStrategy(dims=2)
        with pytest.raises(ValueError, match="half"):
            strategy.compute(potential, sdc_atoms.copy(), full_from_half(sdc_nlist))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SDCStrategy(dims=0)

    def test_conflict_validation_passes_on_valid_grid(
        self, potential, sdc_atoms, sdc_nlist
    ):
        strategy = SDCStrategy(dims=3, n_threads=2, validate_conflicts=True)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)

    def test_decomposition_error_when_box_too_small(
        self, potential, small_atoms, small_nlist
    ):
        from repro.core.domain import DecompositionError

        # 5-cell box (14.3 Å) cannot host 2 subdomains of edge > 7.8 Å
        strategy = SDCStrategy(dims=1, n_threads=2)
        with pytest.raises(DecompositionError):
            strategy.compute(potential, small_atoms.copy(), small_nlist)


class TestRCSpecifics:
    def test_full_list_cached(self, potential, sdc_atoms, sdc_nlist):
        strategy = RedundantComputationStrategy(n_threads=2)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        first = strategy._layout(sdc_atoms, sdc_nlist)
        assert len(first.pair_i) == 2 * sdc_nlist.n_pairs
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert strategy._layout(sdc_atoms, sdc_nlist) is first

    def test_accepts_full_list_directly(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        strategy = RedundantComputationStrategy(n_threads=2)
        result = strategy.compute(
            potential, sdc_atoms.copy(), full_from_half(sdc_nlist)
        )
        assert_matches_reference(result, reference_result)


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(STRATEGY_REGISTRY) == {
            "serial",
            "sdc",
            "critical-section",
            "array-privatization",
            "redundant-computation",
            "atomic",
            "localwrite",
        }

    def test_constructor_validation(self):
        for cls in (
            CriticalSectionStrategy,
            ArrayPrivatizationStrategy,
            RedundantComputationStrategy,
            AtomicStrategy,
        ):
            with pytest.raises(ValueError):
                cls(n_threads=0)

"""SDC generalized to pair potentials."""

import numpy as np
import pytest

from repro.core.strategies.pairwise import SDCPairCalculator, SerialPairCalculator
from repro.geometry.lattice import bcc_lattice, perturb_positions
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import build_neighbor_list, full_from_half
from repro.md.simulation import Simulation
from repro.parallel.backends import ThreadBackend
from repro.potentials.lj import LennardJones
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def lj():
    # cutoff small enough that an 8-cell box hosts a 2x2 SDC grid
    return LennardJones(epsilon=0.3, sigma=2.27, r_cut=3.6, r_switch=3.2)


@pytest.fixture(scope="module")
def lj_system(lj):
    positions, box = bcc_lattice(2.8665, (8, 8, 8))
    rng = default_rng(23)
    positions = perturb_positions(positions, box, 0.06, rng)
    atoms = Atoms(box=box, positions=positions)
    nlist = build_neighbor_list(positions, box, lj.cutoff, skin=0.3)
    return atoms, nlist


@pytest.fixture(scope="module")
def serial_reference(lj, lj_system):
    atoms, nlist = lj_system
    return SerialPairCalculator().compute(lj, atoms.copy(), nlist)


class TestSerialPairCalculator:
    def test_momentum_conserved(self, serial_reference):
        assert np.allclose(serial_reference.forces.sum(axis=0), 0.0, atol=1e-11)

    def test_density_fields_zero(self, serial_reference):
        assert np.all(serial_reference.rho == 0.0)
        assert serial_reference.embedding_energy == 0.0

    def test_forces_are_energy_gradient(self, lj, lj_system):
        atoms, nlist = lj_system
        atoms = atoms.copy()
        result = SerialPairCalculator().compute(lj, atoms, nlist)
        eps = 1e-6
        atom, axis = 5, 1

        def energy_at(offset):
            shifted = atoms.copy()
            shifted.positions[atom, axis] += offset
            nl = build_neighbor_list(
                shifted.positions, shifted.box, lj.cutoff, skin=0.3
            )
            return SerialPairCalculator().compute(lj, shifted, nl).pair_energy

        fd = -(energy_at(eps) - energy_at(-eps)) / (2 * eps)
        assert result.forces[atom, axis] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_full_list_agrees(self, lj, lj_system, serial_reference):
        atoms, nlist = lj_system
        result = SerialPairCalculator().compute(
            lj, atoms.copy(), full_from_half(nlist)
        )
        assert np.allclose(result.forces, serial_reference.forces, atol=1e-11)
        assert result.pair_energy == pytest.approx(serial_reference.pair_energy)


class TestSDCPairCalculator:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_matches_serial(self, lj, lj_system, serial_reference, dims):
        atoms, nlist = lj_system
        calc = SDCPairCalculator(dims=dims, n_threads=2)
        result = calc.compute(lj, atoms.copy(), nlist)
        assert np.allclose(result.forces, serial_reference.forces, atol=1e-11)
        assert result.pair_energy == pytest.approx(serial_reference.pair_energy)

    def test_thread_backend(self, lj, lj_system, serial_reference):
        atoms, nlist = lj_system
        with ThreadBackend(2) as backend:
            calc = SDCPairCalculator(dims=2, n_threads=2, backend=backend)
            result = calc.compute(lj, atoms.copy(), nlist)
        assert np.allclose(result.forces, serial_reference.forces, atol=1e-11)

    def test_rejects_full_list(self, lj, lj_system):
        atoms, nlist = lj_system
        with pytest.raises(ValueError, match="half"):
            SDCPairCalculator(dims=2).compute(
                lj, atoms.copy(), full_from_half(nlist)
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SDCPairCalculator(dims=4)
        with pytest.raises(ValueError):
            SDCPairCalculator(n_threads=0)

    def test_decomposition_cached(self, lj, lj_system):
        atoms, nlist = lj_system
        calc = SDCPairCalculator(dims=2, n_threads=2)
        calc.compute(lj, atoms.copy(), nlist)
        plan_first = calc._plan
        calc.compute(lj, atoms.copy(), nlist)
        assert calc._plan is plan_first


class TestOverlappingAtoms:
    """Overlapping atoms used to be clamped to ``r = 1e-12`` and scattered
    as ~1e150 forces; now they raise, naming the pair, before any scatter."""

    MESSAGE = r"overlapping atoms: atoms 0 and 1 are separated by 1\.000e-09"

    @pytest.fixture()
    def overlapping(self, lj, lj_system):
        atoms, _ = lj_system
        positions = atoms.positions.copy()
        positions[1] = positions[0] + (0.0, 0.0, 1e-9)
        atoms = Atoms(box=atoms.box, positions=positions)
        atoms.forces[...] = 7.0
        return atoms, build_neighbor_list(positions, atoms.box, lj.cutoff, skin=0.3)

    @pytest.mark.parametrize(
        "calculator",
        [SerialPairCalculator, lambda: SDCPairCalculator(dims=2, n_threads=2)],
        ids=["serial", "sdc"],
    )
    def test_raises_before_any_scatter(self, lj, overlapping, calculator, monkeypatch):
        from repro.core.strategies import pairwise

        atoms, nlist = overlapping

        def no_scatter(*args, **kwargs):
            raise AssertionError("scattered a slice holding the overlap")

        if calculator is SerialPairCalculator:
            monkeypatch.setattr(pairwise, "segment_sum", no_scatter)
        with pytest.raises(ValueError, match=self.MESSAGE):
            calculator().compute(lj, atoms, nlist)
        assert np.all(atoms.forces == 7.0)

    def test_serial_evaluation_is_one_geometry_pass(self, lj, lj_system, monkeypatch):
        from repro.core.strategies import pairwise

        atoms, nlist = lj_system
        passes = []
        geometry = pairwise.pair_geometry

        def counting(positions, box, i_idx, j_idx):
            passes.append(len(i_idx))
            return geometry(positions, box, i_idx, j_idx)

        monkeypatch.setattr(pairwise, "pair_geometry", counting)
        SerialPairCalculator().compute(lj, atoms.copy(), nlist)
        assert passes == [nlist.n_pairs]


class TestLJDynamicsThroughSDC:
    def test_nve_energy_conservation(self, lj):
        positions, box = bcc_lattice(2.8665, (8, 8, 8))
        atoms = Atoms(box=box, positions=positions)
        rng = default_rng(5)
        atoms.positions = perturb_positions(positions, box, 0.03, rng)
        sim = Simulation(
            atoms,
            lj,
            calculator=SDCPairCalculator(dims=2, n_threads=2),
        )
        report = sim.run(30, sample_every=1)
        energies = report.energies()
        assert np.max(np.abs(energies - energies[0])) / max(
            abs(energies[0]), 1e-9
        ) < 1e-4

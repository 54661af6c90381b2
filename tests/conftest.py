"""Shared fixtures: small materialized systems, potentials, neighbor lists."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.geometry import bcc_lattice
from repro.geometry.lattice import perturb_positions
from repro.kernels.numpy_tier import NumpyKernelTier
from repro.md import Atoms, build_neighbor_list
from repro.potentials import compute_eam_forces_serial, fe_potential
from repro.utils.rng import default_rng


def pytest_runtest_setup(item):
    """Skip ``linux``-marked tests on platforms without Linux semantics."""
    if item.get_closest_marker("linux") and sys.platform != "linux":
        pytest.skip("requires Linux (/dev/shm, SIGKILL semantics)")


@pytest.fixture(scope="session")
def potential():
    """The library's default analytic Fe EAM potential."""
    return fe_potential()


@pytest.fixture(scope="session")
def perfect_system():
    """A perfect 5x5x5 bcc supercell (250 atoms) with its box."""
    positions, box = bcc_lattice(2.8665, (5, 5, 5))
    return positions, box


def _perturbed(n_cells: int, amplitude: float, seed: int):
    positions, box = bcc_lattice(2.8665, (n_cells,) * 3)
    rng = default_rng(seed)
    positions = perturb_positions(positions, box, amplitude, rng)
    return Atoms(box=box, positions=positions)


@pytest.fixture(scope="session")
def small_atoms():
    """250 perturbed atoms — fast unit-test workhorse."""
    return _perturbed(5, 0.05, seed=11)


@pytest.fixture(scope="session")
def sdc_atoms():
    """1024 perturbed atoms in a box large enough for 2x2x2 SDC grids."""
    return _perturbed(8, 0.08, seed=7)


@pytest.fixture(scope="session")
def small_nlist(small_atoms, potential):
    """Half neighbor list for the small system."""
    return build_neighbor_list(
        small_atoms.positions,
        small_atoms.box,
        cutoff=potential.cutoff,
        skin=0.3,
        half=True,
    )


@pytest.fixture(scope="session")
def sdc_nlist(sdc_atoms, potential):
    """Half neighbor list for the SDC-capable system."""
    return build_neighbor_list(
        sdc_atoms.positions,
        sdc_atoms.box,
        cutoff=potential.cutoff,
        skin=0.3,
        half=True,
    )


@pytest.fixture(scope="session")
def reference_result(sdc_atoms, sdc_nlist, potential):
    """Serial-kernel forces/densities for the SDC system (ground truth)."""
    return compute_eam_forces_serial(potential, sdc_atoms.copy(), sdc_nlist)


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return default_rng(1234)


class CountingTier(NumpyKernelTier):
    """The NumPy tier, recording the size of every geometry pass and of
    every potential call."""

    def __init__(self) -> None:
        super().__init__()
        self.passes: list = []
        self.terms: list = []

    def pair_geometry(self, positions, box, i_idx, j_idx):
        self.passes.append(len(i_idx))
        return super().pair_geometry(positions, box, i_idx, j_idx)

    def pair_terms(self, potential, r):
        self.terms.append(len(r))
        return super().pair_terms(potential, r)


@pytest.fixture()
def counting_tier():
    """A fresh :class:`CountingTier` per test."""
    return CountingTier()


@pytest.fixture()
def git_spawns(monkeypatch):
    """Count ``git`` subprocesses: ``collect_run_meta`` forks one per call
    (5 s timeout), so a driver collects its meta once per invocation."""
    import subprocess
    import types

    calls: list = []
    real_run = subprocess.run

    def fake_run(cmd, *args, **kwargs):
        if list(cmd)[:1] != ["git"]:  # platform.* shells out to uname
            return real_run(cmd, *args, **kwargs)
        calls.append(list(cmd))
        return types.SimpleNamespace(returncode=0, stdout="f" * 40 + "\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    return calls


@pytest.fixture()
def paired_overhead():
    """The wall-clock overhead contract's one measurement.

    ``measure(enabled, disabled, pairs)``: each arm runs the same work and
    returns its own seconds, or None when that work was not the steady
    state (a Verlet rebuild landed in it), which voids the pair.  Every
    pair runs both arms back to back, the first arm alternating between
    pairs, so host drift (steal, clock frequency) cancels inside a pair
    instead of across the measurement.  Returns ``(median of the per-pair
    enabled/disabled ratios, ratios)`` over ``pairs`` valid pairs.
    """

    def measure(enabled, disabled, pairs):
        ratios = []
        for k in range(2 * pairs):
            if k % 2:
                off = disabled()
                on = enabled()
            else:
                on = enabled()
                off = disabled()
            if on is not None and off is not None:
                ratios.append(on / off)
            if len(ratios) == pairs:
                return float(np.median(ratios)), ratios
        raise AssertionError(f"only {len(ratios)} of {pairs} pairs were valid")

    return measure


@pytest.fixture()
def check_run_dir():
    """The writer/reader round trip every driver's run directory obeys.

    ``check(directory, kinds)``: the reader finds exactly ``kinds``, and
    every payload carries its table schema tag.
    """
    import json

    from repro.obs.rundir import ARTIFACTS, artifact_path, read_run_dir

    def check(directory, kinds):
        assert set(read_run_dir(directory)) == set(kinds)
        for kind in kinds:
            if ARTIFACTS[kind].schema is not None:
                with open(artifact_path(directory, kind)) as handle:
                    assert json.load(handle)["schema"] == ARTIFACTS[kind].schema

    return check

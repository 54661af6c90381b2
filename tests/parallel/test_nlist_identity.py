"""Decomposition caches must key on the neighbor list *object*, not ``id()``.

Regression: every cache used to compare ``id(nlist)``.  Once the caller
drops a list, the next one can be allocated at the same address; the
cache then served the previous list's partition and the forces came out
silently wrong.  Forty fresh lists alternating between two different
configurations, each dropped before the next is created, reproduce it:
a fresh list object (``dataclasses.replace`` of a prebuilt one — same
pairs, new identity) usually lands exactly on the address just freed.
"""

import dataclasses
import multiprocessing as mp

import numpy as np
import pytest

from repro.core.strategies import SDCStrategy
from repro.harness.cases import Case
from repro.md import Atoms, build_neighbor_list
from repro.parallel.backends.processes import ProcessSDCCalculator
from repro.parallel.backends.sharded import ShardedSDCCalculator
from repro.potentials import compute_eam_forces_serial
from repro.utils.rng import default_rng

N_LISTS = 40

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)

CALCULATORS = {
    "processes": pytest.param(
        lambda: ProcessSDCCalculator(dims=2, n_workers=2), marks=needs_fork
    ),
    "sharded-inline": lambda: ShardedSDCCalculator(n_shards=2, engine="inline"),
    "sdc-strategy": lambda: SDCStrategy(dims=2, n_threads=2),
}


@pytest.mark.parametrize(
    "make", list(CALCULATORS.values()), ids=list(CALCULATORS)
)
def test_fresh_lists_never_hit_a_stale_decomposition(make, potential):
    case = Case(key="id", label="id", n_cells=6)
    first = case.build(perturbation=0.05, seed=1)
    # the same crystal with its atoms renumbered at random: every pair
    # index differs, so a partition served for the wrong list cannot go
    # unnoticed
    order = default_rng(3).permutation(first.n_atoms)
    second = Atoms(box=first.box, positions=first.positions[order])
    configurations = []
    for atoms in (first, second):
        built = build_neighbor_list(
            atoms.positions, atoms.box, cutoff=potential.cutoff, half=True
        )
        reference = compute_eam_forces_serial(potential, atoms.copy(), built)
        configurations.append((atoms, built, reference.forces))
    calculator = make()
    try:
        for k in range(N_LISTS):
            atoms, built, expected = configurations[k % 2]
            nlist = dataclasses.replace(built)
            result = calculator.compute(potential, atoms.copy(), nlist)
            assert np.allclose(
                result.forces, expected, atol=1e-9
            ), f"stale decomposition served for list {k}"
            # drop the list before the next one is created, so its
            # address is free to be reused
            del nlist
    finally:
        close = getattr(calculator, "close", None)
        if close is not None:
            close()

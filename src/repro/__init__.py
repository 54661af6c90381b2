"""repro — Spatial Decomposition Coloring for parallel EAM molecular dynamics.

A from-scratch reproduction of Hu, Liu & Li, *"Efficient Parallel
Implementation of Molecular Dynamics with Embedded Atom Method on
Multi-core Platforms"* (ICPP Workshops 2009): a complete EAM MD engine,
the SDC parallelization method with every competing irregular-reduction
strategy the paper evaluates, a simulated 16-core machine that regenerates
the paper's tables and figures, and real thread/process backends proving
the schedules race-free.

Quick start::

    from repro import quickstart
    atoms, report = quickstart()

Packages:

* :mod:`repro.geometry` — periodic boxes, bcc/fcc lattices, regions.
* :mod:`repro.md` — atoms, neighbor lists, integrators, the MD driver.
* :mod:`repro.potentials` — the EAM formalism, an analytic Fe potential,
  spline tables, LJ baseline.
* :mod:`repro.core` — the paper's contribution: SDC decomposition,
  coloring, schedules, strategies, data reordering, conflict checking.
* :mod:`repro.parallel` — the simulated multicore machine + real backends.
* :mod:`repro.harness` — the paper's cases and table/figure reproductions.
"""

from repro.core.strategies import (
    ArrayPrivatizationStrategy,
    AtomicStrategy,
    CriticalSectionStrategy,
    RedundantComputationStrategy,
    SDCStrategy,
    SerialStrategy,
)
from repro.geometry import Box, bcc_lattice, fcc_lattice
from repro.md import Atoms, Simulation, build_neighbor_list
from repro.parallel import MachineConfig, paper_machine, simulate
from repro.potentials import JohnsonFePotential, LennardJones, fe_potential

__version__ = "1.0.0"

__all__ = [
    "ArrayPrivatizationStrategy",
    "AtomicStrategy",
    "CriticalSectionStrategy",
    "RedundantComputationStrategy",
    "SDCStrategy",
    "SerialStrategy",
    "Box",
    "bcc_lattice",
    "fcc_lattice",
    "Atoms",
    "Simulation",
    "build_neighbor_list",
    "MachineConfig",
    "paper_machine",
    "simulate",
    "JohnsonFePotential",
    "LennardJones",
    "fe_potential",
    "quickstart",
    "__version__",
]


def quickstart(n_cells: int = 6, n_steps: int = 20, seed: int = 0):
    """Build a small bcc-Fe system, run a short NVE trajectory with SDC.

    Returns ``(atoms, report)`` — see ``examples/quickstart.py`` for the
    narrated version.
    """
    from repro.harness.cases import Case

    case = Case(key="quickstart", label="quickstart", n_cells=n_cells)
    atoms = case.build(perturbation=0.03, temperature=100.0, seed=seed)
    sim = Simulation(
        atoms,
        fe_potential(),
        calculator=SDCStrategy(dims=3, n_threads=2),
    )
    report = sim.run(n_steps)
    return atoms, report

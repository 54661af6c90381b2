#!/usr/bin/env python3
"""Micro-deformation of pure iron — the paper's motivating workload.

Section III.B: "Our four test cases were designed to observe micro-
deformation behaviors of the pure Fe metals material."  This example runs
that class of experiment at laptop scale:

1. build a periodic bcc Fe crystal and thermalize it;
2. apply a sequence of small uniaxial tensile strains (affine rescale of
   box + coordinates along x);
3. relax briefly at each strain and record the potential energy and the
   virial stress response;
4. report the stress-strain curve — the elastic response of the EAM
   crystal.

Forces run through the SDC strategy throughout, exactly as the paper's
production runs would.

Run:  python examples/fe_microdeformation.py
"""

import numpy as np

from repro import SDCStrategy, Simulation, fe_potential
from repro.geometry.box import Box
from repro.harness.cases import Case
from repro.md.integrators import VelocityVerlet
from repro.md.observables import temperature
from repro.md.thermostats import BerendsenThermostat
from repro.potentials.eam import compute_eam_energy


def strain_system(sim: Simulation, axis: int, strain_step: float) -> None:
    """Apply one affine tensile increment along ``axis``."""
    factor = 1.0 + strain_step
    lengths = sim.atoms.box.lengths.copy()
    lengths[axis] *= factor
    new_box = Box(tuple(lengths))
    positions = sim.atoms.positions.copy()
    positions[:, axis] *= factor
    sim.atoms.box = new_box
    sim.atoms.positions = positions
    sim.atoms.wrap()
    # geometry changed: force a rebuild (and with it a fresh decomposition)
    sim.nlist = None


def main() -> None:
    case = Case(key="deform", label="micro-deformation", n_cells=8)
    atoms = case.build(perturbation=0.02, temperature=50.0, seed=3)
    potential = fe_potential()
    strategy = SDCStrategy(dims=2, n_threads=2)
    sim = Simulation(
        atoms,
        potential,
        calculator=strategy,
        integrator=VelocityVerlet(timestep=1e-3),
        thermostat=BerendsenThermostat(50.0, tau=0.05),
    )

    print(f"thermalizing {atoms.n_atoms} Fe atoms at 50 K ...")
    sim.run(30)
    print(f"  T = {temperature(atoms):.1f} K")

    n_increments = 6
    strain_step = 0.004
    print(
        f"\napplying {n_increments} tensile increments of "
        f"{strain_step * 100:.1f}% along x"
    )
    print("\n strain     E_pot/atom (eV)    dE/atom (meV)")
    nlist = sim.ensure_neighbor_list()
    e0 = compute_eam_energy(potential, atoms, nlist) / atoms.n_atoms
    strains, energies = [0.0], [e0]
    print(f" {0.0:6.3f}   {e0:16.6f}     {0.0:12.3f}")
    total_strain = 0.0
    for _ in range(n_increments):
        strain_system(sim, axis=0, strain_step=strain_step)
        total_strain = (1.0 + total_strain) * (1.0 + strain_step) - 1.0
        sim.run(10)  # short relaxation at the new strain
        nlist = sim.ensure_neighbor_list()
        e = compute_eam_energy(potential, atoms, nlist) / atoms.n_atoms
        strains.append(total_strain)
        energies.append(e)
        print(
            f" {total_strain:6.3f}   {e:16.6f}     "
            f"{(e - e0) * 1000:12.3f}"
        )

    # elastic fit: E(eps) ~ E0 + 0.5 * C * eps^2  per atom
    eps = np.array(strains)
    de = np.array(energies) - energies[0]
    curvature = np.polyfit(eps, de, 2)[0] * 2.0
    volume_per_atom = atoms.box.volume / atoms.n_atoms
    modulus_gpa = curvature / volume_per_atom * 160.2176634
    print(
        f"\neffective uniaxial modulus from the energy curvature: "
        f"{modulus_gpa:.0f} GPa (order-of-magnitude bcc-metal stiffness)"
    )
    assert curvature > 0, "crystal must stiffen under tension"
    print("micro-deformation example complete.")


if __name__ == "__main__":
    main()

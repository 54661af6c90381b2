"""The MD driver: time stepping, neighbor-list management, measurement.

This is the piece that reproduces the paper's experimental procedure: run
N timesteps and accumulate, separately, the time spent in the electron
density and force calculations (the only two parts the paper times) —
"All of execution times of our experiments are the running times of the
calculations of the electron densities and forces".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol

import numpy as np

from repro import kernels, units
from repro.md.atoms import Atoms
from repro.md.integrators import REBUILD, Integrator, VelocityVerlet
from repro.md.neighbor.verlet import NeighborList, build_neighbor_list
from repro.md.observables import kinetic_energy
from repro.md.thermostats import Thermostat
from repro.obs.recorder import record as record_health
from repro.obs.tracer import CAT_MD, span_of
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation, compute_eam_forces_serial
from repro.utils.identity import IdentityKey


class ForceCalculator(Protocol):
    """Anything that can run the 3-phase EAM computation.

    Implemented by every strategy in :mod:`repro.core.strategies` and by
    the plain serial kernel.
    """

    def compute(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        """Evaluate densities/embedding/forces; update ``atoms`` in place."""
        ...


#: the pairs of a walk aimed at no list
_NO_PAIRS = np.zeros(0, dtype=np.int64)


class SerialCalculator:
    """Directly calls the serial reference kernels; under velocity Verlet
    on the C tier a whole step is one walk of one worker instead
    (:meth:`verlet_ring`)."""

    def __init__(self) -> None:
        #: the walk of one worker over a list as one colour, laid out per
        #: ``(tier, n_atoms)`` and aimed at ``_list``; the first barrier
        #: generation of its next run; whether the last evaluation may ring
        self._walk, self._key, self._list = None, (), IdentityKey()
        self._generation, self._walks = 1, False

    def compute(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        out = compute_eam_forces_serial(potential, atoms, nlist)
        self._walks = nlist.half and self._walker(potential, atoms) is not None
        return out

    def verlet_ring(self, potential, atoms, nlist, kicks, half_skin):
        """One MD step as one walk of one worker, this thread, on
        :meth:`~repro.core.strategies.sdc.SDCStrategy.verlet_ring`'s terms,
        into ``atoms``' own arrays, which the result holds.  None where C
        cannot ring it, nothing touched."""
        nlist.check_covers(atoms.n_atoms)
        walk = self._walker(potential, atoms, nlist)
        if walk is None or not walk.ring(
            atoms.velocities, atoms.types, atoms.masses,
            nlist.reference_positions, kicks, half_skin,
        ):
            return None
        if half_skin is None:  # else the kick-drift zeroes them
            atoms.rho.fill(0.0)
            atoms.forces.fill(0.0)
        self._generation += 4
        if walk.stopped([walk.run(self._generation - 4)]):
            # the list is stale: its pair arrays need not live through the build
            self._list.clear()
            walk.replan(*self._plan(None, atoms))
            return REBUILD
        pair, embedding, moments = walk.sums()
        result = EAMComputation(pair, embedding, atoms.rho, atoms.fp, atoms.forces)
        return result, moments

    def caller_walks(self) -> bool:
        """Whether the last evaluation's list and atoms may ring."""
        return self._walks

    def _walker(self, potential, atoms: Atoms, nlist=None):
        """The walk bound to ``atoms`` and, given ``nlist``, aimed at it
        (once per list), or None: a tier without a walker, a full list, or
        a potential or arrays C may not run."""
        key, self._walks = (kernels.active_tier(), atoms.n_atoms), False
        if self._key != key:  # laid out aimed at no list, one waiter's barrier
            barrier, plan = np.zeros((2, 8), dtype=np.int64), self._plan(None, atoms)
            self._walk = key[0].sdc_walker(*plan, atoms.n_atoms, barrier)
            self._key = key
            self._list.clear()
        walk = self._walk
        if walk is None:
            return None
        if nlist is not None and not self._list.matches(nlist):
            self._list.clear()
            if not (nlist.half and walk.replan(*self._plan(nlist, atoms))):
                return None
            self._list.set(nlist)
        self._walks = walk.bind(
            potential, atoms.positions, atoms.box, atoms.rho, atoms.fp, atoms.forces
        )
        return walk if self._walks else None

    @staticmethod
    def _plan(nlist, atoms: Atoms):
        """One worker's one colour over ``nlist``'s pairs (None: no pairs)."""
        pairs = (_NO_PAIRS,) * 2 if nlist is None else nlist.pair_arrays()
        return *pairs, [[(0, len(pairs[0]))]], [(0, atoms.n_atoms)]

    def health_snapshot(self) -> dict:
        return {
            "engine": "serial",
            "kernel_tier": kernels.active_tier().name,
        }


@dataclass
class StepRecord:
    """Per-sample observables emitted by the driver."""

    step: int
    potential_energy: float
    kinetic_energy: float
    temperature: float

    @property
    def total_energy(self) -> float:
        """Conserved quantity in NVE."""
        return self.potential_energy + self.kinetic_energy


@dataclass
class SimulationReport:
    """What a :meth:`Simulation.run` call produced."""

    records: List[StepRecord] = field(default_factory=list)
    n_steps: int = 0
    n_neighbor_rebuilds: int = 0
    force_seconds: float = 0.0

    def energies(self) -> np.ndarray:
        """Total-energy series as an array (energy-conservation tests)."""
        return np.array([r.total_energy for r in self.records])


class Simulation:
    """Owns atoms + potential + integrator + force strategy + neighbor list.

    Parameters
    ----------
    skin:
        Verlet skin; the list is rebuilt when any atom has moved more
        than ``skin / 2`` since the last build (and on the first step).
        Inside :meth:`run` the integrator's ``first_half`` measures that
        displacement in the same pass that moves the atoms, when it can
        (:class:`~repro.md.integrators.VelocityVerlet` does).
    rebuild_every:
        optional hard cadence; when set, the list is also rebuilt every
        that many steps regardless of displacement (the paper notes "the
        neighbor list usually doesn't be updated in every time-step").
    tracer:
        optional :class:`~repro.obs.tracer.Tracer`; when set, the driver
        records ``md-step`` / ``forces`` / ``neighbor-rebuild`` spans so
        the per-step structure shows up on the execution timeline.
    run_log:
        optional :class:`~repro.obs.runlog.RunLog`; when set, the driver
        appends ``observables`` records at every sample and an ``event``
        record at the begin and end of each :meth:`run`.  Neighbor
        rebuilds are recorded once, in the flight recorder.
    health:
        optional :class:`~repro.obs.health.HealthMonitor`; when set, the
        driver runs the physics invariant checks (energy drift, momentum,
        force-sum residual) after every force evaluation of the stepping
        loop, on the step's :class:`~repro.md.integrators.Moments` when
        the integrator and the thermostat hand them over, and threshold
        crossings land in the flight recorder.  The monitor is bound to
        this driver's calculator so
        :meth:`~repro.obs.health.HealthMonitor.snapshot` covers the
        engine too.
    """

    def __init__(
        self,
        atoms: Atoms,
        potential: EAMPotential,
        calculator: Optional[ForceCalculator] = None,
        integrator: Optional[Integrator] = None,
        thermostat: Optional[Thermostat] = None,
        skin: float = 0.3,
        rebuild_every: Optional[int] = None,
        tracer=None,
        run_log=None,
        health=None,
    ) -> None:
        if rebuild_every is not None and rebuild_every <= 0:
            raise ValueError("rebuild_every must be positive when given")
        self.atoms = atoms
        self.potential = potential
        self.calculator: ForceCalculator = calculator or SerialCalculator()
        self.integrator = integrator or VelocityVerlet(timestep=1.0e-3)
        self.thermostat = thermostat
        self.skin = skin
        self.rebuild_every = rebuild_every
        self.tracer = tracer
        self.run_log = run_log
        self.health = health
        if health is not None and health.calculator is None:
            health.attach_calculator(self.calculator)
        self.nlist: Optional[NeighborList] = None
        #: lifetime totals; :meth:`run` reports its own share of each
        self.n_neighbor_rebuilds = 0
        self.force_seconds = 0.0
        self._last_computation: Optional[EAMComputation] = None
        self._steps_since_rebuild = 0
        #: the displacement :meth:`run`'s ``first_half`` measured from the
        #: list's reference, for the next :meth:`ensure_neighbor_list` only
        self._moved: Optional[float] = None

    def _span(self, name: str, **args):
        """A tracer span context, or a no-op when untraced."""
        return span_of(self.tracer, name, category=CAT_MD, **args)

    # --- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the calculator's execution resources (idempotent).

        Persistent calculators (the process engine, strategies on a
        thread pool) hold worker pools and shared-memory arenas across
        steps; the driver owns the calculator for the run, so it also
        owns the teardown.  Calculators without a ``close`` are left
        untouched.
        """
        release = getattr(self.calculator, "close", None)
        if callable(release):
            release()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # --- neighbor management ---------------------------------------------------

    def ensure_neighbor_list(self) -> NeighborList:
        """Build or refresh the neighbor list when the Verlet criterion fires."""
        moved, self._moved = self._moved, None
        if self.nlist is None:
            must_build = True
        elif moved is not None:
            # the step's first half measured it: NaN fails the test too
            must_build = not moved <= self.nlist.skin / 2.0
        else:
            must_build = self.nlist.needs_rebuild(self.atoms.positions)
        if (
            not must_build
            and self.rebuild_every is not None
            and self._steps_since_rebuild >= self.rebuild_every
        ):
            must_build = True
        if must_build:
            with self._span("neighbor-rebuild"):
                self.nlist = build_neighbor_list(
                    self.atoms.positions,
                    self.atoms.box,
                    cutoff=self.potential.cutoff,
                    skin=self.skin,
                    half=True,
                )
            self.n_neighbor_rebuilds += 1
            self._steps_since_rebuild = 0
            record_health(
                "scheduler",
                "neighbor-rebuild",
                n_pairs=self.nlist.n_pairs,
                n_atoms=self.atoms.n_atoms,
            )
            # distributed engines re-home atoms at every rebuild (atom
            # migration); plain strategies simply don't expose the hook
            rebuild_hook = getattr(self.calculator, "on_neighbor_rebuild", None)
            if rebuild_hook is not None:
                rebuild_hook(self.atoms, self.nlist)
        assert self.nlist is not None
        return self.nlist

    # --- force evaluation ---------------------------------------------------------

    def compute_forces(self) -> EAMComputation:
        """One full 3-phase EAM evaluation through the configured strategy."""
        self.ensure_neighbor_list()
        self._last_computation = self._forces(self.calculator.compute)
        return self._last_computation

    def _forces(self, evaluate, *args):
        """``evaluate`` on the driver's atoms and list, timed and spanned
        as a force evaluation."""
        start = time.perf_counter()
        with self._span("forces"):
            out = evaluate(self.potential, self.atoms, self.nlist, *args)
        self.force_seconds += time.perf_counter() - start
        return out

    def _step(self):
        """One step as the integrator's two halves around an evaluation:
        ``(result, moments)``."""
        self._moved = self.integrator.first_half(
            self.atoms,
            None if self.nlist is None else self.nlist.reference_positions,
        )
        self._steps_since_rebuild += 1
        return self.compute_forces(), self.integrator.second_half(self.atoms)

    def _ring_step(self):
        """One step as one ring of the calculator's team (its
        ``verlet_ring``: kick-drift, the Verlet check, the evaluation and
        the closing kick, each worker over its rows), rung once more
        without the kick-drift after a rebuild: ``(result, moments)``, or
        None where it cannot ring, nothing touched."""
        # offered while the calculator walks its team, so that a step on
        # any other route spans and times one evaluation, as before; a
        # subclass that hooks the evaluation or the list check sees them
        ring = getattr(self.calculator, "verlet_ring", None)
        kicks = getattr(self.integrator, "kicks", None)
        hooks = type(self).compute_forces, type(self).ensure_neighbor_list
        if (
            ring is None or kicks is None or self.nlist is None
            or hooks != (Simulation.compute_forces, Simulation.ensure_neighbor_list)
        ):
            return None
        kicks = getattr(self.calculator, "caller_walks", bool)() and kicks(self.atoms)
        if not kicks:
            return None
        due = (  # the cadence rebuilds whatever moved
            self.rebuild_every is not None
            and self._steps_since_rebuild + 1 >= self.rebuild_every
        )
        out = self._forces(ring, kicks, -1.0 if due else self.nlist.skin / 2.0)
        if out is None:
            return None
        self._steps_since_rebuild += 1
        if out is REBUILD:
            self._moved = math.inf
            self.ensure_neighbor_list()
            out = self._forces(ring, kicks, None)
            if out is None:  # the new list's layout cannot ring
                return self.compute_forces(), self.integrator.second_half(self.atoms)
        self._last_computation, sums = out
        return out[0], self.integrator.moments(*sums)

    @property
    def last_computation(self) -> Optional[EAMComputation]:
        """Result of the most recent force evaluation."""
        return self._last_computation

    # --- stepping -----------------------------------------------------------------

    def run(
        self,
        n_steps: int,
        sample_every: int = 10,
    ) -> SimulationReport:
        """Integrate ``n_steps`` of dynamics.

        Forces are evaluated once before the loop if no evaluation has
        happened yet (velocity Verlet needs F(t=0)).
        """
        if n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        report = SimulationReport()
        rebuilds_before = self.n_neighbor_rebuilds
        force_seconds_before = self.force_seconds
        if self._last_computation is None:
            self.compute_forces()
        assert self._last_computation is not None
        if self.run_log is not None:
            self.run_log.log(
                "event",
                event="run-begin",
                n_steps=n_steps,
                n_atoms=self.atoms.n_atoms,
                calculator=getattr(
                    self.calculator, "name", type(self.calculator).__name__
                ),
            )
        for step in range(n_steps):
            with self._span("md-step", step=step):
                result, moments = self._ring_step() or self._step()
                if self.thermostat is not None:
                    factor = self.thermostat.apply(
                        self.atoms,
                        self.integrator.timestep,
                        kinetic=None if moments is None else moments.kinetic,
                    )
                    moments = (
                        None if moments is None or factor is None
                        else moments.rescaled(factor)
                    )
                if self.health is not None:
                    self.health.observe_step(
                        step,
                        self.atoms,
                        result.potential_energy,
                        moments=moments,
                    )
            if step % sample_every == 0 or step == n_steps - 1:
                kinetic = (
                    kinetic_energy(self.atoms) if moments is None
                    else moments.kinetic
                )
                n_atoms = self.atoms.n_atoms
                record = StepRecord(
                    step=step,
                    potential_energy=result.potential_energy,
                    kinetic_energy=kinetic,
                    temperature=(
                        units.kinetic_energy_to_temperature(kinetic, n_atoms)
                        if n_atoms
                        else 0.0
                    ),
                )
                report.records.append(record)
                if self.run_log is not None:
                    self.run_log.log(
                        "observables",
                        step=record.step,
                        potential_energy=record.potential_energy,
                        kinetic_energy=record.kinetic_energy,
                        temperature=record.temperature,
                        total_energy=record.total_energy,
                    )
        report.n_steps = n_steps
        report.n_neighbor_rebuilds = self.n_neighbor_rebuilds - rebuilds_before
        report.force_seconds = self.force_seconds - force_seconds_before
        if self.run_log is not None:
            self.run_log.log(
                "event",
                event="run-end",
                n_steps=report.n_steps,
                n_neighbor_rebuilds=report.n_neighbor_rebuilds,
                force_seconds=report.force_seconds,
            )
        return report

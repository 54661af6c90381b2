"""The MD driver: time stepping, neighbor-list management, measurement.

This is the piece that reproduces the paper's experimental procedure: run
N timesteps and accumulate, separately, the time spent in the electron
density and force calculations (the only two parts the paper times) —
"All of execution times of our experiments are the running times of the
calculations of the electron densities and forces".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol

import numpy as np

from repro.md.atoms import Atoms
from repro.md.integrators import Integrator, VelocityVerlet
from repro.md.neighbor.verlet import NeighborList, build_neighbor_list
from repro.md.observables import kinetic_energy, temperature
from repro.md.thermostats import Thermostat
from repro.obs.tracer import CAT_MD, span_of
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation, compute_eam_forces_serial


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


class SerialCalculator:
    """Directly calls the serial reference kernels."""

    def compute(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        return compute_eam_forces_serial(potential, atoms, nlist)

    def health_snapshot(self) -> dict:
        from repro import kernels

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
        record per neighbor rebuild.
    health:
        optional :class:`~repro.obs.health.HealthMonitor`; when set, the
        driver runs the physics invariant checks (energy drift, momentum,
        force-sum residual) after every force evaluation of the stepping
        loop, and threshold crossings land in the flight recorder and the
        run log.  The monitor is bound to this driver's calculator so
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
        must_build = self.nlist is None or self.nlist.needs_rebuild(
            self.atoms.positions
        )
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
            if self.run_log is not None:
                self.run_log.log(
                    "event",
                    event="neighbor-rebuild",
                    n_pairs=self.nlist.n_pairs,
                )
            try:
                from repro.obs.recorder import record

                record(
                    "scheduler",
                    "neighbor-rebuild",
                    n_pairs=self.nlist.n_pairs,
                    n_atoms=self.atoms.n_atoms,
                )
            except Exception:  # pragma: no cover - telemetry stays optional
                pass
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
        nlist = self.ensure_neighbor_list()
        start = time.perf_counter()
        with self._span("forces"):
            result = self.calculator.compute(self.potential, self.atoms, nlist)
        self.force_seconds += time.perf_counter() - start
        self._last_computation = result
        return result

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
                self.integrator.first_half(self.atoms)
                self._steps_since_rebuild += 1
                result = self.compute_forces()
                self.integrator.second_half(self.atoms)
                if self.thermostat is not None:
                    self.thermostat.apply(
                        self.atoms, self.integrator.timestep
                    )
                if self.health is not None:
                    self.health.observe_step(
                        step,
                        self.atoms,
                        result.potential_energy,
                        run_log=self.run_log,
                    )
            if step % sample_every == 0 or step == n_steps - 1:
                record = StepRecord(
                    step=step,
                    potential_energy=result.potential_energy,
                    kinetic_energy=kinetic_energy(self.atoms),
                    temperature=temperature(self.atoms),
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

"""Physics invariant monitors and the health snapshot API.

Two layers on top of the flight recorder (:mod:`repro.obs.recorder`):

* :class:`PhysicsMonitor` — per-step checks of the quantities an NVE MD
  run must conserve: total-energy drift against the first sampled value,
  total momentum, and the Newton's-third-law force-sum residual (forces
  over a periodic box with a symmetric pair list must sum to ~0 — a
  broken scatter or race shows up here before it shows up in energies).
  Each invariant carries warning/critical thresholds
  (:class:`InvariantThresholds`); crossings emit health events and
  mirror into the run log, but only on *status transitions*, so a
  healthy steady-state step records nothing (the overhead contract).
  Virial-pressure sanity is the one expensive check (it needs a full
  extra density+force pass), so it runs only when explicitly invoked
  (:meth:`PhysicsMonitor.check_pressure` — the doctor harness samples
  it once, long runs can call it at rebuild cadence).

* :class:`HealthMonitor` — the aggregation point the driver carries:
  owns a :class:`PhysicsMonitor`, knows the active calculator, and
  serves :meth:`HealthMonitor.snapshot` — the typed dict
  (``engine`` / ``tier`` / ``invariants`` / ``recorder`` / counters)
  that `repro doctor`, the serving layer, and tests all read.

The module depends only on numpy + :mod:`repro.units` + the recorder, so
it can be imported from anywhere in the stack without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import units
from repro.obs.recorder import FlightRecorder, get_recorder, severity_rank

__all__ = [
    "DEFAULT_THRESHOLDS",
    "HealthMonitor",
    "InvariantStatus",
    "InvariantThresholds",
    "PhysicsMonitor",
]

_STATUS_ORDER = ("ok", "warning", "critical")


@dataclass(frozen=True)
class InvariantThresholds:
    """Warning/critical thresholds for the physics invariant monitors.

    The defaults are calibrated to the repo's own NVE conservation
    tests: a velocity-Verlet run at the paper's timestep holds relative
    energy drift well below 1e-5 over hundreds of steps, momentum and
    the force sum are conserved to float64 rounding (per-atom residuals
    ~1e-13), and any bulk-iron case near equilibrium sits far inside
    |P| < 1e6 bar.  Crossing *warning* means "look at this run";
    crossing *critical* means the physics is broken (`repro doctor`
    exits 1 on it).
    """

    #: relative total-energy drift |E - E0| / max(|E0|, 1 eV)
    energy_drift_warning: float = 1.0e-5
    energy_drift_critical: float = 1.0e-3
    #: per-atom total-momentum magnitude (amu Å/ps)
    momentum_warning: float = 1.0e-8
    momentum_critical: float = 1.0e-5
    #: per-atom force-sum residual (eV/Å) — Newton's third law
    force_sum_warning: float = 1.0e-8
    force_sum_critical: float = 1.0e-5
    #: sanity bound on |virial pressure| (bar)
    pressure_bound_bar: float = 1.0e6

    def to_dict(self) -> Dict[str, float]:
        return {
            "energy_drift_warning": self.energy_drift_warning,
            "energy_drift_critical": self.energy_drift_critical,
            "momentum_warning": self.momentum_warning,
            "momentum_critical": self.momentum_critical,
            "force_sum_warning": self.force_sum_warning,
            "force_sum_critical": self.force_sum_critical,
            "pressure_bound_bar": self.pressure_bound_bar,
        }


DEFAULT_THRESHOLDS = InvariantThresholds()


@dataclass
class InvariantStatus:
    """Running state of one monitored invariant."""

    name: str
    status: str = "ok"
    value: float = 0.0
    worst: float = 0.0
    n_checks: int = 0
    n_warnings: int = 0
    n_criticals: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "value": self.value,
            "worst": self.worst,
            "n_checks": self.n_checks,
            "n_warnings": self.n_warnings,
            "n_criticals": self.n_criticals,
        }


def _classify(value: float, warning: float, critical: float) -> str:
    if value >= critical:
        return "critical"
    if value >= warning:
        return "warning"
    return "ok"


class PhysicsMonitor:
    """Per-step conserved-quantity checks with threshold events.

    The energy reference ``E0`` is the total energy at the first
    observed step; drift is measured relative to it.  Events are
    emitted only when an invariant's status *changes* (ok → warning,
    warning → critical, and the recovery edges at debug severity), so a
    healthy run records one event total: nothing.
    """

    def __init__(
        self,
        thresholds: Optional[InvariantThresholds] = None,
        recorder: Optional[FlightRecorder] = None,
        check_every: int = 1,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.thresholds = thresholds or DEFAULT_THRESHOLDS
        self._recorder = recorder
        self.check_every = check_every
        self.reference_energy: Optional[float] = None
        self.invariants: Dict[str, InvariantStatus] = {
            name: InvariantStatus(name)
            for name in ("energy_drift", "momentum", "force_sum", "pressure")
        }

    @property
    def recorder(self) -> FlightRecorder:
        return self._recorder if self._recorder is not None else get_recorder()

    # --- checks ----------------------------------------------------------------

    def observe_step(self, step: int, atoms, potential_energy: float, run_log=None) -> None:
        """Run the cheap invariant checks for one integration step."""
        if step % self.check_every != 0:
            return
        t = self.thresholds
        masses = atoms.mass_per_atom()
        velocities = atoms.velocities
        kinetic = 0.5 * units.MVV_TO_EV * float(
            np.sum(masses * np.sum(velocities * velocities, axis=1))
        )
        total = potential_energy + kinetic
        if self.reference_energy is None:
            self.reference_energy = total
        n_atoms = max(len(atoms), 1)
        drift = abs(total - self.reference_energy) / max(
            abs(self.reference_energy), 1.0
        )
        momentum = (masses[:, None] * velocities).sum(axis=0)
        momentum_per_atom = float(np.max(np.abs(momentum))) / n_atoms
        force_sum = atoms.forces.sum(axis=0)
        force_per_atom = float(np.max(np.abs(force_sum))) / n_atoms

        self._update(
            "energy_drift",
            drift,
            t.energy_drift_warning,
            t.energy_drift_critical,
            step,
            run_log,
        )
        self._update(
            "momentum",
            momentum_per_atom,
            t.momentum_warning,
            t.momentum_critical,
            step,
            run_log,
        )
        self._update(
            "force_sum",
            force_per_atom,
            t.force_sum_warning,
            t.force_sum_critical,
            step,
            run_log,
        )

    def check_pressure(self, potential, atoms, nlist, step: int = -1, run_log=None) -> float:
        """Virial-pressure sanity check (one full extra force pass).

        Deliberately not part of :meth:`observe_step` — call it at the
        doctor's sample point or at rebuild cadence.  Returns the
        pressure in bar.
        """
        from repro.md.virial import pressure_bar

        pressure = pressure_bar(potential, atoms, nlist)
        bound = self.thresholds.pressure_bound_bar
        self._update(
            "pressure", abs(pressure), bound, float("inf"), step, run_log,
            pressure_bar=pressure,
        )
        return pressure

    def _update(
        self,
        name: str,
        value: float,
        warning: float,
        critical: float,
        step: int,
        run_log,
        **extra: object,
    ) -> None:
        inv = self.invariants[name]
        inv.n_checks += 1
        inv.value = value
        inv.worst = max(inv.worst, value)
        status = _classify(value, warning, critical)
        if status == "warning":
            inv.n_warnings += 1
        elif status == "critical":
            inv.n_criticals += 1
        if status == inv.status:
            return
        rising = _STATUS_ORDER.index(status) > _STATUS_ORDER.index(inv.status)
        inv.status = status
        severity = status if rising else "debug"
        event = "invariant-breach" if rising else "invariant-recovered"
        self.recorder.record(
            "physics",
            event,
            severity=severity,
            invariant=name,
            status=status,
            value=value,
            threshold_warning=warning,
            threshold_critical=critical,
            step=step,
            **extra,
        )
        if run_log is not None and severity_rank(severity) >= severity_rank("warning"):
            try:
                run_log.log(
                    "health",
                    event=event,
                    severity=severity,
                    invariant=name,
                    status=status,
                    value=value,
                    step=step,
                )
            except Exception:  # pragma: no cover - logging must not kill the run
                pass

    # --- reading ---------------------------------------------------------------

    def status(self) -> Dict[str, Dict[str, object]]:
        return {name: inv.to_dict() for name, inv in self.invariants.items()}

    def worst_status(self) -> str:
        return max(
            (inv.status for inv in self.invariants.values()),
            key=_STATUS_ORDER.index,
        )


class HealthMonitor:
    """The run-level health aggregation point.

    Attach one to a :class:`~repro.md.simulation.Simulation` (the
    ``health=`` parameter); the driver calls :meth:`observe_step` after
    every force evaluation.  :meth:`snapshot` folds together everything
    the health plane knows: the engine's lifecycle state (any
    calculator exposing ``health_snapshot()``), the kernel-tier registry
    state, the invariant statuses, and the recorder counters.
    """

    def __init__(
        self,
        recorder: Optional[FlightRecorder] = None,
        thresholds: Optional[InvariantThresholds] = None,
        calculator=None,
        check_every: int = 1,
    ) -> None:
        self._recorder = recorder
        self.physics = PhysicsMonitor(
            thresholds=thresholds,
            recorder=recorder,
            check_every=check_every,
        )
        self.calculator = calculator

    @property
    def recorder(self) -> FlightRecorder:
        return self._recorder if self._recorder is not None else get_recorder()

    @property
    def thresholds(self) -> InvariantThresholds:
        return self.physics.thresholds

    def attach_calculator(self, calculator) -> None:
        """Bind the calculator whose engine state snapshots should cover."""
        self.calculator = calculator

    def observe_step(self, step: int, atoms, potential_energy: float, run_log=None) -> None:
        self.physics.observe_step(step, atoms, potential_energy, run_log=run_log)

    def snapshot(self) -> Dict[str, object]:
        """The typed health snapshot: engine / tier / invariants / counters."""
        from repro import kernels

        engine: Optional[Dict[str, object]] = None
        hook = getattr(self.calculator, "health_snapshot", None)
        if callable(hook):
            try:
                engine = hook()
            except Exception as exc:  # pragma: no cover - snapshot never raises
                engine = {"error": repr(exc)}
        recorder = self.recorder
        return {
            "engine": engine,
            "tier": kernels.tier_status(),
            "invariants": self.physics.status(),
            "worst_invariant_status": self.physics.worst_status(),
            "thresholds": self.thresholds.to_dict(),
            "recorder": recorder.snapshot(),
            "counters": recorder.counts(),
        }

    def summary_fields(self) -> Dict[str, object]:
        """Compact summary for run-log meta records."""
        counts = self.recorder.counts()

        def total(category: str, min_severity: str = "debug") -> int:
            floor = severity_rank(min_severity)
            return sum(
                n
                for key, n in counts.items()
                if "/" in key
                and key.split("/", 1)[0] == category
                and severity_rank(key.split("/", 1)[1]) >= floor
            )

        return {
            "worst_severity": self.recorder.worst_severity(),
            "worst_invariant_status": self.physics.worst_status(),
            "n_events": self.recorder.n_recorded,
            "n_engine_events": total("engine"),
            "n_kernel_events": total("kernel"),
            "n_physics_warnings": total("physics", "warning"),
            "n_observer_failures": total("observer"),
        }

    def dump(self, path) -> str:
        """Dump the recorder ring to ``path`` (health.jsonl)."""
        return self.recorder.dump(path)

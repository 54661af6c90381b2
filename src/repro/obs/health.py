"""The health monitor: physics invariant checks and the health snapshot API.

One layer on top of the flight recorder (:mod:`repro.obs.recorder`),
:class:`HealthMonitor`, the aggregation point the driver carries:

* per-step checks of the quantities an MD run must conserve: total-energy
  drift against the first observed value (less the energy a thermostat
  exchanged, when the driver hands the step's moments over), total
  momentum, and the Newton's-third-law force-sum residual (forces over a
  periodic box with a symmetric pair list must sum to ~0 — a broken
  scatter or race shows up here before it shows up in energies).
  Each invariant carries warning/critical thresholds
  (:class:`InvariantThresholds`); a NaN reading is critical.  Crossings
  are recorded in the flight recorder, their one writer, and only on
  *status transitions*, so a healthy steady-state step records nothing
  (the overhead contract).
  Virial-pressure sanity is the one expensive check (it needs a full
  extra density+force pass), so it runs only when explicitly invoked
  (:meth:`HealthMonitor.check_pressure` — the doctor harness samples
  it once, long runs can call it at rebuild cadence).

* :meth:`HealthMonitor.snapshot` — the typed dict (``engine`` / ``tier``
  / ``invariants`` / ``recorder`` / counters) that `repro doctor` and
  tests read, folding in the active calculator's engine state.

The module depends only on numpy + :mod:`repro.units` + the recorder, so
it can be imported from anywhere in the stack without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import units
from repro.obs.recorder import FlightRecorder, get_recorder, severity_rank

__all__ = [
    "DEFAULT_THRESHOLDS",
    "HealthMonitor",
    "InvariantStatus",
    "InvariantThresholds",
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


def _moments_of(atoms):
    """(kinetic energy, total momentum, force sum) summed over the atoms."""
    masses = atoms.mass_per_atom()
    velocities = atoms.velocities
    kinetic = 0.5 * units.MVV_TO_EV * float(
        np.sum(masses * np.sum(velocities * velocities, axis=1))
    )
    momentum = (masses[:, None] * velocities).sum(axis=0)
    return kinetic, momentum.tolist(), atoms.forces.sum(axis=0).tolist()


def _largest(vector) -> float:
    """The largest component magnitude of a 3-vector; NaN when any
    component is NaN, as ``np.max`` has it."""
    x, y, z = abs(vector[0]), abs(vector[1]), abs(vector[2])
    return math.nan if math.isnan(x + y + z) else max(x, y, z)


def _classify(value: float, warning: float, critical: float) -> str:
    """The status of one reading; NaN fails every ``<`` and is critical."""
    if value < warning and value < critical:
        return "ok"
    if value < critical:
        return "warning"
    return "critical"


class HealthMonitor:
    """The run-level health aggregation point.

    Attach one to a :class:`~repro.md.simulation.Simulation` (the
    ``health=`` parameter); the driver calls :meth:`observe_step` after
    every force evaluation.  The energy reference ``E0`` is the total
    energy, less the thermostat exchange handed over so far, at the
    first observed step; drift is measured relative to it.  Events are
    recorded only when an invariant's status *changes* (ok → warning,
    warning → critical, and the recovery edges at debug severity), so a
    healthy run records nothing.

    :meth:`snapshot` folds together everything the health plane knows:
    the engine's lifecycle state (any calculator exposing
    ``health_snapshot()``), the kernel-tier registry state, the
    invariant statuses, and the recorder counters.
    """

    def __init__(
        self,
        recorder: Optional[FlightRecorder] = None,
        thresholds: Optional[InvariantThresholds] = None,
        calculator=None,
    ) -> None:
        self._recorder = recorder
        self.thresholds = thresholds or DEFAULT_THRESHOLDS
        self.calculator = calculator
        #: the conserved energy, ``E - exchanged``, at the first check
        self.reference_energy: Optional[float] = None
        #: kinetic energy the handed-over steps' thermostat moved (eV)
        self.exchanged = 0.0
        self.invariants: Dict[str, InvariantStatus] = {
            name: InvariantStatus(name)
            for name in ("energy_drift", "momentum", "force_sum", "pressure")
        }

    @property
    def recorder(self) -> FlightRecorder:
        return self._recorder if self._recorder is not None else get_recorder()

    def attach_calculator(self, calculator) -> None:
        """Bind the calculator whose engine state snapshots should cover."""
        self.calculator = calculator

    # --- checks ----------------------------------------------------------------

    def observe_step(
        self, step: int, atoms, potential_energy: float, moments=None,
    ) -> None:
        """Run the cheap invariant checks for one integration step.

        ``moments`` are the step's kinetic energy, total momentum, force
        sum and thermostat exchange
        (:class:`~repro.md.integrators.Moments`) when the driver hands
        them over; without them the first three are summed over the atoms
        here and the exchange counts as 0.  The energy checked is ``E -
        sum exchanged`` over every handed-over step, which velocity
        Verlet conserves under a rescaling thermostat too.
        """
        if moments is None:
            kinetic, momentum, force_sum = _moments_of(atoms)
        else:
            self.exchanged += moments.exchanged
            kinetic, momentum, force_sum, _ = moments
        total = potential_energy + kinetic - self.exchanged
        if self.reference_energy is None:
            self.reference_energy = total
        reference = self.reference_energy
        n_atoms = max(len(atoms), 1)
        t = self.thresholds
        self._update(
            "energy_drift",
            abs(total - reference) / max(abs(reference), 1.0),
            t.energy_drift_warning,
            t.energy_drift_critical,
            step,
        )
        self._update(
            "momentum",
            _largest(momentum) / n_atoms,
            t.momentum_warning,
            t.momentum_critical,
            step,
        )
        self._update(
            "force_sum",
            _largest(force_sum) / n_atoms,
            t.force_sum_warning,
            t.force_sum_critical,
            step,
        )

    def check_pressure(self, potential, atoms, nlist, step: int = -1) -> float:
        """Virial-pressure sanity check (one full extra force pass).

        Deliberately not part of :meth:`observe_step` — call it at the
        doctor's sample point or at rebuild cadence.  Returns the
        pressure in bar.
        """
        from repro.md.virial import pressure_bar

        pressure = pressure_bar(potential, atoms, nlist)
        bound = self.thresholds.pressure_bound_bar
        self._update(
            "pressure", abs(pressure), bound, float("inf"), step,
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
        **extra: object,
    ) -> None:
        inv = self.invariants[name]
        inv.n_checks += 1
        inv.value = value
        if math.isnan(value) or value > inv.worst:  # a NaN reading sticks
            inv.worst = value
        if inv.status == "ok" and value < warning and value < critical:
            return  # the healthy steady state: ok, and still ok
        status = _classify(value, warning, critical)
        if status == "warning":
            inv.n_warnings += 1
        elif status == "critical":
            inv.n_criticals += 1
        if status == inv.status:
            return
        rising = _STATUS_ORDER.index(status) > _STATUS_ORDER.index(inv.status)
        inv.status = status
        self.recorder.record(
            "physics",
            "invariant-breach" if rising else "invariant-recovered",
            severity=status if rising else "debug",
            invariant=name,
            status=status,
            value=value,
            threshold_warning=warning,
            threshold_critical=critical,
            step=step,
            **extra,
        )

    # --- reading ---------------------------------------------------------------

    def status(self) -> Dict[str, Dict[str, object]]:
        return {name: inv.to_dict() for name, inv in self.invariants.items()}

    def worst_status(self) -> str:
        return max(
            (inv.status for inv in self.invariants.values()),
            key=_STATUS_ORDER.index,
        )

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
            "invariants": self.status(),
            "worst_invariant_status": self.worst_status(),
            "thresholds": self.thresholds.to_dict(),
            "recorder": recorder.snapshot(),
            "counters": recorder.counts(),
        }

    def summary_fields(self) -> Dict[str, object]:
        """Compact summary of the recorder counts and invariant status."""
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
            "worst_invariant_status": self.worst_status(),
            "n_events": self.recorder.n_recorded,
            "n_engine_events": total("engine"),
            "n_kernel_events": total("kernel"),
            "n_physics_warnings": total("physics", "warning"),
        }

    def dump(self, path) -> str:
        """Dump the recorder ring to ``path`` (health.jsonl)."""
        return self.recorder.dump(path)

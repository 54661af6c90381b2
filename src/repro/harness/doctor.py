"""The ``repro doctor`` self-check: run a tiny workload, diagnose it.

The doctor exercises every layer of the stack on a small known-good
case and folds what the health plane observed into a diagnosis table:

* **environment** — host/interpreter/dependency identification
  (:func:`~repro.obs.runlog.collect_run_meta`);
* **kernel-tier** — resolve the process's tier (an unknown
  ``REPRO_KERNEL_TIER`` raises before any check runs) and report the
  registry state, with the C tier's build (``warning`` when it is
  unavailable, naming why; ``not-loaded`` when ``numpy`` was selected, so
  nothing was built);
* **physics** — a short serial NVE run through the invariant monitors
  (energy drift, momentum, force-sum residual) plus one gated virial
  pressure sample;
* **process-engine** — a real force computation through the persistent
  process pool, checked for agreement with the serial reference;
* **sharded-engine** — a force computation through the sharded halo
  exchange engine (DESIGN.md §7.4), checked against the same serial
  reference, with the ghost/exchange snapshot in the finding's fields;
* **recorder** — dump the flight-recorder ring and re-validate it
  through the reader (the artifact round-trip CI asserts).

Fault injection (``inject=``) deliberately breaks one layer so CI can
assert the failure is *visible*: ``worker-kill`` SIGKILLs a live pool
worker between two computations (Linux/POSIX only).  It must turn the
doctor's exit code to 1 and leave the triggering events in the dumped
``health.jsonl``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.health import HealthMonitor, InvariantThresholds
from repro.obs.recorder import FlightRecorder, set_recorder
from repro.obs.rundir import artifact_path, read_artifact

__all__ = [
    "FAULTS",
    "DoctorReport",
    "Finding",
    "run_doctor",
]

#: fault-injection modes ``repro doctor --inject`` accepts
FAULTS = ("none", "worker-kill")

_STATUS_ORDER = ("skip", "ok", "warning", "critical")


@dataclass
class Finding:
    """One diagnosis row: a named check and its verdict."""

    check: str
    status: str  # skip | ok | warning | critical
    detail: str
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "fields": dict(self.fields),
        }


@dataclass
class DoctorReport:
    """Everything one doctor invocation concluded."""

    findings: List[Finding]
    snapshot: Dict[str, object]
    inject: str = "none"
    health_path: Optional[str] = None

    @property
    def worst_status(self) -> str:
        return max(
            (f.status for f in self.findings),
            key=_STATUS_ORDER.index,
            default="ok",
        )

    @property
    def exit_code(self) -> int:
        """1 on any critical finding — the CLI contract."""
        return 1 if self.worst_status == "critical" else 0

    def render(self) -> str:
        header = f"{'check':<16} {'status':<9} detail"
        lines = [header, "-" * len(header)]
        for f in self.findings:
            lines.append(f"{f.check:<16} {f.status:<9} {f.detail}")
        lines.append("")
        lines.append(
            f"verdict: {self.worst_status}"
            + (f" (inject={self.inject})" if self.inject != "none" else "")
        )
        return "\n".join(lines)


def _check_environment(meta: Dict[str, object]) -> Finding:
    missing = [key for key in ("numpy", "python") if not meta.get(key)]
    status = "critical" if "numpy" in missing else "ok"
    detail = (
        f"python {meta.get('python')} numpy {meta.get('numpy')} "
        f"cpus {meta.get('cpu_count')}"
    )
    if missing:
        detail = f"missing: {', '.join(missing)}; " + detail
    return Finding("environment", status, detail, fields=dict(meta))


def _check_kernel_tier() -> Finding:
    from repro import kernels

    resolved = kernels.active_tier()
    status = kernels.tier_status()
    c = status["c"]
    detail = f"resolved {resolved.name!r}; c tier {c['state']}"
    if c["state"] != "not-loaded":  # numpy selected: nothing was built
        detail += ": " + (
            c["reason"] if c["state"] == "unavailable" else c["so_path"]
        )
    if c["build_s"] is not None:
        detail += f" (built in {c['build_s']:.2f} s)"
    return Finding(
        "kernel-tier",
        "warning" if c["state"] == "unavailable" else "ok",
        detail,
        fields=status,
    )


def _check_physics(
    case: str,
    steps: int,
    monitor: HealthMonitor,
) -> Finding:
    from repro.harness.cases import case_by_key
    from repro.md.simulation import Simulation
    from repro.potentials import fe_potential

    atoms = case_by_key(case).build(temperature=50.0)
    sim = Simulation(atoms, fe_potential(), health=monitor)
    sim.run(steps, sample_every=max(1, steps))
    pressure = monitor.physics.check_pressure(
        sim.potential, sim.atoms, sim.nlist, step=steps
    )
    status = monitor.physics.worst_status()
    invariants = monitor.physics.status()
    drift = invariants["energy_drift"]["worst"]
    momentum = invariants["momentum"]["worst"]
    detail = (
        f"{len(atoms)} atoms x {steps} steps: drift {drift:.2e}, "
        f"momentum {momentum:.2e}/atom, pressure {pressure:.0f} bar"
    )
    return Finding("physics", status, detail, fields=invariants)


def _check_process_engine(
    case: str,
    n_workers: int,
    inject: str,
) -> Finding:
    if os.name != "posix":
        return Finding(
            "process-engine",
            "skip",
            "fork-based process pool needs a POSIX host",
        )
    import signal

    import numpy as np

    from repro.core.strategies import STRATEGY_REGISTRY
    from repro.md.neighbor.verlet import build_neighbor_list
    from repro.harness.cases import case_by_key
    from repro.parallel.backends.base import BackendError
    from repro.parallel.backends.processes import ProcessSDCCalculator
    from repro.potentials import fe_potential

    atoms = case_by_key(case).build(temperature=50.0)
    potential = fe_potential()
    nlist = build_neighbor_list(
        atoms.positions, atoms.box, cutoff=potential.cutoff, half=True
    )
    reference = STRATEGY_REGISTRY["serial"]().compute(
        potential, atoms, nlist
    )
    calc = ProcessSDCCalculator(dims=2, n_workers=n_workers)
    killed = False
    try:
        calc.compute(potential, atoms, nlist)
        if inject == "worker-kill":
            pids = calc.worker_pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                killed = True
                time.sleep(0.1)
        result = calc.compute(potential, atoms, nlist)
        snapshot = calc.health_snapshot()
    except BackendError as exc:
        return Finding(
            "process-engine",
            "critical",
            f"process pool did not recover: {exc}",
        )
    finally:
        calc.close()
    force_err = float(
        np.max(np.abs(result.forces - reference.forces))
    )
    consistent = force_err < 1e-8
    n_restarts = int(snapshot.get("n_restarts", 0))
    if killed:
        if n_restarts >= 1 and consistent:
            status = "critical"
            detail = (
                f"injected SIGKILL: worker died, pool restarted "
                f"({n_restarts}x), recomputed forces match serial "
                f"(max|dF| {force_err:.1e})"
            )
        else:
            status = "critical"
            detail = (
                "injected SIGKILL but no restart was observed "
                f"(restarts={n_restarts}, max|dF| {force_err:.1e})"
            )
    elif not consistent:
        status = "critical"
        detail = (
            f"process forces diverge from serial (max|dF| {force_err:.1e})"
        )
    elif n_restarts > 0:
        status = "warning"
        detail = (
            f"{snapshot.get('n_workers')} workers healthy but the pool "
            f"restarted {n_restarts}x during the check"
        )
    else:
        status = "ok"
        detail = (
            f"{snapshot.get('n_workers')} workers, max|dF| vs serial "
            f"{force_err:.1e}, restarts 0"
        )
    return Finding("process-engine", status, detail, fields=snapshot)


def _check_sharded_engine(case: str, n_workers: int) -> Finding:
    """A sharded force evaluation checked against the serial reference.

    Exercises the full halo exchange — ghost construction, the workers'
    rho/fp/force pulls at their barriers — on the doctor workload, and reports
    the engine's health snapshot (ghost counts, exchange bytes, worker
    state) as the finding's fields.
    """
    import numpy as np

    from repro.core.strategies import STRATEGY_REGISTRY
    from repro.md.neighbor.verlet import build_neighbor_list
    from repro.harness.cases import case_by_key
    from repro.parallel.backends.base import BackendError
    from repro.parallel.backends.sharded import ShardedSDCCalculator
    from repro.potentials import fe_potential

    atoms = case_by_key(case).build(temperature=50.0)
    potential = fe_potential()
    nlist = build_neighbor_list(
        atoms.positions, atoms.box, cutoff=potential.cutoff, half=True
    )
    reference = STRATEGY_REGISTRY["serial"]().compute(
        potential, atoms, nlist
    )
    n_shards = max(2, n_workers)
    calc = ShardedSDCCalculator(n_shards=n_shards)
    try:
        result = calc.compute(potential, atoms.copy(), nlist)
        snapshot = calc.health_snapshot()
    except BackendError as exc:
        return Finding(
            "sharded-engine",
            "critical",
            f"sharded engine did not recover: {exc}",
        )
    finally:
        calc.close()
    force_err = float(np.max(np.abs(result.forces - reference.forces)))
    if force_err >= 1e-8:
        status = "critical"
        detail = (
            f"sharded forces diverge from serial (max|dF| {force_err:.1e})"
        )
    else:
        status = "ok"
        detail = (
            f"{n_shards} shards ({snapshot.get('shard_engine')}), "
            f"{snapshot.get('n_ghosts')} ghosts, max|dF| vs serial "
            f"{force_err:.1e}"
        )
    return Finding("sharded-engine", status, detail, fields=snapshot)


def _check_recorder(
    recorder: FlightRecorder, health_path: Optional[str]
) -> Finding:
    if health_path is None:
        n = recorder.n_recorded
        return Finding(
            "recorder", "ok", f"{n} events recorded (no dump requested)"
        )
    try:
        recorder.dump(health_path)
        _, (meta, *events) = read_artifact(health_path, "health")
    except (OSError, ValueError) as exc:
        return Finding(
            "recorder",
            "critical",
            f"health.jsonl round-trip failed: {exc}",
        )
    return Finding(
        "recorder",
        "ok",
        f"{len(events)} events validated in {health_path}",
        fields={"meta": meta},
    )


def run_doctor(
    case: str = "tiny",
    steps: int = 3,
    n_workers: int = 2,
    inject: str = "none",
    output_dir: Optional[str] = None,
    thresholds: Optional[InvariantThresholds] = None,
) -> DoctorReport:
    """Run every doctor check; returns the diagnosis report.

    The doctor runs against a *fresh* flight recorder (swapped in for
    the duration, restored afterwards) so its health.jsonl contains
    exactly what the self-check workload produced.  ``inject="worker-kill"``
    SIGKILLs a pool worker mid-check.  Any critical finding drives
    :attr:`DoctorReport.exit_code` to 1.
    """
    if inject not in FAULTS:
        raise ValueError(f"unknown inject {inject!r} (choose from {FAULTS})")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    from repro.obs.runlog import collect_run_meta

    health_path = None
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        health_path = artifact_path(output_dir, "health")

    recorder = FlightRecorder()
    previous = set_recorder(recorder)
    try:
        recorder.record(
            "doctor", "doctor-start", case=case, steps=steps, inject=inject
        )
        findings: List[Finding] = []
        meta = collect_run_meta(n_workers)
        findings.append(_check_environment(meta))
        findings.append(_check_kernel_tier())
        monitor = HealthMonitor(
            recorder=recorder, thresholds=thresholds
        )
        findings.append(_check_physics(case, steps, monitor))
        findings.append(_check_process_engine(case, n_workers, inject))
        findings.append(_check_sharded_engine(case, n_workers))
        for finding in findings:
            if finding.status in ("warning", "critical"):
                recorder.record(
                    "doctor",
                    "finding",
                    severity=finding.status,
                    check=finding.check,
                    detail=finding.detail,
                )
        findings.append(_check_recorder(recorder, health_path))
        snapshot = monitor.snapshot()
        report = DoctorReport(
            findings=findings,
            snapshot=snapshot,
            inject=inject,
            health_path=health_path,
        )
        recorder.record(
            "doctor",
            "doctor-end",
            severity="info",
            verdict=report.worst_status,
            exit_code=report.exit_code,
        )
        if health_path is not None:
            # re-dump so doctor-end and every finding land in the artifact
            recorder.dump(health_path)
        return report
    finally:
        set_recorder(previous)

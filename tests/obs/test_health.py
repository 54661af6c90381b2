"""Physics invariant monitors + the HealthMonitor snapshot surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.health import (
    DEFAULT_THRESHOLDS,
    HealthMonitor,
    InvariantThresholds,
    PhysicsMonitor,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.runlog import RunLog


class _FakeAtoms:
    """Just enough Atoms surface for the invariant checks."""

    def __init__(self, n=4):
        self.n = n
        self.velocities = np.zeros((n, 3))
        self.forces = np.zeros((n, 3))
        self.masses = np.ones(n)

    def mass_per_atom(self):
        return self.masses

    def __len__(self):
        return self.n


@pytest.fixture()
def recorder():
    return FlightRecorder()


class TestThresholds:
    def test_defaults_documented_in_experiments(self):
        t = DEFAULT_THRESHOLDS
        assert t.energy_drift_warning == 1e-5
        assert t.energy_drift_critical == 1e-3
        assert t.momentum_warning == 1e-8
        assert t.momentum_critical == 1e-5
        assert t.force_sum_warning == 1e-8
        assert t.force_sum_critical == 1e-5
        assert t.pressure_bound_bar == 1e6

    def test_to_dict_round_trips(self):
        t = InvariantThresholds(energy_drift_warning=0.5)
        assert t.to_dict()["energy_drift_warning"] == 0.5
        assert set(t.to_dict()) == set(DEFAULT_THRESHOLDS.to_dict())


class TestPhysicsMonitor:
    def test_first_step_sets_energy_reference(self, recorder):
        monitor = PhysicsMonitor(recorder=recorder)
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0)
        assert monitor.reference_energy == -10.0
        assert monitor.worst_status() == "ok"
        assert recorder.events() == []  # healthy step records nothing

    def test_drift_breach_emits_event_on_transition_only(self, recorder):
        monitor = PhysicsMonitor(recorder=recorder)
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0)
        # |(-10.05) - (-10)| / 10 = 5e-3 >= 1e-3 -> critical
        for step in (1, 2, 3):
            monitor.observe_step(
                step, _FakeAtoms(), potential_energy=-10.05
            )
        breaches = [
            e
            for e in recorder.events(category="physics")
            if e.event == "invariant-breach"
        ]
        assert len(breaches) == 1  # transition, not every step
        breach = breaches[0]
        assert breach.severity == "critical"
        assert breach.fields["invariant"] == "energy_drift"
        assert monitor.invariants["energy_drift"].n_criticals == 3

    def test_recovery_emits_debug_event(self, recorder):
        monitor = PhysicsMonitor(recorder=recorder)
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0)
        monitor.observe_step(1, _FakeAtoms(), potential_energy=-10.05)
        monitor.observe_step(2, _FakeAtoms(), potential_energy=-10.0)
        names = [e.event for e in recorder.events(category="physics")]
        assert names == ["invariant-breach", "invariant-recovered"]
        recovered = recorder.events(category="physics")[-1]
        assert recovered.severity == "debug"
        assert monitor.worst_status() == "ok"

    def test_momentum_and_force_sum_breaches(self, recorder):
        monitor = PhysicsMonitor(recorder=recorder)
        atoms = _FakeAtoms(n=2)
        atoms.velocities[:, 0] = 1.0  # gross net momentum
        atoms.forces[:, 1] = 0.5  # gross force-sum residual
        monitor.observe_step(0, atoms, potential_energy=0.0)
        breached = {
            e.fields["invariant"]
            for e in recorder.events(category="physics")
        }
        assert {"momentum", "force_sum"} <= breached
        assert monitor.worst_status() == "critical"

    def test_breach_mirrors_into_run_log(self, recorder):
        run_log = RunLog()
        monitor = PhysicsMonitor(recorder=recorder)
        monitor.observe_step(
            0, _FakeAtoms(), potential_energy=-10.0, run_log=run_log
        )
        monitor.observe_step(
            1, _FakeAtoms(), potential_energy=-10.05, run_log=run_log
        )
        health_records = run_log.of_kind("health")
        assert len(health_records) == 1
        assert health_records[0]["invariant"] == "energy_drift"
        assert health_records[0]["severity"] == "critical"

    def test_recovery_not_mirrored_into_run_log(self, recorder):
        run_log = RunLog()
        monitor = PhysicsMonitor(recorder=recorder)
        monitor.observe_step(
            0, _FakeAtoms(), potential_energy=-10.0, run_log=run_log
        )
        monitor.observe_step(
            1, _FakeAtoms(), potential_energy=-10.05, run_log=run_log
        )
        monitor.observe_step(
            2, _FakeAtoms(), potential_energy=-10.0, run_log=run_log
        )
        assert len(run_log.of_kind("health")) == 1  # breach only

    def test_check_every_skips_steps(self, recorder):
        monitor = PhysicsMonitor(recorder=recorder, check_every=5)
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0)
        monitor.observe_step(3, _FakeAtoms(), potential_energy=-99.0)
        assert monitor.invariants["energy_drift"].n_checks == 1
        monitor.observe_step(5, _FakeAtoms(), potential_energy=-99.0)
        assert monitor.invariants["energy_drift"].n_checks == 2

    def test_check_every_validation(self):
        with pytest.raises(ValueError):
            PhysicsMonitor(check_every=0)

    def test_check_pressure_within_bound(
        self, recorder, potential, small_atoms, small_nlist
    ):
        from repro.potentials import compute_eam_forces_serial

        atoms = small_atoms.copy()
        compute_eam_forces_serial(potential, atoms, small_nlist)
        monitor = PhysicsMonitor(recorder=recorder)
        pressure = monitor.check_pressure(
            potential, atoms, small_nlist, step=0
        )
        assert np.isfinite(pressure)
        inv = monitor.invariants["pressure"]
        assert inv.n_checks == 1
        assert inv.status == ("ok" if abs(pressure) < 1e6 else "warning")

    def test_check_pressure_breach_with_tight_bound(
        self, recorder, potential, small_atoms, small_nlist
    ):
        monitor = PhysicsMonitor(
            thresholds=InvariantThresholds(pressure_bound_bar=1e-12),
            recorder=recorder,
        )
        monitor.check_pressure(potential, small_atoms.copy(), small_nlist)
        assert monitor.invariants["pressure"].status == "warning"
        events = recorder.events(category="physics")
        assert events and events[0].fields["invariant"] == "pressure"


class TestHealthMonitor:
    def test_snapshot_shape(self, recorder):
        monitor = HealthMonitor(recorder=recorder)
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-1.0)
        snapshot = monitor.snapshot()
        assert set(snapshot) == {
            "engine",
            "tier",
            "invariants",
            "worst_invariant_status",
            "thresholds",
            "recorder",
            "counters",
        }
        assert snapshot["engine"] is None  # no calculator attached
        assert "active" in snapshot["tier"]
        assert set(snapshot["invariants"]) == {
            "energy_drift",
            "momentum",
            "force_sum",
            "pressure",
        }
        assert snapshot["worst_invariant_status"] == "ok"

    def test_snapshot_includes_calculator_engine_state(self, recorder):
        class _Calc:
            def health_snapshot(self):
                return {"engine": "fake", "pool_live": True}

        monitor = HealthMonitor(recorder=recorder, calculator=_Calc())
        assert monitor.snapshot()["engine"]["engine"] == "fake"

    def test_snapshot_guards_broken_calculator(self, recorder):
        class _Broken:
            def health_snapshot(self):
                raise RuntimeError("no")

        monitor = HealthMonitor(recorder=recorder, calculator=_Broken())
        assert "error" in monitor.snapshot()["engine"]

    def test_summary_fields(self, recorder):
        monitor = HealthMonitor(recorder=recorder)
        recorder.record("engine", "pool-spawn")
        recorder.record("kernel", "tier-fallback", severity="warning")
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0)
        monitor.observe_step(1, _FakeAtoms(), potential_energy=-10.05)
        summary = monitor.summary_fields()
        assert summary["worst_severity"] == "critical"
        assert summary["worst_invariant_status"] == "critical"
        assert summary["n_engine_events"] == 1
        assert summary["n_kernel_events"] == 1
        assert summary["n_physics_warnings"] == 1
        assert summary["n_observer_failures"] == 0

    def test_dump_writes_health_jsonl(self, recorder, tmp_path):
        from repro.obs.recorder import read_health_jsonl

        monitor = HealthMonitor(recorder=recorder)
        recorder.record("engine", "pool-spawn")
        path = monitor.dump(tmp_path / "health.jsonl")
        meta, events = read_health_jsonl(path)
        assert [e["event"] for e in events] == ["pool-spawn"]


class TestSimulationIntegration:
    def test_healthy_nve_run_records_no_physics_events(
        self, recorder, small_atoms, potential
    ):
        from repro.md.simulation import Simulation

        monitor = HealthMonitor(recorder=recorder)
        sim = Simulation(
            small_atoms.copy(), potential, health=monitor
        )
        sim.run(5, sample_every=5)
        assert recorder.events(category="physics") == []
        assert monitor.physics.invariants["energy_drift"].n_checks >= 5
        assert monitor.physics.worst_status() == "ok"

    def test_simulation_attaches_calculator_to_monitor(
        self, recorder, small_atoms, potential
    ):
        from repro.md.simulation import Simulation

        monitor = HealthMonitor(recorder=recorder)
        sim = Simulation(small_atoms.copy(), potential, health=monitor)
        assert monitor.calculator is sim.calculator
        engine = monitor.snapshot()["engine"]
        assert engine is not None

    def test_absurd_thresholds_surface_in_run_log(
        self, recorder, small_atoms, potential
    ):
        from repro.md.simulation import Simulation

        run_log = RunLog()
        monitor = HealthMonitor(
            recorder=recorder,
            thresholds=InvariantThresholds(
                energy_drift_warning=-1.0, energy_drift_critical=2.0
            ),
        )
        sim = Simulation(
            small_atoms.copy(),
            potential,
            run_log=run_log,
            health=monitor,
        )
        sim.run(2, sample_every=2)
        # drift >= -1 on the very first check -> warning immediately
        assert monitor.physics.invariants["energy_drift"].status == "warning"
        assert any(
            r.get("invariant") == "energy_drift"
            for r in run_log.of_kind("health")
        )


@pytest.mark.slow
class TestOverheadContract:
    def test_recorder_overhead_under_two_percent(self, potential, paired_overhead):
        """DESIGN.md §7.3: always-on recording costs <=2% on medium.

        Both arms run in interleaved pairs on the same warmed-up
        simulation (same process, same memory, same neighbor list), judged
        on the median per-pair ratio of rebuild-free pairs — anything else
        measures allocator, scheduler and rebuild noise, not the recorder.
        """
        import time

        from repro.harness.cases import case_by_key
        from repro.md.simulation import Simulation
        from repro.obs.recorder import set_recorder

        atoms = case_by_key("medium").build(temperature=50.0)
        recorder = FlightRecorder()
        previous = set_recorder(recorder)

        def arm(enabled: bool):
            def run():
                recorder.enabled = enabled
                start = time.perf_counter()
                report = sim.run(2, sample_every=2)
                elapsed = time.perf_counter() - start
                return None if report.n_neighbor_rebuilds else elapsed

            return run

        try:
            monitor = HealthMonitor(recorder=recorder)
            sim = Simulation(atoms, potential, health=monitor)
            sim.run(1, sample_every=1)  # warm caches + neighbor list
            ratio, ratios = paired_overhead(arm(True), arm(False), pairs=25)
        finally:
            set_recorder(previous)
        assert ratio <= 1.02, (
            f"recorder overhead {ratio - 1:.2%} exceeds the 2% contract "
            f"(per-pair ratios {ratios})"
        )

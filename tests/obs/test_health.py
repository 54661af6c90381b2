"""The HealthMonitor: physics invariant checks and the snapshot surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.health import (
    DEFAULT_THRESHOLDS,
    HealthMonitor,
    InvariantThresholds,
)
from repro.obs.recorder import FlightRecorder, set_recorder
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
    """The per-step conserved-quantity checks of :class:`HealthMonitor`."""

    def test_first_step_sets_energy_reference(self, recorder):
        monitor = HealthMonitor(recorder=recorder)
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0)
        assert monitor.reference_energy == -10.0
        assert monitor.worst_status() == "ok"
        assert recorder.events() == []  # healthy step records nothing

    def test_drift_breach_emits_event_on_transition_only(self, recorder):
        monitor = HealthMonitor(recorder=recorder)
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
        monitor = HealthMonitor(recorder=recorder)
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0)
        monitor.observe_step(1, _FakeAtoms(), potential_energy=-10.05)
        monitor.observe_step(2, _FakeAtoms(), potential_energy=-10.0)
        names = [e.event for e in recorder.events(category="physics")]
        assert names == ["invariant-breach", "invariant-recovered"]
        recovered = recorder.events(category="physics")[-1]
        assert recovered.severity == "debug"
        assert monitor.worst_status() == "ok"

    def test_momentum_and_force_sum_breaches(self, recorder):
        monitor = HealthMonitor(recorder=recorder)
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
        """A breach reaches the recorder once and the run log not at all:
        the recorder is its one writer."""
        run_log = RunLog(meta={})
        monitor = HealthMonitor(recorder=recorder)
        with pytest.raises(TypeError):
            monitor.observe_step(
                0, _FakeAtoms(), potential_energy=-10.0, run_log=run_log
            )
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0)
        monitor.observe_step(1, _FakeAtoms(), potential_energy=-10.05)
        breaches = recorder.events(category="physics")
        assert [(e.event, e.fields["invariant"], e.severity) for e in breaches] == [
            ("invariant-breach", "energy_drift", "critical")
        ]
        assert [r["kind"] for r in run_log.records] == ["meta"]

    def test_check_pressure_within_bound(
        self, recorder, potential, small_atoms, small_nlist
    ):
        from repro.potentials import compute_eam_forces_serial

        atoms = small_atoms.copy()
        compute_eam_forces_serial(potential, atoms, small_nlist)
        monitor = HealthMonitor(recorder=recorder)
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
        monitor = HealthMonitor(
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
        assert monitor.invariants["energy_drift"].n_checks >= 5
        assert monitor.worst_status() == "ok"

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
        assert monitor.invariants["energy_drift"].status == "warning"
        breaches = [
            e for e in recorder.events(category="physics")
            if e.fields["invariant"] == "energy_drift"
        ]
        assert [(e.event, e.severity) for e in breaches] == [
            ("invariant-breach", "warning")
        ]
        assert not [
            r for r in run_log.records
            if r["kind"] == "health" or "invariant" in r
        ]

    def test_handed_over_moments_are_read_not_summed(self, recorder, monkeypatch):
        import repro.obs.health as health
        from repro.md.integrators import Moments

        def forbidden(atoms):
            raise AssertionError("summed over the atoms")

        monkeypatch.setattr(health, "_moments_of", forbidden)
        monitor = HealthMonitor(recorder=recorder)
        moments = Moments(5.0, (0.0, 4e-6, 0.0), (0.0, 0.0, 0.0))
        monitor.observe_step(0, _FakeAtoms(), potential_energy=-10.0, moments=moments)
        assert monitor.reference_energy == -5.0
        assert monitor.invariants["momentum"].value == 1e-6  # per atom
        assert monitor.invariants["momentum"].status == "warning"

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_a_nan_component_reads_nan_on_both_paths(self, recorder, axis):
        from repro.md.integrators import Moments

        atoms = _FakeAtoms()
        atoms.forces[0, axis] = np.nan
        force_sum = [0.0, 1.0, 0.0]
        force_sum[axis] = np.nan
        for moments in (None, Moments(0.0, (0.0, 0.0, 0.0), tuple(force_sum))):
            monitor = HealthMonitor(recorder=recorder)
            monitor.observe_step(0, atoms, potential_energy=-10.0, moments=moments)
            assert np.isnan(monitor.invariants["force_sum"].value)


class TestNaNIsCritical:
    """A NaN reading fails every ``<`` comparison: it is a critical
    breach, never a healthy ``ok``."""

    @pytest.mark.parametrize("handed_over", [False, True], ids=["summed", "moments"])
    @pytest.mark.parametrize("invariant", ["energy_drift", "momentum", "force_sum"])
    def test_a_nan_reading_is_a_critical_breach(
        self, recorder, invariant, handed_over
    ):
        from repro.md.integrators import Moments

        atoms = _FakeAtoms()
        potential_energy = -10.0
        momentum, force_sum = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        if invariant == "energy_drift":
            potential_energy = np.nan
        elif invariant == "momentum":
            atoms.velocities[0, 1] = np.nan
            momentum[1] = np.nan
        else:
            atoms.forces[0, 1] = np.nan
            force_sum[1] = np.nan
        moments = (
            Moments(0.0, tuple(momentum), tuple(force_sum)) if handed_over
            else None
        )
        monitor = HealthMonitor(recorder=recorder)
        monitor.observe_step(0, atoms, potential_energy, moments=moments)
        status = monitor.snapshot()["invariants"][invariant]
        assert status["status"] == "critical"
        breaches = [
            (e.event, e.severity) for e in recorder.events(category="physics")
            if e.fields["invariant"] == invariant
        ]
        assert breaches == [("invariant-breach", "critical")]


class TestOneWriterPerFact:
    def test_rebuilds_and_breaches_are_written_once(self, tmp_path, monkeypatch):
        """Across ``run.jsonl`` and ``health.jsonl`` of a traced run, each
        neighbour rebuild and each invariant breach appears exactly once:
        in the flight recorder's dump."""
        import json

        import repro.harness.tracing as tracing
        from repro.obs.recorder import read_health_jsonl

        tight = InvariantThresholds(
            energy_drift_warning=-1.0, force_sum_warning=-1.0
        )
        monkeypatch.setattr(
            tracing, "HealthMonitor", lambda: HealthMonitor(thresholds=tight)
        )
        previous = set_recorder(FlightRecorder())
        try:
            report = tracing.run_trace(
                cases=("tiny",), strategies=("sdc",), backends=("threads",),
                n_workers=2, steps=3, output_dir=str(tmp_path),
            )
        finally:
            set_recorder(previous)
        runlog = [json.loads(line) for line in open(report.runlog_path)]
        _, health = read_health_jsonl(report.health_path)

        rebuilds = sum(
            r["n_neighbor_rebuilds"] for r in runlog
            if r.get("event") == "run-end"
        )
        assert rebuilds >= 1
        assert sum(
            e["event"] == "neighbor-rebuild" for e in health
        ) == rebuilds
        breaches = sorted(
            e["invariant"] for e in health if e["event"] == "invariant-breach"
        )
        assert breaches == ["energy_drift", "force_sum"]
        # the run log carries none of them, in any kind
        assert not [
            r for r in runlog
            if r["kind"] == "health"
            or r.get("event") in ("neighbor-rebuild", "invariant-breach")
            or "invariant" in r
        ]


class TestThermostattedDrift:
    """Under a rescaling thermostat velocity Verlet conserves E minus the
    energy the thermostat exchanged, and that is what the monitor checks
    when the driver hands the step's moments over; the raw E moves by as
    much as the thermostat pumps."""

    class Withheld(HealthMonitor):
        """Drops the driver's hand-over: every step sums its own moments."""

        def observe_step(self, *args, moments=None, **kwargs):
            super().observe_step(*args, **kwargs)

    def run(self, monitor):
        from repro.harness.cases import Case
        from repro.md.simulation import Simulation
        from repro.md.thermostats import BerendsenThermostat
        from repro.potentials import fe_potential

        atoms = Case(key="t", label="t", n_cells=4).build(
            perturbation=0.03, temperature=500.0, seed=2
        )
        sim = Simulation(
            atoms, fe_potential(),
            thermostat=BerendsenThermostat(100.0, tau=0.02), health=monitor,
        )
        report = sim.run(20, sample_every=1)
        # the thermostat did take the run from ~480 K to ~130 K
        assert report.records[-1].temperature < 0.3 * report.records[0].temperature
        return monitor

    def test_a_healthy_nvt_run_stays_ok(self, recorder):
        monitor = self.run(HealthMonitor(recorder=recorder))
        assert monitor.exchanged < 0.0
        assert monitor.invariants["energy_drift"].status == "ok"
        assert monitor.worst_status() == "ok"
        assert recorder.events(category="physics") == []

    def test_without_the_hand_over_the_raw_energy_alarms(self, recorder):
        monitor = self.run(self.Withheld(recorder=recorder))
        assert monitor.exchanged == 0.0
        assert monitor.invariants["energy_drift"].status in ("warning", "critical")


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
